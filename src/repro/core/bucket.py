"""The bucket estimator (Section 3.3) with static and dynamic bucketing.

The naive and frequency estimators ignore the publicity-value correlation:
when popular entities tend to have large values, assuming the missing
entities look like the observed ones biases the estimate.  The bucket
estimator splits the observed value range into sub-ranges ("buckets"),
treats each bucket as its own small data set, estimates the impact of
unknown unknowns per bucket, and sums the per-bucket estimates
(``Δ_bucket = Σ_i Δ(b_i)``, Equation 11).

Three bucketing strategies are provided:

* :class:`EquiWidthBucketing` -- fixed number of equal-width value ranges
  (Section 3.3.1).
* :class:`EquiHeightBucketing` -- fixed number of buckets holding an equal
  number of unique entities (Appendix B).
* :class:`DynamicBucketing` -- the paper's recursive conservative splitting
  (Algorithm 1): a bucket is split only when the split reduces the total
  absolute impact estimate, which provably cannot reduce the count error
  and therefore only triggers when the per-bucket value detail genuinely
  improves the estimate.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np

from repro.core.estimator import Estimate, SumEstimator
from repro.core.fstatistics import FrequencyStatistics
from repro.core.incremental import SampleDelta
from repro.core.naive import NaiveEstimator
from repro.core.pieces import UNIT_ROUNDOFF, PieceStatistics
from repro.data.sample import ObservedSample
from repro.utils.exceptions import EstimationError, ValidationError

#: Default bucket count of the static (equi-width / equi-height) strategies;
#: the estimator registry reads this instead of repeating the value.
DEFAULT_STATIC_BUCKETS = 4


@dataclass
class Bucket:
    """One value-range bucket with its sub-sample and per-bucket estimate.

    Attributes
    ----------
    low, high:
        Inclusive value range covered by the bucket.
    sample:
        The restriction of the full sample to entities whose attribute value
        falls in ``[low, high]`` (``None`` for an empty bucket).
    estimate:
        The base estimator's result over ``sample`` (``None`` for empty
        buckets).
    """

    low: float
    high: float
    sample: ObservedSample | None = None
    estimate: Estimate | None = None

    @property
    def is_empty(self) -> bool:
        """True when no observed entity falls into the bucket."""
        return self.sample is None

    @property
    def delta(self) -> float:
        """The per-bucket impact estimate (0.0 for empty buckets)."""
        if self.estimate is None:
            return 0.0
        return self.estimate.delta

    @property
    def abs_delta(self) -> float:
        """Absolute per-bucket impact (the objective of Algorithm 1)."""
        return abs(self.delta)

    @property
    def size(self) -> int:
        """Number of unique entities in the bucket."""
        return 0 if self.sample is None else self.sample.c


class BucketingStrategy(ABC):
    """Strategy that partitions a sample into value-range buckets."""

    @abstractmethod
    def build(
        self, sample: ObservedSample, attribute: str, base: SumEstimator
    ) -> list[Bucket]:
        """Partition ``sample`` and attach per-bucket estimates."""

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _estimate_bucket(
        bucket_sample: ObservedSample | None,
        low: float,
        high: float,
        attribute: str,
        base: SumEstimator,
    ) -> Bucket:
        """Build a :class:`Bucket`, running the base estimator when non-empty."""
        if bucket_sample is None:
            return Bucket(low=low, high=high, sample=None, estimate=None)
        estimate = base.estimate(bucket_sample, attribute)
        return Bucket(low=low, high=high, sample=bucket_sample, estimate=estimate)

    @staticmethod
    def _sorted_unique_values(sample: ObservedSample, attribute: str) -> list[float]:
        """Sorted distinct attribute values present in the sample."""
        return sorted(set(float(v) for v in sample.values(attribute)))


class EquiWidthBucketing(BucketingStrategy):
    """Fixed number of equal-width value ranges (Section 3.3.1).

    Parameters
    ----------
    n_buckets:
        Number of buckets ``nb``; the bucket width is
        ``(max − min) / nb`` over the observed value range.
    """

    def __init__(self, n_buckets: int) -> None:
        if n_buckets < 1:
            raise ValidationError(f"n_buckets must be >= 1, got {n_buckets}")
        self.n_buckets = int(n_buckets)

    def build(
        self, sample: ObservedSample, attribute: str, base: SumEstimator
    ) -> list[Bucket]:
        values = sample.values(attribute)
        lo = float(values.min())
        hi = float(values.max())
        if lo == hi or self.n_buckets == 1:
            return [self._estimate_bucket(sample, lo, hi, attribute, base)]
        width = (hi - lo) / self.n_buckets
        buckets: list[Bucket] = []
        for i in range(self.n_buckets):
            b_lo = lo + i * width
            b_hi = hi if i == self.n_buckets - 1 else lo + (i + 1) * width
            include_high = i == self.n_buckets - 1
            restricted = sample.restrict_to_value_range(
                attribute, b_lo, b_hi, include_high=include_high
            )
            buckets.append(self._estimate_bucket(restricted, b_lo, b_hi, attribute, base))
        return buckets


class EquiHeightBucketing(BucketingStrategy):
    """Fixed number of buckets holding an equal number of unique entities.

    This is the "equi-height" variant mentioned in Appendix B: sort the
    unique entities by value and cut the sorted list into ``n_buckets``
    groups of (nearly) equal cardinality.
    """

    def __init__(self, n_buckets: int) -> None:
        if n_buckets < 1:
            raise ValidationError(f"n_buckets must be >= 1, got {n_buckets}")
        self.n_buckets = int(n_buckets)

    def build(
        self, sample: ObservedSample, attribute: str, base: SumEstimator
    ) -> list[Bucket]:
        ordered = sorted(
            sample.entity_ids, key=lambda eid: sample.value(eid, attribute)
        )
        n_buckets = min(self.n_buckets, len(ordered))
        buckets: list[Bucket] = []
        # Distribute entities as evenly as possible (first buckets get the
        # remainder), cutting only between entities so ties never straddle a
        # boundary in a surprising way.
        base_size, remainder = divmod(len(ordered), n_buckets)
        start = 0
        for i in range(n_buckets):
            size = base_size + (1 if i < remainder else 0)
            group = ordered[start : start + size]
            start += size
            if not group:
                continue
            restricted = sample.restrict_to_entities(group)
            lo = min(sample.value(eid, attribute) for eid in group)
            hi = max(sample.value(eid, attribute) for eid in group)
            buckets.append(self._estimate_bucket(restricted, lo, hi, attribute, base))
        return buckets


class DynamicBucketing(BucketingStrategy):
    """The paper's conservative recursive splitting (Algorithm 1).

    Starting from a single bucket covering the whole observed value range,
    each bucket is recursively split at the unique value boundary that
    minimises the *total* absolute impact estimate; a bucket is only split
    when some split strictly lowers that total.  Buckets whose estimate
    diverges (all singletons) have an infinite objective and therefore never
    result from a chosen split unless they were already unavoidable.

    When the search estimator provides a vectorized scorer (the naive and
    frequency estimators do), the search runs on index ranges of the
    value-sorted sample (:class:`_SortedSearch`); otherwise every candidate
    split is materialized and estimated (:meth:`_candidate_splits`).  Both
    make the same choices, so the buckets are identical.

    Parameters
    ----------
    max_depth:
        Safety cap on the recursion depth (each level at most doubles the
        number of buckets).  The paper's algorithm needs no such cap in
        practice; the default is generous.
    """

    def __init__(self, max_depth: int = 32) -> None:
        if max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = int(max_depth)

    def build(
        self, sample: ObservedSample, attribute: str, base: SumEstimator
    ) -> list[Bucket]:
        values = sample.values(attribute)
        root = self._estimate_bucket(
            sample, float(values.min()), float(values.max()), attribute, base
        )
        search = _SortedSearch.create(sample, values, base)
        if search is None:
            return self._search(
                root, partial(self._best_candidate, attribute=attribute, base=base)
            )
        ranges = self._search(search.root(root), search.best_split)
        return [search.bucket(node, root) for node in ranges]

    def _search(self, root: Any, best_split: Any) -> list[Any]:
        """Algorithm 1's main loop, shared by both split searches.

        ``best_split(node, delta_rest, delta_min)`` returns the chosen
        ``(left, right)`` pair (or ``None``) and the updated ``delta_min``.
        """
        # delta_min tracks the best (smallest) total |Δ| over all buckets
        # discovered so far, exactly as Algorithm 1 does.
        delta_min = root.abs_delta
        todo: deque[tuple[Any, int]] = deque([(root, 0)])
        final: list[Any] = []
        while todo:
            node, depth = todo.popleft()
            if node.size <= 1 or depth >= self.max_depth:
                final.append(node)
                continue
            # Total |Δ| over every bucket except this one; candidate splits
            # are judged by what they would make the new total.
            delta_rest = delta_min - node.abs_delta
            if not math.isfinite(delta_rest):
                # The running total is infinite (e.g. the root bucket is all
                # singletons); compare splits purely by their own objective.
                delta_rest = 0.0
                delta_min = node.abs_delta
            pair, delta_min = best_split(node, delta_rest, delta_min)
            if pair is None:
                final.append(node)
            else:
                todo.append((pair[0], depth + 1))
                todo.append((pair[1], depth + 1))
        return sorted(final, key=lambda node: node.low)

    def _best_candidate(
        self,
        bucket: Bucket,
        delta_rest: float,
        delta_min: float,
        attribute: str,
        base: SumEstimator,
    ) -> "tuple[tuple[Bucket, Bucket] | None, float]":
        """First split (ascending) with the smallest total below ``delta_min``."""
        best_pair: tuple[Bucket, Bucket] | None = None
        for left, right in self._candidate_splits(bucket, attribute, base):
            candidate_total = delta_rest + left.abs_delta + right.abs_delta
            if candidate_total < delta_min:
                delta_min = candidate_total
                best_pair = (left, right)
        return best_pair, delta_min

    def _candidate_splits(
        self, bucket: Bucket, attribute: str, base: SumEstimator
    ) -> list[tuple[Bucket, Bucket]]:
        """All two-way splits of ``bucket`` at distinct value boundaries."""
        assert bucket.sample is not None
        sample = bucket.sample
        unique_values = self._sorted_unique_values(sample, attribute)
        pairs: list[tuple[Bucket, Bucket]] = []
        # Splitting after the largest value would leave the right side empty.
        for split_value in unique_values[:-1]:
            left_ids = [
                eid
                for eid in sample.entity_ids
                if sample.value(eid, attribute) <= split_value
            ]
            right_ids = [
                eid
                for eid in sample.entity_ids
                if sample.value(eid, attribute) > split_value
            ]
            left_sample = sample.restrict_to_entities(left_ids)
            right_sample = sample.restrict_to_entities(right_ids)
            if left_sample is None or right_sample is None:
                continue
            left = self._estimate_bucket(
                left_sample, bucket.low, split_value, attribute, base
            )
            right = self._estimate_bucket(
                right_sample, split_value, bucket.high, attribute, base
            )
            pairs.append((left, right))
        return pairs


@dataclass
class _Range:
    """A bucket during the sorted search: positions ``[start, stop)`` of
    the value order, its value range and its exact ``|Δ̂|``."""

    start: int
    stop: int
    low: float
    high: float
    abs_delta: float

    @property
    def size(self) -> int:
        return self.stop - self.start


class _RangeState:
    """The batch path's estimator inputs for one index range.

    Rows are taken back to insertion order, so the NumPy value sum, the
    sequential singleton sum and the f-histogram are exactly those of
    ``sample.restrict_to_entities(...)`` -- the state feeds the
    estimator's own ``_estimate_from``.
    """

    __slots__ = ("_values", "_counts")

    def __init__(self, search: "_SortedSearch", start: int, stop: int) -> None:
        rows = np.sort(search.order[start:stop])
        self._values = search.values[rows]
        self._counts = search.counts[rows]

    def statistics(self) -> FrequencyStatistics:
        return FrequencyStatistics.from_counts(self._counts)

    def observed_sum(self) -> float:
        return float(self._values.sum())

    def singleton_sum(self) -> float:
        return float(sum(self._values[self._counts == 1].tolist()))


class _SortedSearch:
    """Algorithm 1's split search on index ranges of the value order.

    The sample is sorted by value once (stably, so ties keep insertion
    order) and every bucket is a range of that order.  All splits of a
    range are scored at once by the estimator's vectorized scorer from
    prefix sums of count, singleton flag, ``j(j−1)``, value, singleton
    value and ``|value|``.  The scores only filter: every split the
    error bound cannot rule out is re-scored exactly, in ascending split
    order with the loop's strict ``<``, so the chosen splits and
    ``delta_min`` are the loop's own (DESIGN.md, "Bucket search").
    """

    #: Value magnitudes outside this band fall back to the loop, so no
    #: score can overflow or underflow and the error bound stays valid.
    _MAX_ABS_SUM = 1e200
    _MIN_ABS_VALUE = 1e-200

    def __init__(
        self, sample: ObservedSample, values: np.ndarray, counts: np.ndarray, base: SumEstimator
    ) -> None:
        self.sample = sample
        self.entity_ids = sample.entity_ids
        self.base = base
        self.values = values
        self.counts = counts
        self.order = np.argsort(values, kind="stable")
        x = values[self.order]
        k = counts[self.order]
        singleton = k == 1
        self.ints = np.stack([k, singleton.astype(np.int64), k * (k - 1)])
        self.floats = np.stack([x, np.where(singleton, x, 0.0), np.abs(x)])
        #: Split positions: first index of every distinct value but the first.
        self.breaks = np.flatnonzero(x[1:] != x[:-1]) + 1
        # The value a split at breaks[i] is named by: the first (in
        # insertion order) of the tied values before it, as the loop's
        # sorted(set(...)) keeps it (this only matters for -0.0 / 0.0).
        self.split_values = x[np.concatenate(([0], self.breaks[:-1]))].tolist()

    @classmethod
    def create(
        cls, sample: ObservedSample, values: np.ndarray, base: SumEstimator
    ) -> "_SortedSearch | None":
        """The sorted search for ``base``, or ``None`` to use the loop."""
        if getattr(base, "_score_pieces", None) is None:
            return None
        counts = np.fromiter(sample.counts.values(), dtype=np.int64, count=sample.c)
        magnitudes = np.abs(values)
        nonzero = magnitudes[magnitudes != 0]
        if (
            not np.all(np.isfinite(values))
            or magnitudes.sum() > cls._MAX_ABS_SUM
            or (nonzero.size and nonzero.min() < cls._MIN_ABS_VALUE)
            or counts.sum() >= 2**31
        ):
            return None
        return cls(sample, values, counts, base)

    def root(self, bucket: Bucket) -> _Range:
        return _Range(0, len(self.values), bucket.low, bucket.high, bucket.abs_delta)

    def bucket(self, node: _Range, root: Bucket) -> Bucket:
        """Materialize a final range (the unsplit root keeps its sample)."""
        if node.size == len(self.values):
            return root
        entity_ids = self.entity_ids
        rows = np.sort(self.order[node.start : node.stop]).tolist()
        return Bucket(
            low=node.low,
            high=node.high,
            sample=self.sample.restrict_to_entities([entity_ids[i] for i in rows]),
            estimate=self._exact(node.start, node.stop),
        )

    def _exact(self, start: int, stop: int) -> Estimate:
        """What ``base.estimate`` returns for the range's sub-sample."""
        return self.base._estimate_state(_RangeState(self, start, stop))

    def best_split(
        self, node: _Range, delta_rest: float, delta_min: float
    ) -> "tuple[tuple[_Range, _Range] | None, float]":
        """The loop's choice for ``node``, from scores plus exact re-checks."""
        start, stop = node.start, node.stop
        first = int(np.searchsorted(self.breaks, start, side="right"))
        breaks = self.breaks[first : np.searchsorted(self.breaks, stop, side="left")]
        if breaks.size == 0:
            return None, delta_min
        # Prefix sums over the range; column k-1 covers its first k rows.
        ints = np.cumsum(self.ints[:, start:stop], axis=1)
        floats = np.cumsum(self.floats[:, start:stop], axis=1)
        cut = breaks - start - 1
        left_i, whole_i = ints[:, cut], ints[:, -1:]
        left_f, whole_f = floats[:, cut], floats[:, -1:]
        size = stop - start
        pieces = PieceStatistics.from_prefix_sums(
            counts=np.concatenate([left_i, whole_i - left_i], axis=1),
            c=np.concatenate([cut + 1, size - cut - 1]),
            sums=np.concatenate([left_f[:2], whole_f[:2] - left_f[:2]], axis=1),
            # |value| prefix sums bound the rounding of both prefixes a
            # piece's sum is the difference of (the left prefix starts at 0).
            abs_prefixes=np.concatenate(
                [left_f[2], whole_f[2, 0] + left_f[2]]
            ),
            size=size,
        )
        score, err = self.base._score_pieces(pieces)
        n_splits = breaks.size
        left_abs, right_abs = score[:n_splits], score[n_splits:]
        with np.errstate(invalid="ignore"):
            total = (delta_rest + left_abs) + right_abs
            piece_err = err[:n_splits] + err[n_splits:]
            # Widened by 2x so that forming total ± bound cannot round
            # past the exact total; a zero bound means the total is exact.
            bound = np.where(
                piece_err > 0,
                2.0 * (piece_err + 8.0 * UNIT_ROUNDOFF * (abs(delta_rest) + left_abs + right_abs)),
                0.0,
            )
            lower = total - bound
            upper = total + bound
        dead = np.isinf(left_abs) | np.isinf(right_abs)  # exact total is inf
        undecided = ~dead & np.isnan(total)
        finite = ~dead & ~undecided
        recheck = undecided
        if finite.any():
            best_upper = np.min(upper[finite])
            recheck = recheck | (finite & (lower <= best_upper) & (lower < delta_min))
        best: "tuple[int, float, float] | None" = None
        for i in np.flatnonzero(recheck).tolist():
            if bound[i] == 0 and finite[i]:
                left, right, candidate_total = float(left_abs[i]), float(right_abs[i]), float(total[i])
            else:
                split = int(breaks[i])
                left = abs(self._exact(start, split).delta)
                right = abs(self._exact(split, stop).delta)
                candidate_total = delta_rest + left + right
            if candidate_total < delta_min:
                delta_min = candidate_total
                best = (i, left, right)
        if best is None:
            return None, delta_min
        i, left, right = best
        split = int(breaks[i])
        split_value = self.split_values[first + i]
        return (
            _Range(start, split, node.low, split_value, left),
            _Range(split, stop, split_value, node.high, right),
        ), delta_min


class _BucketHandle:
    """Incremental handle of :class:`BucketEstimator`.

    Maintains the raw sample content (counts / fused values) under
    deltas; every update runs the batch decomposition on the maintained
    sample, so delta mode and batch share one search.  Its sample has
    no source sizes: no update-capable base estimator reads them.
    """

    __slots__ = ("attribute", "counts", "values")

    def __init__(self, sample: ObservedSample, attribute: str) -> None:
        self.attribute = attribute
        self.counts: dict[str, int] = dict(sample.counts)
        self.values = sample.values_by_entity()

    def apply(self, delta: SampleDelta) -> None:
        for entity_id, value in delta.appended:
            self.counts[entity_id] = 1
            self.values[entity_id] = {self.attribute: value}
        for entity_id in delta.reobserved:
            self.counts[entity_id] += 1

    def sample(self) -> ObservedSample:
        return ObservedSample(self.counts, self.values)


class BucketEstimator(SumEstimator):
    """Per-bucket unknown-unknowns estimation (Section 3.3).

    Parameters
    ----------
    strategy:
        The bucketing strategy; defaults to the paper's dynamic strategy.
    base:
        The estimator applied inside each bucket -- the naive estimator by
        default (as in the paper); the frequency estimator is a drop-in
        alternative (Appendix D).
    search_base:
        Optional cheaper estimator used only while *searching* for bucket
        boundaries (the dynamic strategy evaluates every candidate split).
        When set, the final buckets are re-estimated with ``base``.  This is
        how the Monte-Carlo + bucket combination of Appendix D stays
        tractable: boundaries are found with the naive estimator, values are
        estimated per bucket with the Monte-Carlo estimator.
    """

    name = "bucket"

    def __init__(
        self,
        strategy: BucketingStrategy | None = None,
        base: SumEstimator | None = None,
        search_base: SumEstimator | None = None,
    ) -> None:
        self.strategy = strategy or DynamicBucketing()
        self.base = base or NaiveEstimator()
        self.search_base = search_base
        if isinstance(self.strategy, EquiWidthBucketing):
            self.name = f"bucket-equiwidth-{self.strategy.n_buckets}"
        elif isinstance(self.strategy, EquiHeightBucketing):
            self.name = f"bucket-equiheight-{self.strategy.n_buckets}"
        if not isinstance(self.base, NaiveEstimator):
            self.name = f"{self.name}+{self.base.name}"

    @property
    def supports_updates(self) -> bool:  # type: ignore[override]
        """True when every underlying estimator is itself update-capable.

        Delta mode promises byte parity with batch, which holds for the
        deterministic closed-form estimators that set
        ``supports_updates`` themselves.  A Monte-Carlo base (fresh
        ``runtime`` block per call) therefore disables the seam.
        """
        return bool(self.base.supports_updates) and (
            self.search_base is None or bool(self.search_base.supports_updates)
        )

    def estimate(self, sample: ObservedSample, attribute: str) -> Estimate:
        """Estimate the unknown-unknowns impact on ``SUM(attribute)``."""
        self._check_attribute(sample, attribute)
        return self._summarize(sample, attribute, self._buckets_for(sample, attribute))

    # ------------------------------------------------------------------ #
    # Incremental seam
    # ------------------------------------------------------------------ #

    def begin(self, sample: ObservedSample, attribute: str) -> _BucketHandle:
        """Open an incremental handle positioned at ``sample``."""
        if not self.supports_updates:
            raise EstimationError(
                f"estimator {self.name!r} does not support incremental updates: "
                "its base estimator is not update-capable"
            )
        self._check_attribute(sample, attribute)
        return _BucketHandle(sample, attribute)

    def update(self, handle: _BucketHandle, delta: "SampleDelta | None" = None) -> Estimate:
        """Advance ``handle`` by ``delta`` and return the fresh estimate.

        The bucket decomposition is rebuilt from the maintained sample
        content with the batch search: a small ingest changes the totals
        of most candidate splits, so caching per-bucket results buys
        little.
        """
        if delta is not None:
            handle.apply(delta)
        sample = handle.sample()
        return self._summarize(sample, handle.attribute, self._buckets_for(sample, handle.attribute))

    # ------------------------------------------------------------------ #
    # Shared decomposition + summary (batch and incremental paths)
    # ------------------------------------------------------------------ #

    def _summarize(
        self, sample: ObservedSample, attribute: str, buckets: list[Bucket]
    ) -> Estimate:
        delta = 0.0
        count_estimate = 0.0
        for bucket in buckets:
            delta += bucket.delta
            if bucket.estimate is not None:
                count_estimate += bucket.estimate.count_estimate
        details: dict[str, Any] = {
            "n_buckets": len([b for b in buckets if not b.is_empty]),
            "bucket_boundaries": [(b.low, b.high) for b in buckets],
            "bucket_deltas": [b.delta for b in buckets],
            "bucket_counts": [
                b.estimate.count_estimate if b.estimate is not None else 0.0
                for b in buckets
            ],
        }
        missing = count_estimate - sample.c if math.isfinite(count_estimate) else float("inf")
        value_estimate = delta / missing if (math.isfinite(missing) and missing > 0) else float("nan")
        return self._build_estimate(
            sample,
            attribute,
            delta=delta,
            count_estimate=count_estimate,
            value_estimate=value_estimate,
            details=details,
        )

    def _buckets_for(self, sample: ObservedSample, attribute: str) -> list[Bucket]:
        base, search_base = self.base, self.search_base
        search = search_base or base
        buckets = self.strategy.build(sample, attribute, search)
        if not buckets:
            raise EstimationError("bucketing strategy produced no buckets")
        if search_base is not None and search_base is not base:
            buckets = [
                bucket
                if bucket.is_empty
                else BucketingStrategy._estimate_bucket(
                    bucket.sample, bucket.low, bucket.high, attribute, base
                )
                for bucket in buckets
            ]
        return buckets

    def buckets(self, sample: ObservedSample, attribute: str) -> list[Bucket]:
        """Return the buckets (with per-bucket estimates) for ``sample``.

        Exposed separately because the AVG / MIN / MAX estimators of
        Section 5 reuse the bucket decomposition directly.
        """
        self._check_attribute(sample, attribute)
        return self._buckets_for(sample, attribute)
