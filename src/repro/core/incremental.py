"""Incremental sample maintenance for delta-aware estimators.

The session layer (:class:`~repro.api.session.OpenWorldSession`) already
maintains per-entity counts, per-source tallies and the frequency
histogram incrementally under ``ingest``.  This module packages the part
of that state the closed-form estimators actually consume --
f-statistics, the observed SUM, and the singleton SUM -- behind two
small types:

* :class:`SampleDelta` -- the immutable digest of one ingest commit:
  which entities were appended (first observation, with their fused
  attribute value) and which were re-observed.  One delta per
  ``state_version`` bump.
* :class:`IncrementalSampleState` -- the handle state the naive and
  frequency estimators update in O(|delta|) instead of recomputing in
  O(n).  It mirrors :class:`~repro.data.sample.ObservedSample` *exactly*
  (same insertion order, same dtypes, same summation order) so the
  delta path is bit-identical to the batch path -- the batch estimator
  stays the parity oracle, the delta path must never drift from it.

Byte-parity invariants this module maintains (and the parity tests in
``tests/core/test_incremental.py`` enforce):

* ``observed_sum`` reproduces ``float(np.array(values).sum())`` over the
  entities in counts-insertion order: values live in one contiguous
  float64 buffer appended in first-seen order, and the sum is
  recomputed with the same NumPy pairwise reduction over the same
  prefix whenever the buffer grew.
* ``singleton_sum`` reproduces ``float(sum(value for singletons in
  insertion order))``: appending a new entity extends the running
  Python-float sum exactly (the new singleton is last in insertion
  order); any promotion of a count from 1 to 2 removes a *middle*
  element, so the sum is marked dirty and sequentially re-summed in
  insertion order on the next read.
* the frequency histogram is order-independent by construction
  (:class:`~repro.core.fstatistics.FrequencyStatistics` sorts and
  re-derives its scalars), so maintaining ``{j: f_j}`` with
  decrement/increment moves is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fstatistics import FrequencyStatistics
from repro.data.sample import ObservedSample

__all__ = ["SampleDelta", "IncrementalSampleState"]

#: Initial capacity of the contiguous value buffer.
_MIN_CAPACITY = 256


@dataclass(frozen=True)
class SampleDelta:
    """Digest of one ingest commit (one ``state_version`` bump).

    Attributes
    ----------
    version:
        The ``state_version`` the session reached when this delta was
        committed.  Deltas are contiguous: applying versions
        ``v+1 .. w`` to a handle at version ``v`` reproduces the sample
        at version ``w``.
    appended:
        ``(entity_id, value)`` pairs for entities observed for the first
        time in this commit, in stream order.  ``value`` is the fused
        attribute value (first observation wins), exactly as the
        integration rule stores it.
    reobserved:
        One entity id per repeat observation in this commit, in stream
        order (an entity re-observed twice appears twice).
    """

    version: int
    appended: "tuple[tuple[str, float], ...]"
    reobserved: "tuple[str, ...]"

    @property
    def n_observations(self) -> int:
        """Number of raw observations the delta carries."""
        return len(self.appended) + len(self.reobserved)


class IncrementalSampleState:
    """Maintained estimator inputs, updatable in O(|delta|).

    Built from an :class:`ObservedSample` by ``begin`` and advanced by
    :meth:`apply`; exposes exactly the quantities the closed-form
    estimators read (``statistics``, ``observed_sum``, ``singleton_sum``,
    ``c``, ``n``) with bit-identical values to a fresh batch pass.
    """

    __slots__ = (
        "attribute",
        "_counts",
        "_index",
        "_values",
        "_freq",
        "_n",
        "_c",
        "_observed_sum",
        "_sum_stale",
        "_singleton_sum",
        "_singleton_stale",
    )

    def __init__(self, sample: ObservedSample, attribute: str) -> None:
        self.attribute = attribute
        self._counts: dict[str, int] = dict(sample.counts)
        self._index = {eid: slot for slot, eid in enumerate(self._counts)}
        values = sample.values(attribute)  # float64, counts insertion order
        capacity = max(_MIN_CAPACITY, 2 * len(values))
        buffer = np.empty(capacity, dtype=np.float64)
        buffer[: len(values)] = values
        self._values = buffer
        self._c = len(values)
        self._freq = dict(sample.frequency_counts())
        self._n = sample.n
        # Seeded from the sample's own reductions so the handle starts
        # bit-identical to the batch path, not merely close.
        self._observed_sum = sample.sum(attribute)
        self._sum_stale = False
        self._singleton_sum = sample.singleton_sum(attribute)
        self._singleton_stale = False

    # ------------------------------------------------------------------ #
    # Update
    # ------------------------------------------------------------------ #

    def apply(self, delta: SampleDelta) -> None:
        """Advance the state by one committed delta (O(|delta|))."""
        appended = delta.appended
        if appended:
            needed = self._c + len(appended)
            if needed > self._values.shape[0]:
                grown = np.empty(max(needed, 2 * self._values.shape[0]), dtype=np.float64)
                grown[: self._c] = self._values[: self._c]
                self._values = grown
            for entity_id, value in appended:
                slot = self._c
                self._values[slot] = value
                self._index[entity_id] = slot
                self._counts[entity_id] = 1
                self._c = slot + 1
                if not self._singleton_stale:
                    # A brand-new singleton is *last* in insertion order,
                    # so extending the running sum matches a sequential
                    # re-sum exactly.
                    self._singleton_sum = self._singleton_sum + value
            self._freq[1] = self._freq.get(1, 0) + len(appended)
            self._n += len(appended)
            self._sum_stale = True
        reobserved = delta.reobserved
        if reobserved:
            # Bound hot names once: this loop is the per-push cost of the
            # delta path, so attribute lookups matter here.
            counts = self._counts
            freq = self._freq
            freq_get = freq.get
            for entity_id in reobserved:
                old = counts[entity_id]
                counts[entity_id] = old + 1
                remaining = freq[old] - 1
                if remaining:
                    freq[old] = remaining
                else:
                    del freq[old]
                freq[old + 1] = freq_get(old + 1, 0) + 1
                if old == 1:
                    # A promoted singleton drops out of the middle of the
                    # summation order; re-sum sequentially on next read.
                    self._singleton_stale = True
            self._n += len(reobserved)

    # ------------------------------------------------------------------ #
    # Estimator-facing reads
    # ------------------------------------------------------------------ #

    @property
    def c(self) -> int:
        """Number of unique observed entities."""
        return self._c

    @property
    def n(self) -> int:
        """Total number of observations."""
        return self._n

    def statistics(self) -> FrequencyStatistics:
        """Fresh :class:`FrequencyStatistics` over the maintained histogram."""
        return FrequencyStatistics(self._freq)

    def observed_sum(self) -> float:
        """``SUM(attribute)`` over the sample, bit-identical to the batch sum."""
        if self._sum_stale:
            # Same dtype, same contiguity, same length, same insertion
            # order as ObservedSample.sum -> same pairwise reduction.
            self._observed_sum = float(self._values[: self._c].sum())
            self._sum_stale = False
        return self._observed_sum

    def singleton_sum(self) -> float:
        """Sum over entities observed exactly once, in insertion order."""
        if self._singleton_stale:
            values = self._values
            index = self._index
            self._singleton_sum = float(
                sum(values[index[eid]] for eid, count in self._counts.items() if count == 1)
            )
            self._singleton_stale = False
        return float(self._singleton_sum)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IncrementalSampleState(attribute={self.attribute!r}, "
            f"c={self._c}, n={self._n})"
        )
