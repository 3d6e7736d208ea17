"""The one incremental sample state a session's delta reads share.

The session layer (:class:`~repro.api.session.OpenWorldSession`) already
maintains per-entity counts, per-source tallies and the frequency
histogram incrementally under ``ingest``.  This module packages the part
of that state the closed-form estimators actually consume --
f-statistics, the observed SUM, and the singleton SUM -- as
:class:`IncrementalSampleState`.

A session opens one state at its first delta read (through
:meth:`~repro.core.estimator.SumEstimator.begin`) and then advances it
with :meth:`IncrementalSampleState.apply` inside every ingest's version
bump, passing the ``(appended, reobserved)`` digest the ingest's
validation pass builds: which entities were observed for the first time
(with their fused attribute value) and which were re-observed.  Every
update-capable estimator reads that one state in O(1) or
O(distinct frequencies); the bucket estimator rebuilds its sample from
it (:meth:`IncrementalSampleState.sample`).

The state mirrors :class:`~repro.data.sample.ObservedSample` *exactly*
(same insertion order, same dtypes, same summation order) so the delta
path is bit-identical to the batch path -- the batch estimator stays
the parity oracle, the delta path must never drift from it.
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

The two lazy sums are shared by every reader of the state.  Reads run
concurrently with each other but never with ``apply`` (the session's
concurrency contract), so two readers that both find a sum dirty
compute the same value, and a reader that finds it clean reads a sum
that was stored before the flag was cleared.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.fstatistics import FrequencyStatistics
from repro.data.sample import ObservedSample

__all__ = ["IncrementalSampleState"]

#: Initial capacity of the contiguous value buffer.
_MIN_CAPACITY = 256


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
        # Slot i of the value buffer belongs to the i-th entity of
        # ``_counts`` (both in first-seen order).
        self._counts: dict[str, int] = dict(sample.counts)
        values = sample.values(attribute)  # float64, counts insertion order
        capacity = max(_MIN_CAPACITY, 2 * len(values))
        buffer = np.empty(capacity, dtype=np.float64)
        buffer[: len(values)] = values
        self._values = buffer
        self._c = len(values)
        self._freq = dict(sample.frequency_counts())
        self._n = sample.n
        # Seeded from the sample's own reductions so the state starts
        # bit-identical to the batch path, not merely close.
        self._observed_sum = sample.sum(attribute)
        self._sum_stale = False
        self._singleton_sum = sample.singleton_sum(attribute)
        self._singleton_stale = False

    # ------------------------------------------------------------------ #
    # Update
    # ------------------------------------------------------------------ #

    def apply(
        self,
        appended: "Sequence[tuple[str, float]]",
        reobserved: "Sequence[str]",
    ) -> None:
        """Advance the state by one ingest commit (O(|delta|)).

        ``appended`` holds the ``(entity_id, fused value)`` pairs of the
        entities the commit observed for the first time, in stream order;
        ``reobserved`` holds one entity id per repeat observation, in
        stream order (an entity re-observed twice appears twice).
        """
        if appended:
            needed = self._c + len(appended)
            if needed > self._values.shape[0]:
                grown = np.empty(max(needed, 2 * self._values.shape[0]), dtype=np.float64)
                grown[: self._c] = self._values[: self._c]
                self._values = grown
            for entity_id, value in appended:
                self._values[self._c] = value
                self._counts[entity_id] = 1
                self._c += 1
                if not self._singleton_stale:
                    # A brand-new singleton is *last* in insertion order,
                    # so extending the running sum matches a sequential
                    # re-sum exactly.
                    self._singleton_sum = self._singleton_sum + value
            self._freq[1] = self._freq.get(1, 0) + len(appended)
            self._n += len(appended)
            self._sum_stale = True
        if reobserved:
            # Bound hot names once: this loop is the per-ingest cost of
            # an open state, so attribute lookups matter here.
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
            values = self._values[: self._c]
            self._singleton_sum = float(
                sum(value for value, count in zip(values, self._counts.values()) if count == 1)
            )
            self._singleton_stale = False
        return float(self._singleton_sum)

    def sample(self) -> ObservedSample:
        """The maintained sample: counts and fused values, in first-seen order.

        It carries the one maintained attribute and no source sizes; no
        update-capable estimator reads them.
        """
        attribute = self.attribute
        values = self._values[: self._c].tolist()
        return ObservedSample(
            self._counts,
            {eid: {attribute: value} for eid, value in zip(self._counts, values)},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IncrementalSampleState(attribute={self.attribute!r}, "
            f"c={self._c}, n={self._n})"
        )
