"""Parity tests for the incremental sample state and the estimator seam.

The delta path's whole contract is *bit-identity with the batch path*
(the batch estimator stays the parity oracle -- see
:mod:`repro.core.incremental`).  These tests compare every maintained
quantity and every incremental estimate against a fresh batch
computation over the equivalent sample with ``==``, never ``approx``.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.bucket import BucketEstimator
from repro.core.estimator import SumEstimator
from repro.core.frequency import FrequencyEstimator
from repro.core.fstatistics import FrequencyStatistics
from repro.core.incremental import IncrementalSampleState
from repro.core.montecarlo import MonteCarloEstimator
from repro.core.naive import NaiveEstimator
from repro.data.sample import ObservedSample
from repro.utils.exceptions import EstimationError


def sample_from(counts_values, attribute="v"):
    """ObservedSample from ordered (entity, value, count) triples."""
    return ObservedSample.from_entity_values(counts_values, attribute=attribute)


class Ledger:
    """Grows a sample the way the session's ingest commits do.

    Tracks entity order / counts / values, returns the matching
    ``(appended, reobserved)`` digest per commit (the arguments of
    :meth:`IncrementalSampleState.apply`), and can materialize the
    equivalent batch :class:`ObservedSample` at any point -- the oracle
    the incremental state must match bit for bit.
    """

    def __init__(self):
        self.order: list[str] = []
        self.counts: dict[str, int] = {}
        self.values: dict[str, float] = {}

    def commit(self, rows):
        """rows: (entity_id, value) pairs; returns ``(appended, reobserved)``."""
        appended = []
        reobserved = []
        for entity_id, value in rows:
            if entity_id in self.counts:
                self.counts[entity_id] += 1
                reobserved.append(entity_id)
            else:
                self.order.append(entity_id)
                self.counts[entity_id] = 1
                self.values[entity_id] = float(value)
                appended.append((entity_id, float(value)))
        return appended, reobserved

    def batch_sample(self, attribute="v"):
        return sample_from(
            [(e, self.values[e], self.counts[e]) for e in self.order],
            attribute=attribute,
        )


class TestIncrementalSampleState:
    def test_seeded_state_matches_sample_exactly(self):
        sample = sample_from([("a", 10.0, 1), ("b", 20.0, 3), ("c", 5.5, 1)])
        state = IncrementalSampleState(sample, "v")
        assert state.c == sample.c
        assert state.n == sample.n
        assert state.observed_sum() == sample.sum("v")
        assert state.singleton_sum() == sample.singleton_sum("v")
        assert state.statistics() == FrequencyStatistics.from_sample(sample)

    def test_apply_appended_and_reobserved_matches_batch(self):
        ledger = Ledger()
        ledger.commit([("a", 10.0), ("b", 20.0), ("a", 10.0)])
        state = IncrementalSampleState(ledger.batch_sample(), "v")
        appended, reobserved = ledger.commit([("c", 7.0), ("b", 20.0), ("d", 1.5)])
        assert appended == [("c", 7.0), ("d", 1.5)] and reobserved == ["b"]
        state.apply(appended, reobserved)
        batch = ledger.batch_sample()
        assert state.c == batch.c and state.n == batch.n
        assert state.observed_sum() == batch.sum("v")
        assert state.singleton_sum() == batch.singleton_sum("v")
        assert state.statistics() == FrequencyStatistics.from_sample(batch)

    def test_promoted_singleton_marks_stale_then_resums_exactly(self):
        ledger = Ledger()
        ledger.commit([("a", 0.1), ("b", 0.2), ("c", 0.3)])
        state = IncrementalSampleState(ledger.batch_sample(), "v")
        # "b" leaves the middle of the singleton summation order.
        state.apply(*ledger.commit([("b", 0.2)]))
        batch = ledger.batch_sample()
        assert state.singleton_sum() == batch.singleton_sum("v")
        # A fresh singleton after the re-sum extends the running total.
        state.apply(*ledger.commit([("d", 0.4)]))
        assert state.singleton_sum() == ledger.batch_sample().singleton_sum("v")

    def test_value_buffer_growth_preserves_pairwise_sum(self):
        # Exceed the initial buffer capacity so the grow path runs, then
        # check the maintained sum still equals NumPy's pairwise batch sum.
        ledger = Ledger()
        ledger.commit([("seed", 1.0)])
        state = IncrementalSampleState(ledger.batch_sample(), "v")
        for start in range(0, 600, 75):
            rows = [(f"e{i}", 0.1 * (i % 13) + 0.01) for i in range(start, start + 75)]
            state.apply(*ledger.commit(rows))
        batch = ledger.batch_sample()
        assert state.c == batch.c
        assert state.observed_sum() == batch.sum("v")
        assert state.singleton_sum() == batch.singleton_sum("v")

    def test_maintained_sample_matches_batch_counts_and_values(self):
        # The bucket estimator's delta path decomposes this sample.
        ledger = Ledger()
        ledger.commit([("a", 1.5), ("b", -0.0), ("a", 1.5)])
        state = IncrementalSampleState(ledger.batch_sample(), "v")
        state.apply(*ledger.commit([("c", 2.5), ("b", -0.0), ("c", 2.5), ("d", 4.0)]))
        sample, batch = state.sample(), ledger.batch_sample()
        assert sample.counts == batch.counts
        assert list(sample.counts) == list(batch.counts)
        assert sample.values_by_entity() == batch.values_by_entity()
        assert math.copysign(1.0, sample.value("b", "v")) == -1.0


class TestEstimatorSeam:
    def test_base_class_declares_no_update_support(self):
        class Minimal(SumEstimator):
            name = "minimal"

            def estimate(self, sample, attribute):  # pragma: no cover
                raise NotImplementedError

        estimator = Minimal()
        assert estimator.supports_updates is False
        sample = sample_from([("a", 1.0, 1)])
        with pytest.raises(EstimationError):
            estimator.begin(sample, "v")
        with pytest.raises(EstimationError):
            estimator.update(IncrementalSampleState(sample, "v"))

    def test_begin_checks_the_attribute(self):
        sample = sample_from([("a", 1.0, 1), ("b", 2.0, 2)])
        with pytest.raises(EstimationError):
            NaiveEstimator().begin(sample, "missing")

    def test_bucket_over_a_batch_only_base_refuses_to_begin(self):
        estimator = BucketEstimator(base=MonteCarloEstimator())
        assert estimator.supports_updates is False
        with pytest.raises(EstimationError):
            estimator.begin(sample_from([("a", 1.0, 1), ("b", 2.0, 2)]), "v")

    @pytest.mark.parametrize(
        "estimator_cls", [NaiveEstimator, FrequencyEstimator, BucketEstimator]
    )
    def test_update_bit_identical_to_batch_over_random_schedule(self, estimator_cls):
        rng = random.Random(20260807)
        estimator = estimator_cls()
        assert estimator.supports_updates is True
        ledger = Ledger()
        ledger.commit(
            [(f"e{i}", float(1 + i % 7)) for i in range(10)]
            + [("e0", 1.0), ("e1", 2.0)]
        )
        state = estimator.begin(ledger.batch_sample(), "v")
        assert estimator.update(state).to_dict() == estimator.estimate(
            ledger.batch_sample(), "v"
        ).to_dict()
        pool = [f"e{i}" for i in range(40)]
        for _ in range(12):
            chosen = [rng.choice(pool) for _ in range(rng.randint(1, 9))]
            rows = [(entity, float(1 + int(entity[1:]) % 7)) for entity in chosen]
            state.apply(*ledger.commit(rows))
            incremental = estimator.update(state)
            batch = estimator.estimate(ledger.batch_sample(), "v")
            assert incremental.to_dict() == batch.to_dict()
