"""Tests for the multi-source sampling process."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.records import Observation
from repro.simulation.population import linear_value_population
from repro.simulation.publicity import ExponentialPublicity
from repro.simulation.sampler import (
    MultiSourceSampler,
    SamplingRun,
    simulate_integration,
)
from repro.utils.exceptions import InsufficientDataError, ValidationError


class TestDrawSource:
    def test_without_replacement(self):
        population = linear_value_population(size=30)
        sampler = MultiSourceSampler(population, "value")
        source = sampler.draw_source("s1", 20, rng=0)
        ids = source.entity_ids
        assert len(ids) == len(set(ids)) == 20

    def test_size_capped_at_population(self):
        population = linear_value_population(size=5)
        sampler = MultiSourceSampler(population, "value")
        source = sampler.draw_source("s1", 50, rng=0)
        assert source.size == 5

    def test_values_match_ground_truth(self):
        population = linear_value_population(size=10)
        sampler = MultiSourceSampler(population, "value")
        source = sampler.draw_source("s1", 5, rng=0)
        for obs in source:
            index = int(obs.entity_id.split("-")[1])
            assert obs.value("value") == pytest.approx(population[index].value("value"))

    def test_invalid_size(self):
        population = linear_value_population(size=5)
        sampler = MultiSourceSampler(population, "value")
        with pytest.raises(ValidationError):
            sampler.draw_source("s1", 0)

    def test_skewed_publicity_prefers_head(self):
        population = linear_value_population(size=100)
        sampler = MultiSourceSampler(
            population, "value", publicity=ExponentialPublicity(6.0)
        )
        run = sampler.run([10] * 40, seed=0)
        counts = run.sample().counts
        head = sum(counts.get(f"item-{i:04d}", 0) for i in range(10))
        tail = sum(counts.get(f"item-{i:04d}", 0) for i in range(90, 100))
        assert head > tail


class TestRun:
    def test_total_observations(self):
        population = linear_value_population(size=50)
        run = MultiSourceSampler(population, "value").run([10, 20, 5], seed=1)
        assert run.total_observations == 35
        assert len(run.sources) == 3

    def test_stream_sequence_is_global(self):
        population = linear_value_population(size=50)
        run = MultiSourceSampler(population, "value").run([5, 5], seed=1)
        assert [obs.sequence for obs in run.stream] == list(range(10))

    def test_sample_at_prefix(self):
        population = linear_value_population(size=50)
        run = MultiSourceSampler(population, "value").run([20, 20], seed=2)
        partial = run.sample_at(10)
        assert partial.n == 10
        full = run.sample()
        assert full.n == 40

    def test_sample_at_bounds(self):
        population = linear_value_population(size=50)
        run = MultiSourceSampler(population, "value").run([10], seed=2)
        with pytest.raises(ValidationError):
            run.sample_at(0)
        assert run.sample_at(10_000).n == 10

    def test_prefix_sizes(self):
        population = linear_value_population(size=50)
        run = MultiSourceSampler(population, "value").run([10, 10], seed=2)
        assert run.prefix_sizes(5) == [5, 10, 15, 20]
        assert run.prefix_sizes(7) == [7, 14, 20]

    def test_arrival_sequential_keeps_source_order(self):
        population = linear_value_population(size=50)
        run = MultiSourceSampler(population, "value").run(
            [5, 5], seed=3, arrival="sequential"
        )
        first_half_sources = {obs.source_id for obs in run.stream[:5]}
        assert first_half_sources == {"source-000"}

    def test_arrival_roundrobin_alternates(self):
        population = linear_value_population(size=50)
        run = MultiSourceSampler(population, "value").run(
            [3, 3], seed=3, arrival="roundrobin"
        )
        sources = [obs.source_id for obs in run.stream]
        assert sources[:4] == ["source-000", "source-001", "source-000", "source-001"]

    def test_unknown_arrival_mode(self):
        population = linear_value_population(size=50)
        with pytest.raises(ValidationError):
            MultiSourceSampler(population, "value").run([5], arrival="chaotic")

    def test_deterministic_with_seed(self):
        population = linear_value_population(size=50)
        sampler = MultiSourceSampler(population, "value")
        a = [obs.entity_id for obs in sampler.run([10] * 3, seed=7).stream]
        b = [obs.entity_id for obs in sampler.run([10] * 3, seed=7).stream]
        assert a == b

    def test_empty_source_sizes_rejected(self):
        population = linear_value_population(size=10)
        with pytest.raises(ValidationError):
            MultiSourceSampler(population, "value").run([])

    def test_missing_attribute_rejected(self):
        population = linear_value_population(size=10)
        with pytest.raises(Exception):
            MultiSourceSampler(population, "missing")


class TestOrderingPerformance:
    """Regression guard: stream ordering must stay linear in the stream size.

    The original roundrobin/interleaved implementations shuffled Python
    queues with ``list.pop(0)``, which is O(n²) and took tens of seconds at
    50k observations; the permutation-based ordering must handle the same
    volume in well under a second.
    """

    @staticmethod
    def _big_sources(n_sources: int, per_source: int) -> list:
        from repro.data.sources import DataSource

        return [
            DataSource(
                f"source-{j:03d}",
                [
                    Observation(
                        entity_id=f"e-{j}-{i}",
                        attributes={"v": float(i)},
                        source_id=f"source-{j:03d}",
                    )
                    for i in range(per_source)
                ],
            )
            for j in range(n_sources)
        ]

    @pytest.mark.parametrize("arrival", ["roundrobin", "interleaved"])
    def test_orders_50k_observations_fast(self, arrival):
        import time

        sources = self._big_sources(n_sources=5, per_source=10_000)
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        stream = MultiSourceSampler._order_stream(sources, arrival, rng)
        elapsed = time.perf_counter() - start
        assert len(stream) == 50_000
        assert [obs.sequence for obs in stream[:3]] == [0, 1, 2]
        assert elapsed < 1.0

    def test_interleaved_preserves_within_source_order(self):
        sources = self._big_sources(n_sources=3, per_source=200)
        rng = np.random.default_rng(1)
        stream = MultiSourceSampler._order_stream(sources, "interleaved", rng)
        positions: dict[str, list[int]] = {}
        for obs in stream:
            positions.setdefault(obs.source_id, []).append(
                int(obs.entity_id.rsplit("-", 1)[1])
            )
        for per_source in positions.values():
            assert per_source == sorted(per_source)
        # All three sources genuinely interleave rather than run sequentially.
        first_300 = {obs.source_id for obs in stream[:300]}
        assert len(first_300) == 3


def _stream_run(observations):
    """A run over a hand-written stream (the population is not consulted)."""
    return SamplingRun(
        population=linear_value_population(size=3),
        attribute="v",
        stream=list(observations),
    )


class TestSample:
    def test_counts_and_source_sizes(self):
        observations = [
            Observation("a", {"v": 1.0}, source_id="s1"),
            Observation("b", {"v": 2.0}, source_id="s1"),
            Observation("a", {"v": 1.0}, source_id="s2"),
        ]
        sample = _stream_run(observations).sample()
        assert sample.count("a") == 2
        assert sample.source_sizes == (2, 1)

    def test_empty_stream_rejected(self):
        with pytest.raises(InsufficientDataError):
            _stream_run([]).sample()

    def test_first_value_wins(self):
        observations = [
            Observation("a", {"v": 1.0}, source_id="s1"),
            Observation("a", {"v": 99.0}, source_id="s2"),
        ]
        sample = _stream_run(observations).sample()
        assert sample.value("a", "v") == pytest.approx(1.0)


class TestSimulateIntegration:
    def test_convenience_wrapper(self):
        population = linear_value_population(size=40)
        run = simulate_integration(population, "value", n_sources=4, source_size=10, seed=5)
        assert run.total_observations == 40
        assert len(run.sources) == 4

    def test_invalid_source_count(self):
        population = linear_value_population(size=40)
        with pytest.raises(ValidationError):
            simulate_integration(population, "value", n_sources=0, source_size=10)
