"""The one prefix replay: ``SamplingRun.samples_at`` folds the stream once."""

from __future__ import annotations

import pytest

from repro.api.session import OpenWorldSession
from repro.simulation.population import linear_value_population
from repro.simulation.sampler import MultiSourceSampler, SamplingRun
from repro.utils.exceptions import InsufficientDataError, ValidationError


@pytest.fixture
def run():
    population = linear_value_population(size=50)
    return MultiSourceSampler(population, "value").run([15] * 6, seed=9)


def _samples_equal(a, b) -> bool:
    return (
        list(a.counts.items()) == list(b.counts.items())
        and a.source_sizes == b.source_sizes
        and all(
            a.value(eid, "value") == b.value(eid, "value") for eid in a.entity_ids
        )
    )


def _reintegrate(observations):
    """Hand-rolled first-seen integration: (counts, first values, source sizes)."""
    counts, values, per_source = {}, {}, {}
    for obs in observations:
        counts[obs.entity_id] = counts.get(obs.entity_id, 0) + 1
        values.setdefault(obs.entity_id, obs.value("value"))
        per_source[obs.source_id] = per_source.get(obs.source_id, 0) + 1
    return counts, values, tuple(per_source.values())


class TestSamplesAt:
    def test_matches_full_reintegration_at_every_prefix(self, run):
        sizes = [1, 7, 30, 55, 90]
        for size, sample in zip(sizes, run.samples_at(sizes)):
            counts, values, source_sizes = _reintegrate(run.stream[:size])
            assert list(sample.counts.items()) == list(counts.items())
            assert sample.source_sizes == source_sizes
            assert {e: sample.value(e, "value") for e in sample.entity_ids} == values

    def test_samples_at_matches_sample_at(self, run):
        sizes = run.prefix_sizes(10)
        incremental = run.samples_at(sizes)
        for size, sample in zip(sizes, incremental):
            assert _samples_equal(sample, run.sample_at(size))

    def test_matches_chunked_session_ingest(self, run):
        """The replay the runner ran before: a session ingesting each new slice."""
        sizes = run.prefix_sizes(13)
        session = OpenWorldSession("value")
        position = 0
        for size, sample in zip(sizes, run.samples_at(sizes)):
            session.ingest(run.stream[position:size])
            position = size
            assert _samples_equal(sample, session.sample())

    def test_snapshots_are_independent(self, run):
        early, late = run.samples_at([10, 90])
        assert early.n == 10
        assert late.n == 90

    def test_equal_sizes_give_equal_independent_samples(self, run):
        first, second = run.samples_at([30, 30])
        assert first is not second
        assert _samples_equal(first, second)

    def test_clamps_beyond_stream_end(self, run):
        (sample,) = run.samples_at([10_000])
        assert sample.n == run.total_observations

    def test_empty_stream_rejected(self, run):
        empty = SamplingRun(population=run.population, attribute="value")
        with pytest.raises(InsufficientDataError):
            empty.samples_at([5])

    def test_samples_at_validates_sizes(self, run):
        with pytest.raises(ValidationError):
            run.samples_at([0, 10])
        with pytest.raises(ValidationError):
            run.samples_at([20, 10])

    def test_stream_is_read_once(self, run):
        class CountingStream(list):
            def __init__(self, items):
                super().__init__(items)
                self.passes = 0
                self.reads = 0

            def __iter__(self):
                self.passes += 1
                for item in super().__iter__():
                    self.reads += 1
                    yield item

        run.stream = CountingStream(run.stream)
        run.samples_at([10, 40, 90])
        assert (run.stream.passes, run.stream.reads) == (1, 90)
