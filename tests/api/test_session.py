"""Tests for the OpenWorldSession facade (incremental ingestion, parity)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import OpenWorldSession, SessionSnapshot
from repro.core.fstatistics import FrequencyStatistics
from repro.data.records import Observation
from repro.datasets.registry import available_datasets, load_dataset
from repro.utils.exceptions import InsufficientDataError, ValidationError


def _ingest_in_chunks(session: OpenWorldSession, stream, chunk: int) -> None:
    for start in range(0, len(stream), chunk):
        session.ingest(stream[start : start + chunk])


def _assert_estimates_identical(a, b):
    """Bit-identical comparison of two Estimate objects."""
    for field in (
        "observed",
        "delta",
        "corrected",
        "count_estimate",
        "missing_count",
        "value_estimate",
        "coverage",
        "cv_squared",
    ):
        left, right = getattr(a, field), getattr(b, field)
        if np.isnan(left) and np.isnan(right):
            continue
        assert left == right, f"{field}: {left!r} != {right!r}"


class TestIncrementalParity:
    """Satellite: chunked ingest must equal one-shot batch construction."""

    @pytest.mark.parametrize("name", sorted(available_datasets()))
    def test_chunked_sample_identical_to_batch(self, name):
        dataset = load_dataset(name)
        batch = dataset.sample()
        session = OpenWorldSession(dataset.attribute)
        _ingest_in_chunks(session, dataset.run.stream, chunk=37)
        incremental = session.sample()
        # Same entities in the same first-seen order, same counts, same
        # source sizes -- the sample is bit-identical.
        assert incremental.counts == batch.counts
        assert list(incremental.counts) == list(batch.counts)
        assert incremental.source_sizes == batch.source_sizes
        assert np.array_equal(
            incremental.values(dataset.attribute), batch.values(dataset.attribute)
        )

    @pytest.mark.parametrize("name", sorted(available_datasets()))
    def test_chunked_estimates_identical_to_batch(self, name):
        dataset = load_dataset(name)
        session = OpenWorldSession(dataset.attribute, estimator="frequency")
        _ingest_in_chunks(session, dataset.run.stream, chunk=41)
        batch = OpenWorldSession.from_sample(
            dataset.sample(), dataset.attribute, estimator="frequency"
        )
        _assert_estimates_identical(session.estimate(), batch.estimate())

    @pytest.mark.parametrize(
        "spec",
        ["bucket", "naive", "monte-carlo?n_runs=2&n_count_steps=4"],
    )
    def test_us_tech_employment_parity_across_estimators(self, spec):
        # The acceptance-criterion dataset, across estimator families.
        dataset = load_dataset("us-tech-employment")
        session = OpenWorldSession(dataset.attribute)
        _ingest_in_chunks(session, dataset.run.stream, chunk=73)
        batch = OpenWorldSession.from_sample(dataset.sample(), dataset.attribute)
        _assert_estimates_identical(
            session.estimate(spec=spec), batch.estimate(spec=spec)
        )

    def test_chunk_size_does_not_matter(self):
        dataset = load_dataset("us-gdp")
        estimates = []
        for chunk in (1, 7, len(dataset.run.stream)):
            session = OpenWorldSession(dataset.attribute)
            _ingest_in_chunks(session, dataset.run.stream, chunk=chunk)
            estimates.append(session.estimate(spec="bucket"))
        _assert_estimates_identical(estimates[0], estimates[1])
        _assert_estimates_identical(estimates[0], estimates[2])


class TestIncrementalStatistics:
    def test_frequency_histogram_maintained_incrementally(self):
        dataset = load_dataset("us-gdp")
        session = OpenWorldSession(dataset.attribute)
        _ingest_in_chunks(session, dataset.run.stream, chunk=11)
        maintained = session.statistics()
        recomputed = FrequencyStatistics.from_sample(session.sample())
        assert maintained.frequencies == recomputed.frequencies
        assert maintained.n == recomputed.n == session.n
        assert maintained.c == recomputed.c == session.c

    def test_counters_track_stream(self):
        session = OpenWorldSession("x")
        session.ingest(
            Observation(entity_id="a", attributes={"x": 1.0}, source_id="s1")
        )
        session.ingest(
            [
                Observation(entity_id="a", attributes={"x": 1.0}, source_id="s2"),
                Observation(entity_id="b", attributes={"x": 2.0}, source_id="s2"),
            ]
        )
        assert session.n == 3
        assert session.c == 2
        assert session.n_ingested == 3
        assert session.source_sizes == (1, 2)

    def test_first_seen_value_wins(self):
        session = OpenWorldSession("x")
        session.ingest(
            [
                Observation(entity_id="a", attributes={"x": 5.0}, source_id="s1"),
                Observation(entity_id="a", attributes={"x": 9.0}, source_id="s2"),
            ]
        )
        assert session.sample().value("a", "x") == 5.0


class TestQuery:
    def test_query_matches_estimate(self):
        dataset = load_dataset("us-gdp")
        session = OpenWorldSession.from_sample(
            dataset.sample(), dataset.attribute, estimator="bucket"
        )
        estimate = session.estimate()
        answer = session.query(f"SELECT SUM({dataset.attribute}) FROM data")
        assert answer.corrected == pytest.approx(estimate.corrected)
        assert answer.observed == pytest.approx(estimate.observed)

    def test_closed_world_query(self):
        dataset = load_dataset("us-gdp")
        session = OpenWorldSession.from_sample(dataset.sample(), dataset.attribute)
        answer = session.query(
            f"SELECT SUM({dataset.attribute}) FROM data", closed_world=True
        )
        assert answer.corrected == answer.observed

    def test_custom_table_name(self):
        dataset = load_dataset("us-gdp")
        session = OpenWorldSession.from_sample(
            dataset.sample(), dataset.attribute, table_name="states"
        )
        answer = session.query("SELECT COUNT(*) FROM states")
        assert answer.corrected >= answer.observed

    def test_per_call_spec_override(self):
        dataset = load_dataset("us-gdp")
        session = OpenWorldSession.from_sample(dataset.sample(), dataset.attribute)
        naive = session.estimate(spec="naive")
        assert naive.estimator == "naive"


class TestSnapshotRestore:
    def test_mid_stream_snapshot_restore_is_bit_identical(self):
        dataset = load_dataset("us-tech-employment")
        stream = dataset.run.stream
        half = len(stream) // 2

        uninterrupted = OpenWorldSession(dataset.attribute)
        uninterrupted.ingest(stream)

        first = OpenWorldSession(dataset.attribute)
        first.ingest(stream[:half])
        payload = json.dumps(first.snapshot().to_dict())
        resumed = OpenWorldSession.restore(json.loads(payload))
        resumed.ingest(stream[half:])

        _assert_estimates_identical(
            resumed.estimate(spec="bucket"), uninterrupted.estimate(spec="bucket")
        )
        assert resumed.sample().counts == uninterrupted.sample().counts
        assert resumed.sample().source_sizes == uninterrupted.sample().source_sizes

    def test_snapshot_preserves_configuration(self):
        session = OpenWorldSession(
            "x", table_name="things", estimator="frequency", count_method="chao92"
        )
        session.ingest(
            Observation(entity_id="a", attributes={"x": 1.0}, source_id="s")
        )
        snapshot = session.snapshot()
        assert isinstance(snapshot, SessionSnapshot)
        restored = OpenWorldSession.restore(snapshot)
        assert restored.attribute == "x"
        assert restored.table_name == "things"
        assert restored.default_spec.to_string() == "frequency"
        assert restored.n_ingested == 1

    def test_snapshot_dict_round_trip(self):
        session = OpenWorldSession("x")
        session.ingest(
            Observation(entity_id="a", attributes={"x": 1.5}, source_id="s")
        )
        payload = session.snapshot().to_dict()
        assert payload["schema"] == "repro.result/v1"
        assert payload["kind"] == "session-snapshot"
        json.dumps(payload, allow_nan=False)
        rebuilt = SessionSnapshot.from_dict(payload)
        assert rebuilt == session.snapshot()

    @pytest.mark.parametrize("kind", ["ingested", "empty", "from-sample"])
    def test_every_written_envelope_round_trips(self, kind):
        if kind == "from-sample":
            dataset = load_dataset("us-gdp")
            session = OpenWorldSession.from_sample(dataset.sample(), dataset.attribute)
        else:
            session = OpenWorldSession("x")
        if kind == "ingested":
            session.ingest(
                [
                    Observation("a", {"x": 1.5}, "s1"),
                    Observation("a", {}, "s2"),
                    Observation("b", {"x": float("inf")}, "s2"),
                ]
            )
        payload = json.loads(json.dumps(session.snapshot().to_dict(), allow_nan=False))
        assert SessionSnapshot.from_dict(payload) == session.snapshot()
        assert OpenWorldSession.restore(payload).snapshot() == session.snapshot()

    def test_values_without_the_session_attribute_are_refused(self):
        session = OpenWorldSession("x")
        session.ingest(Observation("a", {"x": 1.5}, "s1"))
        payload = session.snapshot().to_dict()
        payload["values"]["a"] = {"y": 1.5}
        with pytest.raises(ValidationError, match="'x' included"):
            SessionSnapshot.from_dict(payload)

    def test_snapshot_of_instance_configured_session_rejected(self):
        from repro.core.naive import NaiveEstimator

        session = OpenWorldSession("x", estimator=NaiveEstimator())
        session.ingest(
            Observation(entity_id="a", attributes={"x": 1.0}, source_id="s")
        )
        with pytest.raises(ValidationError, match="spec"):
            session.snapshot()


class TestValidation:
    def test_empty_session_cannot_estimate(self):
        with pytest.raises(InsufficientDataError):
            OpenWorldSession("x").estimate()

    def test_empty_session_cannot_snapshot_sample(self):
        with pytest.raises(InsufficientDataError):
            OpenWorldSession("x").sample()

    def test_ingest_rejects_non_observations(self):
        with pytest.raises(ValidationError):
            OpenWorldSession("x").ingest(["not-an-observation"])

    def test_failed_ingest_is_atomic(self):
        """A bad observation must leave the session exactly as it was."""
        session = OpenWorldSession("x")
        session.ingest(
            Observation(entity_id="a", attributes={"x": 1.0}, source_id="s")
        )
        before = session.sample()
        bad_chunks = [
            [
                Observation(entity_id="b", attributes={"x": 2.0}, source_id="s"),
                "not-an-observation",
            ],
            [
                Observation(entity_id="b", attributes={"x": 2.0}, source_id="s"),
                Observation(entity_id="c", attributes={}, source_id="s"),
            ],
            [
                Observation(entity_id="c", attributes={"x": "n/a"}, source_id="s"),
            ],
        ]
        for chunk in bad_chunks:
            with pytest.raises(ValidationError):
                session.ingest(chunk)
            assert session.n == 1
            assert session.c == 1
            assert session.n_ingested == 1
        after = session.sample()
        assert after.counts == before.counts
        assert after.source_sizes == before.source_sizes
        # The session stays fully usable.
        session.ingest(
            Observation(entity_id="b", attributes={"x": 2.0}, source_id="s")
        )
        assert session.sample().counts == {"a": 1, "b": 1}

    def test_ingest_accepts_generators(self):
        session = OpenWorldSession("x")
        count = session.ingest(
            Observation(entity_id=f"e{i}", attributes={"x": float(i)}, source_id="s")
            for i in range(5)
        )
        assert count == 5
        assert session.c == 5

    def test_empty_attribute_rejected(self):
        with pytest.raises(ValidationError):
            OpenWorldSession("")

    def test_from_sample_requires_attribute_when_ambiguous(self, simple_sample):
        session = OpenWorldSession.from_sample(simple_sample)
        assert session.attribute == "value"

    def test_ingest_returns_zero_for_empty_chunk(self):
        session = OpenWorldSession("x")
        assert session.ingest([]) == 0


class TestParallelPassThrough:
    """Satellite: estimate() forwards backend/workers into the spec."""

    @pytest.fixture()
    def gdp_session(self):
        dataset = load_dataset("us-gdp")
        return OpenWorldSession.from_sample(dataset.sample(), dataset.attribute)

    def test_backend_passthrough_is_bit_identical(self, gdp_session):
        spec = "monte-carlo?seed=1&n_runs=2&n_count_steps=4"
        serial = gdp_session.estimate(spec=spec, backend="serial")
        parallel = gdp_session.estimate(spec=spec, backend="process", workers=2)
        _assert_estimates_identical(serial, parallel)
        assert serial.runtime["backend"] == "serial"
        assert parallel.runtime["backend"] == "process"
        assert parallel.runtime["n_workers"] == 2

    def test_passthrough_overrides_spec_parameter(self, gdp_session):
        estimate = gdp_session.estimate(
            spec="monte-carlo?seed=1&n_runs=2&backend=serial",
            backend="process",
            workers=2,
        )
        assert estimate.runtime["backend"] == "process"

    def test_passthrough_ignored_by_estimators_without_backend(self, gdp_session):
        estimate = gdp_session.estimate(spec="naive", backend="process", workers=2)
        assert estimate.estimator == "naive"
        assert estimate.runtime is None

    def test_passthrough_rejected_for_built_instances(self, gdp_session):
        from repro.core.naive import NaiveEstimator

        with pytest.raises(ValidationError, match="already-built"):
            gdp_session.estimate(spec=NaiveEstimator(), backend="process")

    def test_unknown_backend_rejected_with_choices(self, gdp_session):
        with pytest.raises(ValidationError, match="serial"):
            gdp_session.estimate(spec="monte-carlo", backend="warp-drive")


class TestStateVersion:
    """The monotonic version counter behind the serving layer's caching."""

    def observations(self):
        return [
            Observation("a", {"value": 1.0}, "s1"),
            Observation("b", {"value": 2.0}, "s1"),
        ]

    def test_fresh_session_starts_at_zero(self):
        assert OpenWorldSession("value").state_version == 0

    def test_every_committing_ingest_bumps_once(self):
        session = OpenWorldSession("value")
        session.ingest(self.observations())
        assert session.state_version == 1
        session.ingest(Observation("c", {"value": 3.0}, "s2"))
        assert session.state_version == 2

    def test_empty_chunk_does_not_bump(self):
        session = OpenWorldSession("value")
        session.ingest(self.observations())
        session.ingest([])
        assert session.state_version == 1

    def test_failed_ingest_does_not_bump(self):
        session = OpenWorldSession("value")
        session.ingest(self.observations())
        with pytest.raises(ValidationError):
            session.ingest([Observation("d", {}, "s3")])  # no 'value'
        assert session.state_version == 1

    def test_snapshot_carries_and_restore_preserves_version(self):
        session = OpenWorldSession("value")
        session.ingest(self.observations())
        session.ingest(Observation("c", {"value": 3.0}, "s2"))
        snapshot = session.snapshot()
        assert snapshot.state_version == 2
        restored = OpenWorldSession.restore(snapshot)
        assert restored.state_version == 2
        restored.ingest(Observation("d", {"value": 4.0}, "s2"))
        assert restored.state_version == 3

    def test_snapshot_payloads_without_version_are_refused(self):
        session = OpenWorldSession("value")
        session.ingest(self.observations())
        payload = session.snapshot().to_dict()
        del payload["state_version"]  # what no snapshot() writes
        with pytest.raises(ValidationError, match="exactly the fields"):
            SessionSnapshot.from_dict(payload)


class TestEstimatorCacheBound:
    """The built-estimator cache is LRU-bounded with shared counters."""

    def test_cache_reuses_built_estimators(self):
        session = OpenWorldSession("value")
        session.ingest([Observation("a", {"value": 1.0}, "s1")])
        session.estimate(spec="naive")
        session.estimate(spec="naive")
        stats = session.estimator_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_cache_is_bounded(self):
        from repro.api.session import DEFAULT_ESTIMATOR_CACHE_SIZE

        session = OpenWorldSession("value")
        session.ingest([Observation("a", {"value": 1.0}, "s1")])
        for seed in range(DEFAULT_ESTIMATOR_CACHE_SIZE + 5):
            session.estimate(
                spec=f"monte-carlo?seed={seed}&n_runs=1&n_count_steps=2"
            )
        stats = session.estimator_cache_stats()
        assert stats["size"] <= DEFAULT_ESTIMATOR_CACHE_SIZE
        assert stats["evictions"] == 5
