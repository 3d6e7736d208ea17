"""The delta-aware estimation seam at the session level.

The acceptance bar of the incremental path is *byte-identity with the
batch oracle*: for every update-capable estimator, every built-in data
set, and random ingest schedules, ``estimate(mode="delta")`` must
serialize to exactly the bytes ``estimate(mode="batch")`` does at the
same ``state_version``.  No ``approx`` anywhere.
"""

from __future__ import annotations

import json
import random
import sys
import threading

import pytest

from repro.api.session import OpenWorldSession
from repro.api.specs import EstimatorSpec, describe_estimators, incremental_estimators
from repro.core.naive import NaiveEstimator
from repro.data.records import Observation
from repro.datasets.registry import available_datasets, load_dataset
from repro.storage import store as store_module
from repro.storage.store import DiskStore
from repro.utils.exceptions import ValidationError


def envelope_bytes(estimate) -> bytes:
    """Canonical serialized envelope of one estimate."""
    return json.dumps(estimate.to_dict(), sort_keys=True).encode("utf-8")


def random_chunks(stream, rng):
    """Split the arrival-ordered stream into randomly sized ingest commits."""
    position = 0
    while position < len(stream):
        size = rng.randint(1, 40)
        yield stream[position : position + size]
        position += size


class TestParityMatrix:
    @pytest.mark.parametrize("dataset_name", available_datasets())
    @pytest.mark.parametrize("spec", incremental_estimators())
    def test_delta_envelopes_byte_identical_to_batch(self, spec, dataset_name):
        dataset = load_dataset(dataset_name)
        rng = random.Random(hash((spec, dataset_name)) & 0xFFFF)
        session = OpenWorldSession(dataset.attribute, estimator=spec)
        for chunk in random_chunks(dataset.run.stream, rng):
            session.ingest(chunk)
            delta = session.estimate(spec=spec, mode="delta")
            batch = session.estimate(spec=spec, mode="batch")
            assert envelope_bytes(delta) == envelope_bytes(batch), (
                f"{spec} diverged on {dataset_name} at "
                f"state_version {session.state_version}"
            )

    def test_parity_after_many_commits_between_delta_reads(self):
        # The open state advances at every ingest, read or not.
        dataset = load_dataset("us-tech-employment")
        session = OpenWorldSession(dataset.attribute, estimator="naive")
        stream = dataset.run.stream
        session.ingest(stream[:100])
        session.estimate(mode="delta")  # open the state at version 1
        for row in stream[100:300]:  # 200 one-row commits, no read between
            session.ingest([row])
        delta = session.estimate(mode="delta")
        batch = session.estimate(mode="batch")
        assert envelope_bytes(delta) == envelope_bytes(batch)

    def test_one_state_serves_every_spec_at_every_version(self):
        dataset = load_dataset("us-tech-revenue")
        rng = random.Random(29)
        session = OpenWorldSession(dataset.attribute, estimator="naive")
        specs = ("naive", "frequency", "frequency-uniform", "bucket/frequency")
        states = set()
        for chunk in random_chunks(dataset.run.stream, rng):
            session.ingest(chunk)
            for spec in rng.sample(specs, len(specs)):
                delta = session.estimate(spec=spec, mode="delta")
                batch = session.estimate(spec=spec, mode="batch")
                assert envelope_bytes(delta) == envelope_bytes(batch), (
                    f"{spec} diverged at state_version {session.state_version}"
                )
                states.add(id(session._delta_state))
        assert len(states) == 1

    def test_concurrent_delta_reads_share_the_lazy_sums(self):
        # The promotion leaves the singleton sum to re-sum on the next
        # read; every thread's read races for it on the one state.
        session = OpenWorldSession("v", estimator="frequency")
        session.ingest([Observation(f"e{i}", {"v": 0.1 * i + 0.01}, "s1") for i in range(60)])
        session.ingest([Observation("e1", {"v": 0.11}, "s2")])
        session.estimate(mode="delta")  # open the state
        session.ingest(
            [Observation("e30", {"v": 3.01}, "s3"), Observation("e60", {"v": 6.01}, "s3")]
        )
        specs = ("frequency", "frequency-uniform")
        expected = {
            spec: envelope_bytes(session.estimate(spec=spec, mode="batch")) for spec in specs
        }
        barrier = threading.Barrier(8)
        answers: list = []

        def read(spec):
            barrier.wait(timeout=10)
            answers.append((spec, envelope_bytes(session.estimate(spec=spec, mode="delta"))))

        threads = [threading.Thread(target=read, args=(specs[i % 2],)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(answers) == 8
        for spec, answer in answers:
            assert answer == expected[spec], spec

    def test_disk_session_keeps_parity_across_seal_and_reattach(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "SEAL_ROWS", 50)  # ingests seal mid-stream
        dataset = load_dataset("us-tech-employment")
        stream = dataset.run.stream
        session = OpenWorldSession(
            dataset.attribute,
            estimator="frequency",
            store=DiskStore(tmp_path / "s", fsync="never"),
        )

        def assert_parity(each):
            for spec in ("naive", "frequency", "bucket/frequency"):
                assert envelope_bytes(each.estimate(spec=spec, mode="delta")) == envelope_bytes(
                    each.estimate(spec=spec, mode="batch")
                ), (spec, each.state_version)

        session.ingest(stream[:40])
        assert_parity(session)  # opens the state
        for start in range(40, 200, 20):
            session.ingest(stream[start : start + 20])
            assert_parity(session)
        assert list((tmp_path / "s").glob("seg-*.seg")), "no ingest sealed"
        assert session.store.seal()
        session.ingest(stream[200:230])
        assert_parity(session)
        before = envelope_bytes(session.estimate(mode="delta"))
        session.close()
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "s", fsync="never"))
        assert envelope_bytes(attached.estimate(mode="delta")) == before
        for start in range(230, 290, 15):
            attached.ingest(stream[start : start + 15])
            assert_parity(attached)
        attached.close()

    def test_auto_mode_is_byte_identical_on_both_kinds(self):
        dataset = load_dataset("us-gdp")
        session = OpenWorldSession(dataset.attribute, estimator="naive")
        session.ingest(dataset.run.stream[:80])
        assert envelope_bytes(
            session.estimate(spec="naive", mode="auto")
        ) == envelope_bytes(session.estimate(spec="naive", mode="batch"))
        # Not update-capable: auto silently uses the batch path.  Monte-
        # Carlo stamps its wall time into the payload, so compare
        # everything but the runtime block (this nondeterminism is exactly
        # why the estimator is excluded from the incremental seam).
        auto = session.estimate(spec="monte-carlo?seed=7&n_runs=5", mode="auto").to_dict()
        batch = session.estimate(spec="monte-carlo?seed=7&n_runs=5", mode="batch").to_dict()
        auto.pop("runtime")
        batch.pop("runtime")
        assert auto == batch


class TestDeltaValidation:
    @pytest.fixture
    def session(self):
        dataset = load_dataset("us-gdp")
        session = OpenWorldSession(dataset.attribute, estimator="naive")
        session.ingest(dataset.run.stream[:60])
        return session

    def test_delta_on_batch_only_estimator_is_rejected(self, session):
        with pytest.raises(ValidationError) as excinfo:
            session.estimate(spec="monte-carlo", mode="delta")
        message = str(excinfo.value)
        # The error must list the update-capable estimators, not just say no.
        for name in incremental_estimators():
            assert name in message
        assert "monte-carlo" in message

    def test_validate_delta_matches_estimate_behaviour(self, session):
        session.validate_delta("naive")  # no raise
        with pytest.raises(ValidationError):
            session.validate_delta("monte-carlo")

    def test_delta_for_foreign_attribute_is_rejected(self, session):
        with pytest.raises(ValidationError):
            session.estimate(attribute="other", spec="naive", mode="delta")

    def test_delta_with_estimator_instance_equals_batch(self, session):
        # Every estimator reads the session's one state, whoever built it.
        delta = session.estimate(spec=NaiveEstimator(), mode="delta")
        assert envelope_bytes(delta) == envelope_bytes(
            session.estimate(spec="naive", mode="batch")
        )

    def test_unknown_mode_is_rejected(self, session):
        with pytest.raises(ValidationError):
            session.estimate(spec="naive", mode="speculative")


class TestCapabilityIntrospection:
    def test_describe_estimators_reports_supports_updates(self):
        described = describe_estimators()
        assert described["naive"]["supports_updates"] is True
        assert described["frequency"]["supports_updates"] is True
        assert described["monte-carlo"]["supports_updates"] is False

    def test_incremental_estimators_excludes_batch_only(self):
        names = incremental_estimators()
        assert "naive" in names and "frequency" in names
        assert "monte-carlo" not in names
        assert names == sorted(names)

    def test_spec_supports_updates_composes_through_chains(self):
        assert EstimatorSpec.of("naive").supports_updates() is True
        assert EstimatorSpec.of("bucket/frequency").supports_updates() is True
        assert EstimatorSpec.of("monte-carlo").supports_updates() is False
        assert EstimatorSpec.of("bucket/monte-carlo").supports_updates() is False
