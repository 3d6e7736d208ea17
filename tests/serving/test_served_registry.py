"""Tests for ServedSession / SessionRegistry: caching, coalescing, state."""

from __future__ import annotations

import json
import threading

import pytest

from serving_helpers import SIX_ROWS, CountingEstimator, make_observations
from repro.api.session import OpenWorldSession
from repro.parallel import shutdown_backends
from repro.serving.registry import (
    DuplicateSessionError,
    SessionRegistry,
    UnknownSessionError,
)
from repro.utils.exceptions import ValidationError


def registry_with_session(**kwargs):
    registry = SessionRegistry(**kwargs)
    served = registry.create("s", "value", estimator="bucket/frequency")
    served.ingest(make_observations(SIX_ROWS))
    return registry, served


class TestLifecycle:
    def test_create_get_remove(self):
        registry = SessionRegistry()
        registry.create("one", "value")
        assert registry.names() == ["one"]
        assert registry.get("one").info()["attribute"] == "value"
        registry.remove("one")
        assert len(registry) == 0

    def test_duplicate_name_is_conflict(self):
        registry = SessionRegistry()
        registry.create("one", "value")
        with pytest.raises(DuplicateSessionError):
            registry.create("one", "value")

    def test_unknown_session(self):
        with pytest.raises(UnknownSessionError):
            SessionRegistry().get("ghost")
        with pytest.raises(UnknownSessionError):
            SessionRegistry().remove("ghost")

    @pytest.mark.parametrize("name", ["", ".hidden", "a/b", "x" * 65, "sp ace"])
    def test_invalid_names_rejected(self, name):
        with pytest.raises(ValidationError, match="session name"):
            SessionRegistry().create(name, "value")


class TestPersistedLifecycle:
    """Creates on a persisted registry own their name before any file."""

    def test_duplicate_create_is_409_and_keeps_the_store(self, tmp_path):
        registry = SessionRegistry(state_dir=tmp_path)
        served = registry.create("s", "value", estimator="bucket/frequency")
        served.ingest(make_observations(SIX_ROWS[:2]))
        with pytest.raises(DuplicateSessionError, match="^session 's' already exists$"):
            registry.create("s", "value", estimator="naive")
        served.ingest(make_observations(SIX_ROWS[2:]))
        reloaded = SessionRegistry(state_dir=tmp_path)
        assert reloaded.load_state() == ["s"]
        assert reloaded.get("s").snapshot_payload() == served.snapshot_payload()
        assert reloaded.get("s").info()["estimator"] == "bucket/frequency"

    def test_create_holds_the_name_before_touching_the_filesystem(
        self, tmp_path, monkeypatch
    ):
        import repro.serving.registry as registry_module

        building, release = threading.Event(), threading.Event()
        stores = []
        real_store = registry_module.DiskStore

        def paused_store(directory, **kwargs):
            stores.append(directory)
            if len(stores) == 1:  # the first creator pauses mid-create
                building.set()
                release.wait(timeout=10)
            return real_store(directory, **kwargs)

        monkeypatch.setattr(registry_module, "DiskStore", paused_store)
        registry = SessionRegistry(state_dir=tmp_path)
        created = []
        first = threading.Thread(
            target=lambda: created.append(
                registry.create("s", "value", estimator="bucket/frequency")
            )
        )
        first.start()
        assert building.wait(timeout=10)
        try:
            with pytest.raises(DuplicateSessionError, match="already exists"):
                registry.create("s", "value", estimator="naive")
            assert len(stores) == 1  # the refused create built no store
        finally:
            release.set()
            first.join(timeout=10)
        created[0].ingest(make_observations(SIX_ROWS))
        assert created[0].info()["state_version"] == 1

    def test_racing_creates_leave_one_working_store(self, tmp_path):
        for trial in range(10):
            registry = SessionRegistry(state_dir=tmp_path / str(trial))
            barrier = threading.Barrier(2)
            outcomes: list = []

            def create():
                barrier.wait(timeout=10)
                try:
                    outcomes.append(
                        registry.create("s", "value", estimator="bucket/frequency")
                    )
                except Exception as exc:  # noqa: BLE001 - the outcome under test
                    outcomes.append(exc)

            threads = [threading.Thread(target=create) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            winners = [o for o in outcomes if not isinstance(o, Exception)]
            losers = [o for o in outcomes if isinstance(o, Exception)]
            assert len(winners) == 1, outcomes
            assert [type(o) for o in losers] == [DuplicateSessionError]
            winners[0].ingest(make_observations(SIX_ROWS))
            reloaded = SessionRegistry(state_dir=tmp_path / str(trial))
            assert reloaded.load_state() == ["s"]
            assert reloaded.get("s").info()["state_version"] == 1

    def test_adopt_is_refused_on_a_persisted_registry(self, tmp_path):
        registry = SessionRegistry(state_dir=tmp_path)
        with pytest.raises(ValidationError, match="persisted registry"):
            registry.adopt("s", OpenWorldSession("value"))
        assert registry.names() == []
        assert not (tmp_path / "store").exists()


class TestVersionKeyedCache:
    def test_hit_on_unchanged_version(self):
        registry, served = registry_with_session()
        first = served.estimate_payload()
        second = served.estimate_payload()
        assert first == second
        stats = registry.cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_miss_after_ingest(self):
        registry, served = registry_with_session()
        before = served.estimate_payload()
        served.ingest(make_observations([("e", "s4", 50.0)]))
        after = served.estimate_payload()
        assert after != before  # new entity changes the estimate
        stats = registry.cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 2

    def test_query_cache_distinguishes_sql_and_mode(self):
        registry, served = registry_with_session()
        open_answer = served.query_payload("SELECT SUM(value) FROM data")
        closed_answer = served.query_payload(
            "SELECT SUM(value) FROM data", closed_world=True
        )
        assert open_answer["corrected"] != closed_answer["corrected"]
        assert registry.cache.stats()["misses"] == 2
        # Same (sql, mode) again: a hit, byte-identical payload.
        assert (
            served.query_payload("SELECT SUM(value) FROM data", closed_world=True)
            == closed_answer
        )
        assert registry.cache.stats()["hits"] == 1

    def test_distinct_specs_are_distinct_entries(self):
        registry, served = registry_with_session()
        naive = served.estimate_payload("naive")
        bucket = served.estimate_payload("bucket/frequency")
        assert naive["estimator"] != bucket["estimator"]
        assert registry.cache.stats()["misses"] == 2

    def test_default_spec_and_explicit_equivalent_share_an_entry(self):
        registry, served = registry_with_session()
        served.estimate_payload()  # default = bucket/frequency
        served.estimate_payload("bucket/frequency")
        stats = registry.cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_unknown_mode_is_refused_on_a_warm_cache(self):
        registry, served = registry_with_session()
        with pytest.raises(ValidationError):
            served.estimate_payload(mode="bogus")
        served.estimate_payload()
        with pytest.raises(ValidationError):
            served.estimate_payload(mode="bogus")
        with pytest.raises(ValidationError):
            served.estimate_payloads(["naive", None], mode="bogus")

    def test_runtime_metadata_is_nulled_in_served_payloads(self):
        registry, served = registry_with_session()
        payload = served.estimate_payload("monte-carlo?n_runs=2&n_count_steps=2")
        assert payload["runtime"] is None
        # and the cached copy is byte-identical to the recomputed one
        again = served.estimate_payload("monte-carlo?n_runs=2&n_count_steps=2")
        assert json.dumps(payload) == json.dumps(again)


class TestCoalescing:
    def test_duplicate_in_flight_estimates_fold_into_one_call(self):
        registry = SessionRegistry()
        gate = threading.Event()
        estimator = CountingEstimator(gate)
        session = OpenWorldSession("value", estimator=estimator)
        session.ingest(make_observations(SIX_ROWS))
        served = registry.adopt("s", session)

        payloads: list[dict] = []

        def request() -> None:
            payloads.append(served.estimate_payload())

        leader = threading.Thread(target=request)
        leader.start()
        assert estimator.started.wait(timeout=5)
        followers = [threading.Thread(target=request) for _ in range(3)]
        for t in followers:
            t.start()
        threading.Event().wait(0.05)  # let followers reach the batcher
        gate.set()
        leader.join(timeout=5)
        for t in followers:
            t.join(timeout=5)

        assert estimator.calls == 1
        assert len(payloads) == 4
        assert all(p == payloads[0] for p in payloads)
        assert registry.batcher.stats()["coalesced"] >= 1

    def test_process_backend_serves_two_monte_carlo_specs_then_ingests(self):
        # Both specs shard their grid rows over the one 2-worker pool, one
        # after the other on the reading thread; the read lock is free
        # again afterwards, so the ingest goes through.
        specs = [
            "monte-carlo?n_runs=2&n_count_steps=3",
            "monte-carlo?seed=1&n_runs=2&n_count_steps=4",
        ]
        _, reference = registry_with_session()
        registry, served = registry_with_session(backend="process", workers=2)
        try:
            pairs = served.estimate_payloads(specs, timeout=60)
            assert [version for version, _ in pairs] == [1, 1]
            expected = reference.estimate_payloads(specs)
            assert [p["corrected"] for _, p in pairs] == [
                p["corrected"] for _, p in expected
            ]
            assert [p["details"]["backend"] for _, p in pairs] == ["process"] * 2
            assert registry.batcher.stats()["computed"] == 2
            served.ingest(make_observations([("e", "s4", 50.0)]))
            assert served.stats()["state_version"] == 2
        finally:
            shutdown_backends()


class TestStats:
    def test_stats_surface_all_blocks(self):
        registry, served = registry_with_session()
        served.estimate_payload()
        served.estimate_payload()
        stats = registry.stats()
        assert set(stats) == {
            "schema",
            "phase",
            "sessions",
            "answer_cache",
            "coalescer",
        }
        assert stats["phase"] == "ready"
        (block,) = stats["sessions"]
        assert block["session"] == "s"
        assert block["state_version"] == 1
        assert block["ingest_requests"] == 1
        assert block["read_requests"] == 2
        # The bounded estimator cache of the session is surfaced here (the
        # satellite contract): one build, one reuse.
        assert block["estimator_cache"]["max_entries"] > 0
        assert block["estimator_cache"]["misses"] >= 1
        assert stats["answer_cache"]["hits"] == 1
        assert stats["coalescer"]["computed"] == 1


class TestStatePersistence:
    def test_save_and_load_round_trip(self, tmp_path):
        registry, served = registry_with_session(state_dir=tmp_path)
        expected_estimate = served.estimate_payload()
        expected_snapshot = served.snapshot_payload()
        registry.save_state()

        restored = SessionRegistry(state_dir=tmp_path)
        assert restored.load_state() == ["s"]
        again = restored.get("s")
        assert again.snapshot_payload() == expected_snapshot
        assert again.estimate_payload() == expected_estimate
        assert again.info()["state_version"] == 1

    def test_restart_mid_stream_is_bit_identical(self, tmp_path):
        """Kill-and-restart resumes exactly where the stream stood."""
        chunks = [make_observations(SIX_ROWS[i : i + 2]) for i in range(0, 6, 2)]

        # Uninterrupted reference run.
        reference = SessionRegistry().create("s", "value", estimator="bucket/frequency")
        for chunk in chunks:
            reference.ingest(chunk)

        # Interrupted run: persist after the first chunk, restart, resume.
        first = SessionRegistry(state_dir=tmp_path)
        first.create("s", "value", estimator="bucket/frequency").ingest(chunks[0])
        first.save_state()
        second = SessionRegistry(state_dir=tmp_path)
        second.load_state()
        resumed = second.get("s")
        for chunk in chunks[1:]:
            resumed.ingest(chunk)

        assert resumed.snapshot_payload() == reference.snapshot_payload()
        assert resumed.estimate_payload() == reference.estimate_payload()
        assert (
            resumed.query_payload("SELECT AVG(value) FROM data")
            == reference.query_payload("SELECT AVG(value) FROM data")
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_survive_a_persisted_restore(self, tmp_path, value):
        source = OpenWorldSession("value", estimator="bucket/frequency")
        source.ingest(make_observations(SIX_ROWS + [("x", "s4", value)]))
        envelope = source.snapshot().to_dict()
        registry = SessionRegistry(state_dir=tmp_path)
        served = registry.restore_session("r", envelope)
        expected = json.dumps(envelope)
        assert json.dumps(served.snapshot_payload()) == expected
        registry.save_state()
        again = SessionRegistry(state_dir=tmp_path)
        assert again.load_state() == ["r"]
        assert json.dumps(again.get("r").snapshot_payload()) == expected

    def test_load_missing_state_dir_is_empty(self, tmp_path):
        assert SessionRegistry(state_dir=tmp_path / "none").load_state() == []

    def test_memory_only_registry_refuses_persistence(self):
        registry, _ = registry_with_session()
        with pytest.raises(ValidationError, match="memory-only"):
            registry.save_state()
        with pytest.raises(ValidationError, match="memory-only"):
            registry.load_state()

    def test_make_server_rejects_state_dir_for_a_supplied_registry(self, tmp_path):
        from repro.serving.http import make_server

        with pytest.raises(ValidationError, match="state_dir"):
            make_server(registry=SessionRegistry(), state_dir=str(tmp_path))

    def test_load_rejects_foreign_files(self, tmp_path):
        (tmp_path / "sessions").mkdir()
        (tmp_path / "sessions" / "s.json").write_text('{"schema": "other/v9"}')
        with pytest.raises(ValidationError, match="earlier version's layout"):
            SessionRegistry(state_dir=tmp_path).load_state()

    def test_save_is_atomic_replace(self, tmp_path):
        registry, _ = registry_with_session(state_dir=tmp_path)
        target = registry.save_state()
        assert target == tmp_path / "store"
        registry.get("s").ingest(make_observations([("z", "s9", 5.0)]))
        registry.save_state()
        # The sealed manifest is the checkpoint.
        store = target / "s"
        assert json.loads((store / "manifest.json").read_text())["state_version"] == 2
        assert not (store / "manifest.json.tmp").exists()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["store"]

    def test_clean_sessions_are_skipped_on_save(self, tmp_path):
        registry, _ = registry_with_session(state_dir=tmp_path)
        manifest = registry.save_state() / "s" / "manifest.json"
        first_mtime = manifest.stat().st_mtime_ns
        registry.save_state()  # nothing new: no rewrite
        assert manifest.stat().st_mtime_ns == first_mtime
        registry.get("s").ingest(make_observations([("z", "s9", 5.0)]))
        registry.save_state()
        assert manifest.stat().st_mtime_ns > first_mtime

    def test_remove_leaves_no_trace(self, tmp_path):
        registry = SessionRegistry(state_dir=tmp_path)
        registry.create("s", "value").ingest(
            make_observations([("a", "s1", 1.0)])
        )
        registry.save_state()
        registry.remove("s")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["store"]
        assert list((tmp_path / "store").iterdir()) == []
        assert SessionRegistry(state_dir=tmp_path).load_state() == []


class TestSessionRecreation:
    """Delete + recreate of a name must never serve the old instance's cache."""

    def test_recreated_name_does_not_hit_stale_entries(self):
        registry = SessionRegistry()
        first = registry.create("s", "value", estimator="naive")
        first.ingest(make_observations([("a", "s1", 100.0)]))
        stale = first.estimate_payload()
        registry.remove("s")

        second = registry.create("s", "value", estimator="naive")
        second.ingest(make_observations([("b", "s1", 999.0)]))
        fresh = second.estimate_payload()
        # Both instances are at state_version 1, yet the answers differ:
        # the epoch-qualified cache key separates the generations.
        assert second.info()["state_version"] == 1
        assert fresh != stale
        assert fresh["observed"] == 999.0
