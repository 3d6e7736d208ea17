"""Live-migration protocol: fence, fault windows, idempotent retry."""

from __future__ import annotations

import json

import pytest

from cluster_helpers import (
    ESTIMATOR,
    create_session,
    http_call,
    ingest,
    observation_bodies,
    thread_cluster,
    wait_for,
)
from repro.cluster import migration
from repro.cluster.fleet import Worker
from repro.cluster.migration import MigrationError, fetch_snapshot, migrate_session
from repro.resilience.faults import InjectedFaultError, arm, disarm

ROWS = [(f"e{index}", f"s{index % 3}", float(10 + index)) for index in range(12)]


@pytest.fixture
def pair(tmp_path):
    """Two independent thread-mode workers with their own state shards."""
    workers = []
    for name in ("a", "b"):
        worker = Worker(name, tmp_path / name, mode="thread")
        worker.start()
        workers.append(worker)
    yield workers
    for worker in workers:
        worker.stop(graceful=False)


@pytest.fixture(autouse=True)
def clean_faults():
    disarm()
    yield
    disarm()


def seed(base, name="mig"):
    create_session(base, name)
    ingest(base, name, observation_bodies(ROWS))


def estimate_bytes(base, name="mig"):
    status, payload, _ = http_call(base, "GET", f"/sessions/{name}/estimate")
    return status, payload


def test_migration_moves_the_session_byte_identically(pair):
    source, dest = pair
    seed(source.base)
    _, before = estimate_bytes(source.base)

    result = migrate_session("mig", source.base, dest.base)
    assert result["state_version"] == 1
    assert result["kept_source"] is False

    status, after = estimate_bytes(dest.base)
    assert status == 200
    assert after == before
    status, _ = estimate_bytes(source.base)
    assert status == 404, "the source copy must be gone after resume"


def test_keep_source_leaves_a_replica_copy(pair):
    source, dest = pair
    seed(source.base)
    _, before = estimate_bytes(source.base)
    migrate_session("mig", source.base, dest.base, keep_source=True)
    for worker in pair:
        status, payload = estimate_bytes(worker.base)
        assert status == 200
        assert payload == before


def test_fence_rejects_a_destination_holding_newer_state(pair):
    source, dest = pair
    seed(source.base)
    # The destination already holds a NEWER copy (two ingests): restore
    # is replace-if-newer, so it reports its own version and the fence
    # must refuse to drop the source.
    seed(dest.base)
    ingest(dest.base, "mig", observation_bodies([("extra", "s9", 1.0)]))

    with pytest.raises(MigrationError, match="fence"):
        migrate_session("mig", source.base, dest.base)
    status, _ = estimate_bytes(source.base)
    assert status == 200, "the source stays authoritative on fence failure"


def test_crash_before_transfer_leaves_source_authoritative(pair):
    source, dest = pair
    seed(source.base)
    _, before = estimate_bytes(source.base)
    arm("cluster.before_transfer:raise")
    with pytest.raises(InjectedFaultError):
        migrate_session("mig", source.base, dest.base)
    disarm()
    # Zero copies moved: the destination never saw the session.
    assert estimate_bytes(dest.base)[0] == 404
    assert estimate_bytes(source.base) == (200, before)
    # The retry completes cleanly.
    migrate_session("mig", source.base, dest.base)
    assert estimate_bytes(dest.base) == (200, before)


@pytest.mark.parametrize("reported", [None, "1.0"], ids=["missing", "not-an-integer"])
def test_archive_without_an_integer_version_leaves_source_authoritative(
    pair, monkeypatch, reported
):
    source, dest = pair
    seed(source.base)
    _, before = estimate_bytes(source.base)
    real_stream = migration.worker_stream

    def stream(*args, **kwargs):
        status, response, connection = real_stream(*args, **kwargs)
        del response.headers["X-Repro-State-Version"]
        if reported is not None:
            response.headers["X-Repro-State-Version"] = reported
        return status, response, connection

    monkeypatch.setattr(migration, "worker_stream", stream)
    with pytest.raises(MigrationError, match="X-Repro-State-Version"):
        migrate_session("mig", source.base, dest.base)
    assert estimate_bytes(dest.base)[0] == 404
    assert estimate_bytes(source.base) == (200, before)


def test_crash_before_resume_leaves_two_equal_copies_and_retry_resolves(pair):
    source, dest = pair
    seed(source.base)
    _, before = estimate_bytes(source.base)
    arm("cluster.before_resume:raise")
    with pytest.raises(InjectedFaultError):
        migrate_session("mig", source.base, dest.base)
    disarm()
    # The crash window leaves two copies -- but at the SAME fenced
    # version, so either is byte-identical (the exactly-once argument).
    assert estimate_bytes(source.base) == (200, before)
    assert estimate_bytes(dest.base) == (200, before)
    assert (
        fetch_snapshot(source.base, "mig")["state_version"]
        == fetch_snapshot(dest.base, "mig")["state_version"]
    )
    # Retrying the same migration is a no-op transfer + delete.
    result = migrate_session("mig", source.base, dest.base)
    assert result["state_version"] == 1
    assert estimate_bytes(source.base)[0] == 404
    assert estimate_bytes(dest.base) == (200, before)


def test_restore_is_replace_if_newer(pair):
    source, dest = pair
    seed(source.base)
    envelope = fetch_snapshot(source.base, "mig")
    for _ in range(2):  # idempotent: re-sending reports the same version
        status, payload, _ = http_call(
            dest.base, "POST", "/sessions/mig/restore", envelope
        )
        assert status == 200
        assert json.loads(payload)["state_version"] == envelope["state_version"]
    # An older envelope never rolls the destination back.
    ingest(dest.base, "mig", observation_bodies([("newer", "s8", 2.0)]))
    status, payload, _ = http_call(
        dest.base, "POST", "/sessions/mig/restore", envelope
    )
    assert status == 200
    assert json.loads(payload)["state_version"] == envelope["state_version"] + 1


def test_router_sheds_migrating_sessions_with_retry_after(tmp_path):
    with thread_cluster(tmp_path, workers=2) as (base, router, fleet):
        create_session(base, "busy")
        ingest(base, "busy", observation_bodies(ROWS))
        router.table.quiesce("busy")
        try:
            status, payload, headers = http_call(
                base, "GET", "/sessions/busy/estimate"
            )
            assert status == 503
            assert "Retry-After" in headers
            assert b"migrating" in payload
        finally:
            router.table.resume("busy")
        status, _, _ = http_call(base, "GET", "/sessions/busy/estimate")
        assert status == 200
