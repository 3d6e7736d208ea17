"""Cluster serving: byte-identity with the facade, fan-out, aggregation."""

from __future__ import annotations

import json
import random
import threading

from cluster_helpers import (
    create_session,
    facade_server,
    http_call,
    ingest,
    observation_bodies,
    thread_cluster,
    wait_for,
)

SESSIONS = ["alpha", "beta", "gamma", "delta", "epsilon"]
N_WRITERS = 4
CHUNKS_PER_WRITER = 8


def build_chunks():
    """Deterministic per-writer observation chunks (disjoint sources)."""
    rng = random.Random(20260807)
    chunks = {}
    for writer in range(N_WRITERS):
        rows = []
        for index in range(CHUNKS_PER_WRITER):
            rows.append(
                observation_bodies(
                    [
                        (
                            f"e{rng.randrange(40)}",
                            f"w{writer}-s{index}",
                            float(rng.randrange(1, 100)),
                        )
                        for _ in range(rng.randrange(1, 6))
                    ]
                )
            )
        chunks[writer] = rows
    return chunks


def session_bodies(base, name):
    """The three response bodies whose bytes the cluster must preserve."""
    bodies = {}
    for method, path, body in (
        ("GET", f"/sessions/{name}/estimate", None),
        ("GET", f"/sessions/{name}/snapshot", None),
        ("POST", f"/sessions/{name}/query", {"sql": "SELECT AVG(value) FROM data"}),
    ):
        status, payload, _ = http_call(base, method, path, body)
        assert status == 200, (status, payload)
        bodies[path] = payload
    return bodies


def test_four_worker_cluster_matches_serial_facade_on_stress_workload(tmp_path):
    """Commit-log determinism: interleaved writers through the router
    produce exactly the state a serial replay produces on one server."""
    chunks = build_chunks()
    with thread_cluster(tmp_path, workers=4) as (base, router, fleet):
        create_session(base, "stress")
        log = []
        log_lock = threading.Lock()
        errors = []

        def writer(writer_id):
            try:
                for chunk in chunks[writer_id]:
                    info = ingest(base, "stress", chunk)
                    with log_lock:
                        log.append((info["state_version"], chunk))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(N_WRITERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert not any(t.is_alive() for t in threads)

        # Gapless commit order: the single primary serializes every writer.
        versions = sorted(version for version, _ in log)
        assert versions == list(range(1, N_WRITERS * CHUNKS_PER_WRITER + 1))

        cluster_bodies = session_bodies(base, "stress")

    # Serial replay of the commit log against a lone server.
    with facade_server() as facade:
        create_session(facade, "stress")
        for _, chunk in sorted(log, key=lambda item: item[0]):
            ingest(facade, "stress", chunk)
        assert session_bodies(facade, "stress") == cluster_bodies


def test_sessions_spread_over_workers_and_bodies_match_facade(tmp_path):
    chunks = {
        name: observation_bodies(
            [(f"{name}-e{i}", f"s{i % 3}", float(i * 7 + len(name))) for i in range(15)]
        )
        for name in SESSIONS
    }
    with thread_cluster(tmp_path, workers=4) as (base, router, fleet):
        for name in SESSIONS:
            create_session(base, name)
            ingest(base, name, chunks[name])
        cluster_bodies = {name: session_bodies(base, name) for name in SESSIONS}
        placements = {name: router.table.primary(name) for name in SESSIONS}
    # Shared-nothing actually shards: the workload does not pile onto one
    # worker (deterministic given the fixed names and ring).
    assert len(set(placements.values())) > 1

    with facade_server() as facade:
        for name in SESSIONS:
            create_session(facade, name)
            ingest(facade, name, chunks[name])
        for name in SESSIONS:
            assert session_bodies(facade, name) == cluster_bodies[name]


def test_replica_fanout_serves_byte_identical_reads(tmp_path):
    with thread_cluster(tmp_path, workers=3, replicas=2) as (base, router, fleet):
        create_session(base, "fan")
        ingest(
            base,
            "fan",
            observation_bodies([(f"e{i}", f"s{i % 4}", float(i)) for i in range(20)]),
        )
        # Wait for the snapshot push to reach the replica.
        expected = router.table.primary_version("fan")
        preference = router.table.preference("fan")
        wait_for(
            lambda: router.table._replica_version.get(("fan", preference[1]))
            == expected,
            message="replica push",
        )
        bodies = set()
        for _ in range(8):
            status, payload, _ = http_call(base, "GET", "/sessions/fan/estimate")
            assert status == 200
            bodies.add(payload)
        assert len(bodies) == 1, "replica reads must be byte-identical"
        counters = router.aggregated_stats()["router"]
        assert counters["replica_reads"] > 0, "reads never fanned out"
        assert counters["primary_reads"] > 0, "round-robin skipped the primary"


def test_a_replica_follows_an_ingest_of_non_finite_values(tmp_path):
    with thread_cluster(tmp_path, workers=2, replicas=2) as (base, router, fleet):
        create_session(base, "odd")
        ingest(base, "odd", observation_bodies([("a", "s1", 1.0), ("b", "s1", 2.0)]))
        ingest(
            base,
            "odd",
            observation_bodies([("c", "s2", float("nan")), ("d", "s2", float("-inf"))]),
        )
        assert router.replicate_now("odd") == 1
        primary, replica = router.table.preference("odd")
        assert router.table.primary_version("odd") == 2
        assert router.table._replica_version.get(("odd", replica)) == 2
        snapshots = {
            http_call(fleet.worker(name).base, "GET", "/sessions/odd/snapshot")[1]
            for name in (primary, replica)
        }
        assert len(snapshots) == 1


def test_stats_and_sessions_aggregate_across_workers(tmp_path):
    with thread_cluster(tmp_path, workers=3) as (base, router, fleet):
        for name in SESSIONS:
            create_session(base, name)
            ingest(base, name, observation_bodies([(f"{name}-e", "s0", 1.0)]))

        status, payload, _ = http_call(base, "GET", "/sessions")
        assert status == 200
        listing = json.loads(payload)
        assert sorted(entry["session"] for entry in listing["sessions"]) == sorted(
            SESSIONS
        )

        status, payload, _ = http_call(base, "GET", "/stats")
        stats = json.loads(payload)
        assert stats["schema"] == "repro.cluster/v1"
        assert stats["phase"] == "ready"
        assert sorted(stats["workers"]) == ["w0", "w1", "w2"]
        assert sorted(block["session"] for block in stats["sessions"]) == sorted(
            SESSIONS
        )
        # Shared-nothing: summing per-worker session counts gives the total.
        total = sum(
            len(worker_stats.get("sessions", []))
            for worker_stats in stats["workers"].values()
        )
        assert total == len(SESSIONS)

        status, payload, _ = http_call(base, "GET", "/readyz")
        assert status == 200
        status, payload, _ = http_call(base, "GET", "/healthz")
        assert status == 200
        assert json.loads(payload)["workers"] == 3


def test_scale_out_rebalances_only_the_remapped_arc(tmp_path):
    names = [f"scale-{index}" for index in range(16)]
    with thread_cluster(tmp_path, workers=2) as (base, router, fleet):
        bodies = {}
        for name in names:
            create_session(base, name)
            ingest(base, name, observation_bodies([(f"{name}-e", "s0", 2.0)]))
            status, payload, _ = http_call(base, "GET", f"/sessions/{name}/estimate")
            bodies[name] = payload
        before = {name: router.table.primary(name) for name in names}

        status, payload, _ = http_call(base, "POST", "/cluster/workers")
        assert status == 200
        report = json.loads(payload)
        assert report["added"]["name"] == "w2"
        moved = {entry["session"] for entry in report["moved"]}

        after = {name: router.table.primary(name) for name in names}
        for name in names:
            if name in moved:
                assert after[name] == "w2", "sessions only move TO the joiner"
            else:
                assert after[name] == before[name], "an unmoved session remapped"
            status, payload, _ = http_call(base, "GET", f"/sessions/{name}/estimate")
            assert status == 200
            assert payload == bodies[name], f"estimate changed for {name}"
