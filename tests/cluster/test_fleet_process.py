"""Process-mode fleet: SIGKILL a worker, supervisor restarts, WAL replays.

This is the cluster's end-to-end crash story with real subprocesses:
the murdered worker had no chance to checkpoint, so everything it
serves after the respawn comes from its write-ahead log shard -- and
must be byte-identical to what it served before dying.
"""

from __future__ import annotations

import json
import os
import signal

from cluster_helpers import (
    create_session,
    http_call,
    ingest,
    observation_bodies,
    retrying_call,
    thread_cluster,
    wait_for,
)

SESSIONS = ["proc-a", "proc-b", "proc-c"]


def test_sigkilled_worker_is_respawned_and_replays_its_wal(tmp_path):
    with thread_cluster(
        tmp_path, workers=3, mode="process", wal_fsync="batch"
    ) as (base, router, fleet):
        bodies = {}
        for name in SESSIONS:
            create_session(base, name)
            ingest(
                base,
                name,
                observation_bodies(
                    [(f"{name}-e{i}", f"s{i % 3}", float(i + 1)) for i in range(12)]
                ),
            )
            status, payload, _ = http_call(base, "GET", f"/sessions/{name}/estimate")
            assert status == 200
            bodies[name] = payload

        # Murder the worker that owns the first session.
        victim_name = router.table.primary(SESSIONS[0])
        victim = fleet.worker(victim_name)
        owned = [n for n in SESSIONS if router.table.primary(n) == victim_name]
        pid = victim.pid
        assert pid is not None
        os.kill(pid, signal.SIGKILL)

        # The supervisor notices and respawns on the same shard; the
        # router sheds with 503 + Retry-After in between (retrying_call
        # absorbs the window).
        for name in SESSIONS:
            status, payload, _ = retrying_call(
                base, "GET", f"/sessions/{name}/estimate", deadline=60
            )
            assert status == 200
            assert payload == bodies[name], f"{name} changed across the crash"

        wait_for(lambda: victim.restarts == 1, message="supervisor restart count")
        assert victim.pid != pid, "a fresh process must have been spawned"
        assert owned, "the victim owned at least one session"

        # Sessions on the survivors were never disturbed.
        for worker in fleet.workers():
            if worker.name != victim_name:
                assert worker.restarts == 0


def test_migrated_session_survives_sigkill_byte_identically(tmp_path):
    """A migrated-in session must replay its WAL create record byte-exactly.

    Unlike a session born on the worker (empty create snapshot + ingest
    records), a migrated session's create record embeds the full
    snapshot -- including first-seen dict order in counts/values, which
    is NOT sorted order.  A SIGKILL before any checkpoint forces the
    respawned worker to rebuild from exactly that record.
    """
    names = [f"mig-{index}" for index in range(6)]
    # Entity arrival order deliberately differs from lexical order: the
    # snapshot's counts/values dicts keep first-seen order, so any
    # sorting on the replay path shows up as changed bytes.
    entities = ["gamma", "alpha", "echo", "delta", "bravo", "gamma", "echo"]
    with thread_cluster(
        tmp_path, workers=2, mode="process", wal_fsync="batch"
    ) as (base, router, fleet):
        bodies = {}
        for name in names:
            create_session(base, name)
            ingest(
                base,
                name,
                observation_bodies(
                    [
                        (entity, f"s{i % 3}", float(i + 1))
                        for i, entity in enumerate(entities)
                    ]
                ),
            )
            status, payload, _ = http_call(base, "GET", f"/sessions/{name}/snapshot")
            assert status == 200
            bodies[name] = payload

        status, payload, _ = http_call(base, "POST", "/cluster/workers")
        assert status == 200
        moved = [entry["session"] for entry in json.loads(payload)["moved"]]
        assert moved, "scale-out moved no session; regression has no teeth"

        joiner = fleet.worker("w2")
        pid = joiner.pid
        assert pid is not None
        os.kill(pid, signal.SIGKILL)

        for name in names:
            status, payload, _ = retrying_call(
                base, "GET", f"/sessions/{name}/snapshot", deadline=60
            )
            assert status == 200
            assert payload == bodies[name], f"{name} changed across the crash"
        wait_for(lambda: joiner.restarts >= 1, message="supervisor restart count")
        # Exactly one: the worker the scale-out started did not also die
        # with the request thread that asked for it.
        assert joiner.restarts == 1
        assert joiner.pid != pid
