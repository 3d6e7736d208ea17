"""Rolling restart: drain -> restart -> restore, bit-identical throughout."""

from __future__ import annotations

import json
import threading

from cluster_helpers import (
    create_session,
    facade_server,
    http_call,
    ingest,
    observation_bodies,
    pause_for_retry,
    thread_cluster,
    wait_for,
)

SESSIONS = ["roll-a", "roll-b", "roll-c", "roll-d"]
CHUNKS_PER_SESSION = 10


def build_chunks(name):
    return [
        observation_bodies(
            [
                (f"{name}-e{index * 3 + offset}", f"{name}-s{index}", float(index * 10 + offset))
                for offset in range(3)
            ]
        )
        for index in range(CHUNKS_PER_SESSION)
    ]


def session_bodies(base, name):
    bodies = {}
    for path in (f"/sessions/{name}/estimate", f"/sessions/{name}/snapshot"):
        status, payload, _ = http_call(base, "GET", path)
        assert status == 200, (status, payload)
        bodies[path] = payload
    return bodies


def committed_version(base, name, deadline=30.0):
    """The session's state_version per the router's merged listing."""
    versions = []

    def listed():
        try:
            status, payload, _ = http_call(base, "GET", "/sessions")
        except (ConnectionError, OSError):
            return False
        if status == 200:
            for entry in json.loads(payload)["sessions"]:
                if entry["session"] == name:
                    versions.append(entry["state_version"])
                    return True
        return False

    wait_for(listed, timeout=deadline, message=f"state_version of {name}")
    return versions[-1]


def checked_writer(base, name, chunks, errors, start_version=0):
    """Exactly-once ingest under shed windows: version-checked retries.

    A 503 (migration window, restarting worker) means the chunk may or
    may not have been applied; the committed ``state_version`` decides,
    so the writer never double-applies and never drops a chunk.
    """
    try:
        expected = start_version
        for chunk in chunks:
            target = expected + 1
            while True:
                try:
                    status, payload, headers = http_call(
                        base, "POST", f"/sessions/{name}/ingest", {"observations": chunk}
                    )
                except (ConnectionError, OSError):
                    status, headers = 503, {}
                if status == 200:
                    acked = json.loads(payload)["state_version"]
                    assert acked == target, (name, acked, target)
                    break
                assert status == 503, (name, status)
                if committed_version(base, name) >= target:
                    break  # applied; only the response was lost
                pause_for_retry(headers)
            expected = target
    except BaseException as exc:  # pragma: no cover - failure path
        errors.append(exc)


def test_rolling_restart_is_invisible_at_rest(tmp_path):
    with thread_cluster(tmp_path, workers=3) as (base, router, fleet):
        for name in SESSIONS:
            create_session(base, name)
            for chunk in build_chunks(name)[:3]:
                ingest(base, name, chunk)
        before = {name: session_bodies(base, name) for name in SESSIONS}

        status, payload, _ = http_call(base, "POST", "/cluster/restart", timeout=120)
        assert status == 200
        report = json.loads(payload)
        assert [entry["worker"] for entry in report["restarted"]] == ["w0", "w1", "w2"]

        for worker in fleet.workers():
            assert worker.restarts == 1, f"{worker.name} restarted {worker.restarts}x"
        for name in SESSIONS:
            assert session_bodies(base, name) == before[name]


def test_rolling_restart_under_live_ingest_matches_facade(tmp_path):
    chunks = {name: build_chunks(name) for name in SESSIONS}
    with thread_cluster(tmp_path, workers=3) as (base, router, fleet):
        for name in SESSIONS:
            create_session(base, name)
            ingest(base, name, chunks[name][0])

        errors = []
        writers = [
            threading.Thread(
                target=checked_writer, args=(base, name, chunks[name][1:], errors, 1)
            )
            for name in SESSIONS
        ]
        for thread in writers:
            thread.start()
        status, payload, _ = http_call(base, "POST", "/cluster/restart", timeout=300)
        assert status == 200
        for thread in writers:
            thread.join(timeout=120)
        assert not errors
        assert not any(t.is_alive() for t in writers)
        for worker in fleet.workers():
            assert worker.restarts == 1

        cluster_bodies = {name: session_bodies(base, name) for name in SESSIONS}

    # The never-restarted oracle: one server, the same chunks in the same
    # order (each session has a single writer, so chunk order IS commit
    # order -- the version-checked retries guarantee exactly-once).
    with facade_server() as facade:
        for name in SESSIONS:
            create_session(facade, name)
            for chunk in chunks[name]:
                ingest(facade, name, chunk)
        for name in SESSIONS:
            assert session_bodies(facade, name) == cluster_bodies[name], name
