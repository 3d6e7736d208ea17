"""Kill -9 the server at injected fault points; recovery must be bit-exact.

Each case arms one deterministic fault (``REPRO_FAULTS``) in a real
``repro.cli serve`` subprocess, drives the HTTP API until the process
dies by SIGKILL, restarts it against the same ``--state-dir``, reconciles
the unacknowledged chunks the way a retrying client would (resend
everything past the recovered ``state_version``), and then asserts that
**every** served surface -- estimate, estimate-with-spec, query,
snapshot -- is byte-identical to an in-process facade session that
ingested the same stream without ever crashing.

The reconcile rule is the protocol contract of the segment log: an
ingest the client never got an ack for was either logged (attach
recovers it; the resend is skipped because the recovered
``state_version`` already covers it) or not (the resend supplies it).
Nothing is ever applied one-and-a-half times.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api.session import OpenWorldSession
from repro.data.records import Observation
from repro.serving.http import dumps_result

ESTIMATOR = "bucket/frequency"
SQL = "SELECT SUM(value) FROM data WHERE value > 15"

#: The ingest stream, in the chunks the driver sends them.
CHUNKS = [
    [("a", "s1", 10.0), ("b", "s1", 20.0)],
    [("a", "s2", 10.0), ("c", "s2", 30.0)],
    [("b", "s3", 20.0), ("d", "s3", 40.0), ("e", "s3", 50.0)],
]


def observation_bodies(rows):
    return [
        {"entity_id": entity, "source_id": source, "attributes": {"value": value}}
        for entity, source, value in rows
    ]


def observations(rows):
    return [
        Observation(entity, {"value": float(value)}, source)
        for entity, source, value in rows
    ]


class ServerDied(Exception):
    """The request could not be completed because the server went away."""


class ServerProcess:
    """A ``repro.cli serve`` subprocess driven over HTTP."""

    def __init__(self, state_dir, *, faults=None, wal_fsync="batch"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
        )
        env.pop("REPRO_FAULTS", None)
        env.pop("REPRO_FAULTS_STAMP_DIR", None)
        if faults:
            env["REPRO_FAULTS"] = faults
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--state-dir",
                str(state_dir),
                "--wal-fsync",
                wal_fsync,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        self.url = None
        for line in self.proc.stdout:
            if line.startswith("READY "):
                self.url = line.split()[1].strip()
                break
        assert self.url, "server exited before printing READY"

    def request(self, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            f"{self.url}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()
        except (urllib.error.URLError, ConnectionError, http.client.HTTPException) as exc:
            raise ServerDied(str(exc)) from exc

    def wait_killed(self):
        assert self.proc.wait(timeout=30) == -signal.SIGKILL

    def terminate_gracefully(self):
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=30)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


def never_crashed_facade():
    session = OpenWorldSession("value", estimator=ESTIMATOR)
    for chunk in CHUNKS:
        session.ingest(observations(chunk))
    return session


def drive_until_crash(server):
    """Create the session and push chunks until the armed fault kills it."""
    try:
        status, _ = server.request(
            "POST",
            "/sessions",
            {"name": "s", "attribute": "value", "estimator": ESTIMATOR},
        )
        assert status == 201
        for chunk in CHUNKS:
            status, _ = server.request(
                "POST",
                "/sessions/s/ingest",
                {"observations": observation_bodies(chunk)},
            )
            assert status == 200
    except ServerDied:
        return True
    return False


def reconcile(server):
    """Resend whatever the recovered ``state_version`` does not cover."""
    status, body = server.request("GET", "/sessions")
    assert status == 200
    sessions = {
        entry["session"]: entry for entry in json.loads(body)["sessions"]
    }
    if "s" not in sessions:
        status, _ = server.request(
            "POST",
            "/sessions",
            {"name": "s", "attribute": "value", "estimator": ESTIMATOR},
        )
        assert status == 201
        version = 0
    else:
        version = sessions["s"]["state_version"]
    assert 0 <= version <= len(CHUNKS)
    for chunk in CHUNKS[version:]:
        status, _ = server.request(
            "POST",
            "/sessions/s/ingest",
            {"observations": observation_bodies(chunk)},
        )
        assert status == 200
    return version


def assert_bit_identical(server, facade):
    """Every served surface equals the never-crashed facade, byte for byte."""
    _, raw = server.request("GET", "/sessions/s/estimate")
    assert raw == dumps_result(facade.estimate().to_dict())
    _, raw = server.request("GET", "/sessions/s/estimate?spec=naive")
    assert raw == dumps_result(facade.estimate(spec="naive").to_dict())
    _, raw = server.request("POST", "/sessions/s/query", {"sql": SQL})
    assert raw == dumps_result(facade.query(SQL).to_dict())
    _, raw = server.request("GET", "/sessions/s/snapshot")
    assert raw == dumps_result(facade.snapshot().to_dict())


@pytest.mark.parametrize(
    ("faults", "wal_fsync"),
    [
        # Crash inside SegmentLog.append while handling the 2nd ingest:
        # the frame is flushed but the session never committed or acked.
        pytest.param("storage.after_frame:crash@2", "batch", id="after-append"),
        # Under "always", the same point sits between the 1st frame's
        # flush and its fsync: SIGKILL-durability must not depend on
        # fsync finishing.
        pytest.param("storage.after_frame:crash@1", "always", id="before-fsync"),
        # Crash after the final ingest fully committed but before its HTTP
        # response: the client retries an already-logged chunk.
        pytest.param("http.before_response:crash@4", "batch", id="before-response"),
    ],
)
def test_sigkill_mid_ingest_recovers_bit_identical(tmp_path, faults, wal_fsync):
    state = tmp_path / "state"
    server = ServerProcess(state, faults=faults, wal_fsync=wal_fsync)
    try:
        assert drive_until_crash(server), "armed fault never fired"
        server.wait_killed()
    finally:
        server.kill()
    facade = never_crashed_facade()
    restarted = ServerProcess(state, wal_fsync=wal_fsync)
    try:
        reconcile(restarted)
        assert_bit_identical(restarted, facade)
        # Graceful shutdown checkpoints (seals the store); a third boot
        # must attach the sealed store with nothing to resend and still
        # serve the same bytes.
        assert restarted.terminate_gracefully() == 0
        final = ServerProcess(state, wal_fsync=wal_fsync)
        try:
            assert reconcile(final) == len(CHUNKS)  # nothing to resend
            assert_bit_identical(final, facade)
        finally:
            final.kill()
    finally:
        restarted.kill()


def test_sigkill_during_checkpoint_replace(tmp_path):
    """Die inside save_state, after the seal's rename and before its
    manifest write: attach adopts the orphan sealed segment."""
    state = tmp_path / "state"
    server = ServerProcess(state, faults="storage.after_seal:crash@1")
    try:
        assert not drive_until_crash(server)  # every request succeeds
        server.proc.send_signal(signal.SIGTERM)  # triggers save_state -> fault
        server.wait_killed()
    finally:
        server.kill()
    store = state / "store" / "s"
    assert (store / "seg-00000001.seg").exists()  # renamed ...
    assert json.loads((store / "manifest.json").read_text())["sealed"] == []
    facade = never_crashed_facade()
    restarted = ServerProcess(state)
    try:
        assert reconcile(restarted) == len(CHUNKS)  # nothing acked was lost
        assert_bit_identical(restarted, facade)
    finally:
        restarted.kill()


def test_deleted_session_leaves_only_the_store_dir(tmp_path):
    """Create, ingest, delete, SIGTERM: no journal, checkpoint or
    tombstone is left, and the restart finds no session."""
    state = tmp_path / "state"
    server = ServerProcess(state)
    try:
        assert not drive_until_crash(server)
        assert server.request("DELETE", "/sessions/s")[0] == 200
        assert server.terminate_gracefully() == 0
    finally:
        server.kill()
    assert [path.relative_to(state) for path in state.rglob("*")] == [
        Path("store")
    ]
    restarted = ServerProcess(state)
    try:
        status, body = restarted.request("GET", "/sessions")
        assert status == 200 and json.loads(body)["sessions"] == []
    finally:
        restarted.kill()


def test_torn_wal_tail_is_survived(tmp_path):
    """Tear the segment log mid-frame, as a power loss would; the tail
    chunk is lost cleanly, resent by the client, and the result is still
    bit-exact.  (The session never sealed, so it has no checkpoint and
    the log alone is recovered.)"""
    state = tmp_path / "state"
    server = ServerProcess(state)
    try:
        assert not drive_until_crash(server)
        server.proc.kill()  # plain SIGKILL, no fault needed
        server.wait_killed()
    finally:
        server.kill()
    store = state / "store" / "s"
    assert not (store / "checkpoint.bin").exists()
    active = store / "active.seg"
    active.write_bytes(active.read_bytes()[:-7])  # tear the last frame
    facade = never_crashed_facade()
    restarted = ServerProcess(state)
    try:
        version = reconcile(restarted)
        assert version == len(CHUNKS) - 1  # exactly the torn chunk was lost
        assert_bit_identical(restarted, facade)
    finally:
        restarted.kill()
