"""Kill -9 the server at injected fault points; recovery must be bit-exact.

Each case arms one deterministic fault (``REPRO_FAULTS``) in a real
``repro.cli serve`` subprocess, drives the HTTP API until the process
dies by SIGKILL, restarts it against the same ``--state-dir``, reconciles
the unacknowledged chunks the way a retrying client would (resend
everything past the recovered ``state_version``), and then asserts that
**every** served surface -- estimate, estimate-with-spec, query,
snapshot -- is byte-identical to an in-process facade session that
ingested the same stream without ever crashing.

The reconcile rule is the protocol contract of the write-ahead log: an
ingest the client never got an ack for was either journaled (the replay
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
        # Crash inside WriteAheadLog.append while handling the 2nd ingest:
        # the record is flushed but the session never committed or acked.
        pytest.param("wal.after_append:crash@2", "batch", id="after-append"),
        # Crash just before the fsync syscall of the 1st ingest (policy
        # "always"): SIGKILL-durability must not depend on fsync finishing.
        pytest.param("wal.before_fsync:crash@1", "always", id="before-fsync"),
        # Crash after the final ingest fully committed but before its HTTP
        # response: the client retries an already-journaled chunk.
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
        # Graceful shutdown checkpoints (snapshot + WAL rotation); a third
        # boot must restore from the checkpoint with nothing to replay and
        # still serve the same bytes.
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
    """Die inside save_state, before os.replace: the WAL alone recovers."""
    state = tmp_path / "state"
    server = ServerProcess(state, faults="registry.before_replace:crash@1")
    try:
        assert not drive_until_crash(server)  # every request succeeds
        server.proc.send_signal(signal.SIGTERM)  # triggers save_state -> fault
        server.wait_killed()
    finally:
        server.kill()
    assert not list((state / "sessions").glob("*.json"))  # died before replace
    facade = never_crashed_facade()
    restarted = ServerProcess(state)
    try:
        assert reconcile(restarted) == len(CHUNKS)  # fully replayed from WAL
        assert_bit_identical(restarted, facade)
    finally:
        restarted.kill()


def test_torn_wal_tail_is_survived(tmp_path):
    """Tear the segment log mid-frame, and the WAL reference behind it, as
    a power loss would; the tail chunk is lost cleanly, resent by the
    client, and the result is still bit-exact.  (A session this small
    keeps no invariant files, so the log alone is recovered.)"""
    state = tmp_path / "state"
    server = ServerProcess(state)
    try:
        assert not drive_until_crash(server)
        server.proc.kill()  # plain SIGKILL, no fault needed
        server.wait_killed()
    finally:
        server.kill()
    store = state / "store" / "s"
    assert not (store / "meta.bin").exists()
    for path in (store / "active.seg", state / "wal" / "s.wal"):
        path.write_bytes(path.read_bytes()[:-7])  # tear the last record
    facade = never_crashed_facade()
    restarted = ServerProcess(state)
    try:
        version = reconcile(restarted)
        assert version == len(CHUNKS) - 1  # exactly the torn chunk was lost
        assert_bit_identical(restarted, facade)
    finally:
        restarted.kill()
