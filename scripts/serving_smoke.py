#!/usr/bin/env python
"""Serving smoke driver: HTTP answers vs the in-process facade, via cmp.

Drives a real ``repro.cli serve`` subprocess through the full lifecycle
-- create, ingest, estimate, query, snapshot -- with plain ``urllib``,
writing every HTTP response body to ``<outdir>/http_<step>.json`` and
the byte output of the equivalent in-process
:class:`~repro.api.session.OpenWorldSession` call to
``<outdir>/local_<step>.json``.  The CI serving-smoke job then asserts
``cmp http_<step>.json local_<step>.json`` for every step -- the
"byte-identical to the facade" acceptance criterion, checked end to end
through a real socket.

It also exercises the kill-and-restart contract: after the second
ingest the server is stopped with SIGTERM (graceful shutdown seals the
session stores in ``--state-dir``), restarted on the same state dir, and the stream
continues -- the final answers must be byte-identical to an
uninterrupted in-process run of the whole stream.

With ``--faults SPEC`` the driver turns into a chaos client: the spec is
exported as ``REPRO_FAULTS`` so the server SIGKILLs itself at the armed
fault point mid-stream.  The driver shrugs, restarts the server on the
same state dir, *reconciles* -- resends every chunk past the recovered
``state_version``, the segment log's exactly-once retry protocol --
and then requires the same byte identity as the graceful run::

    PYTHONPATH=src python scripts/serving_smoke.py --outdir /tmp/chaos \\
        --faults 'storage.after_frame:crash@2'

Shed 503 responses (admission gate, recovering window) are retried with
jittered exponential backoff honouring the ``Retry-After`` header.

``--cluster N`` drives a ``repro.cli cluster`` router over N workers
instead of a single server: the stream is delivered with the
version-checked exactly-once protocol (a chaos SIGKILL of a worker is
absorbed by the supervisor + store recovery), then one forced rebalance
(``POST /cluster/workers``) and one rolling restart
(``POST /cluster/restart``) run mid-session -- every surface must stay
byte-identical to the facade throughout::

    PYTHONPATH=src python scripts/serving_smoke.py --outdir /tmp/cluster \\
        --cluster 3 --faults 'storage.after_frame:crash@2'

``--base-url URL`` (repeatable) skips process management entirely and
drives an already-running server or router, rotating over the given
bases; connection-refused responses (a router mid-rolling-restart) are
retried with the same jittered backoff instead of failing the run.

The script self-verifies (exit 1 on any byte difference), so it doubles
as a local pre-push check::

    PYTHONPATH=src python scripts/serving_smoke.py --outdir /tmp/smoke
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.api.session import OpenWorldSession
from repro.data.records import Observation
from repro.serving.http import dumps_result

ESTIMATOR = "bucket/frequency"
ATTRIBUTE = "value"

#: Three deterministic stream chunks (entity, source, value).
CHUNKS = [
    [("alpha", "s1", 120.0), ("beta", "s1", 80.0), ("alpha", "s2", 120.0)],
    [("gamma", "s2", 45.0), ("beta", "s3", 80.0), ("delta", "s3", 200.0)],
    [("alpha", "s4", 120.0), ("epsilon", "s4", 60.0), ("gamma", "s5", 45.0)],
]

SQL = "SELECT SUM(value) FROM data WHERE value > 50"

#: Deterministic jitter for the 503 backoff.
_rng = random.Random(0)

MAX_ATTEMPTS = 8

#: Every server process this driver started; :func:`main` kills the ones
#: a failed flow left running.
_STARTED: "list[subprocess.Popen]" = []


def to_bodies(chunk):
    return [
        {"entity_id": e, "source_id": s, "attributes": {ATTRIBUTE: v}}
        for e, s, v in chunk
    ]


def to_observations(chunk):
    return [Observation(e, {ATTRIBUTE: v}, s) for e, s, v in chunk]


class ServerDied(Exception):
    """The server went away mid-request (a chaos crash, not an HTTP error)."""


class Client:
    """Retrying HTTP client over one or more base URLs.

    503s honour ``Retry-After`` with jittered exponential backoff.  With
    ``retry_refused=True`` a refused/torn connection rotates to the next
    base and retries too -- the router-mode contract, where a connection
    refusal just means the router is mid-rolling-restart.  Without it, a
    refused connection raises :class:`ServerDied` (the classic chaos
    -detection semantics against a lone server).
    """

    def __init__(self, bases, *, retry_refused: bool = False) -> None:
        self.bases = list(bases)
        self.retry_refused = retry_refused
        self._turn = 0

    def request_once(self, method: str, path: str, body=None) -> bytes:
        """One attempt, no retries (the exactly-once ingest primitive)."""
        base = self.bases[self._turn % len(self.bases)]
        self._turn += 1
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.read()
        except (urllib.error.HTTPError, ConnectionError) as error:
            raise
        except (urllib.error.URLError, http.client.HTTPException) as exc:
            raise ServerDied(str(exc)) from exc

    def request(self, method: str, path: str, body=None) -> bytes:
        for attempt in range(MAX_ATTEMPTS):
            backoff = _rng.uniform(0, min(0.05 * 2 ** attempt, 2.0))
            try:
                return self.request_once(method, path, body)
            except urllib.error.HTTPError as error:
                if error.code != 503 or attempt == MAX_ATTEMPTS - 1:
                    raise
                # Shed or recovering: honour Retry-After, add jitter so a
                # fleet of retrying clients does not stampede in lockstep.
                retry_after = float(error.headers.get("Retry-After") or 0.0)
                time.sleep(retry_after + backoff)
            except (ServerDied, ConnectionError) as exc:
                if not self.retry_refused or attempt == MAX_ATTEMPTS - 1:
                    if isinstance(exc, ConnectionError):
                        raise ServerDied(str(exc)) from exc
                    raise
                # Refused/torn: the router is mid-rolling-restart.  No
                # Retry-After to honour, so back off on jitter alone.
                time.sleep(0.1 + backoff)
        raise AssertionError("unreachable")


class ServerProcess:
    """A ``repro.cli serve``/``cluster`` subprocess plus its READY address.

    ``cluster=(workers, replicas)`` boots the consistent-hash router
    fleet instead of a lone server; the READY-line contract (and hence
    this wrapper) is identical.  Armed faults get a stamp directory so a
    ``crash`` fires at most once across the whole worker tree.
    """

    def __init__(self, state_dir: Path, *, faults: str | None = None,
                 wal_fsync: str = "batch", store: str | None = None,
                 cluster: "tuple[int, int] | None" = None) -> None:
        env = dict(os.environ)
        env.pop("REPRO_FAULTS", None)
        env.pop("REPRO_FAULTS_STAMP_DIR", None)
        if faults:
            env["REPRO_FAULTS"] = faults
            if cluster:
                stamp_dir = state_dir.parent / "fault-stamps"
                stamp_dir.mkdir(parents=True, exist_ok=True)
                env["REPRO_FAULTS_STAMP_DIR"] = str(stamp_dir)
        if cluster:
            argv = ["cluster", "--workers", str(cluster[0]),
                    "--replicas", str(cluster[1])]
        else:
            argv = ["serve"]
        if store:
            argv += ["--store", store]
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv, "--port", "0",
             "--state-dir", str(state_dir), "--wal-fsync", wal_fsync],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        _STARTED.append(self.process)
        deadline = time.time() + 120
        self.base = None
        while time.time() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            print(f"  server: {line.rstrip()}")
            if line.startswith("READY "):
                self.base = line.split(None, 1)[1].strip()
                self.client = Client([self.base], retry_refused=bool(cluster))
                return
        raise RuntimeError("server did not print READY within 120s")

    def request(self, method: str, path: str, body=None) -> bytes:
        return self.client.request(method, path, body)

    def stop(self) -> None:
        """Graceful SIGTERM shutdown; waits for the state snapshot."""
        self.process.send_signal(signal.SIGTERM)
        remaining = self.process.communicate(timeout=30)[0]
        for line in remaining.splitlines():
            print(f"  server: {line}")
        if self.process.returncode != 0:
            raise RuntimeError(f"server exited with {self.process.returncode}")

    def wait_crashed(self) -> None:
        """Wait for the armed fault's SIGKILL to land."""
        if self.process.wait(timeout=30) != -signal.SIGKILL:
            raise RuntimeError(
                f"expected a SIGKILL crash, got exit {self.process.returncode}"
            )
        remaining = self.process.stdout.read() or ""
        for line in remaining.splitlines():
            print(f"  server: {line}")


class StepRecorder:
    """Writes http_<step>.json / local_<step>.json pairs and verifies them."""

    def __init__(self, outdir: Path) -> None:
        self.outdir = outdir
        self.pairs: list[str] = []

    def record(self, step: str, http_bytes: bytes, local_bytes: bytes) -> None:
        (self.outdir / f"http_{step}.json").write_bytes(http_bytes)
        (self.outdir / f"local_{step}.json").write_bytes(local_bytes)
        self.pairs.append(step)

    def verify(self) -> int:
        print("== verify: every HTTP body byte-identical to the facade")
        failures = 0
        for step in self.pairs:
            http_bytes = (self.outdir / f"http_{step}.json").read_bytes()
            local_bytes = (self.outdir / f"local_{step}.json").read_bytes()
            status = "ok" if http_bytes == local_bytes else "MISMATCH"
            failures += status != "ok"
            print(f"  {step:20} {status}")
        print(f"pairs written to {self.outdir} ({len(self.pairs)} steps)")
        return failures


def record_surfaces(recorder: StepRecorder, suffix: str,
                    server: ServerProcess, local: OpenWorldSession) -> None:
    """Record every served surface against the facade."""
    recorder.record(
        f"estimate_{suffix}",
        server.request("GET", "/sessions/smoke/estimate"),
        dumps_result(local.estimate().to_dict()),
    )
    recorder.record(
        f"query_{suffix}",
        server.request("POST", "/sessions/smoke/query", {"sql": SQL}),
        dumps_result(local.query(SQL).to_dict()),
    )
    recorder.record(
        f"snapshot_{suffix}",
        server.request("GET", "/sessions/smoke/snapshot"),
        dumps_result(local.snapshot().to_dict()),
    )


def run_graceful(outdir: Path, wal_fsync: str, store: str | None) -> int:
    """The original smoke flow: SIGTERM mid-stream, restart, resume."""
    recorder = StepRecorder(outdir)
    state_dir = outdir / "state"
    local = OpenWorldSession(ATTRIBUTE, estimator=ESTIMATOR)

    print("== phase 1: serve, ingest two chunks, answer queries")
    server = ServerProcess(state_dir, wal_fsync=wal_fsync, store=store)
    server.request(
        "POST",
        "/sessions",
        {"name": "smoke", "attribute": ATTRIBUTE, "estimator": ESTIMATOR},
    )
    for index, chunk in enumerate(CHUNKS[:2]):
        server.request(
            "POST", "/sessions/smoke/ingest", {"observations": to_bodies(chunk)}
        )
        local.ingest(to_observations(chunk))
        recorder.record(
            f"estimate_{index}",
            server.request("GET", "/sessions/smoke/estimate"),
            dumps_result(local.estimate().to_dict()),
        )
    recorder.record(
        "query",
        server.request("POST", "/sessions/smoke/query", {"sql": SQL}),
        dumps_result(local.query(SQL).to_dict()),
    )
    recorder.record(
        "snapshot_mid",
        server.request("GET", "/sessions/smoke/snapshot"),
        dumps_result(local.snapshot().to_dict()),
    )

    print("== phase 2: SIGTERM (snapshots state), restart, resume the stream")
    server.stop()
    server = ServerProcess(state_dir, wal_fsync=wal_fsync, store=store)
    server.request(
        "POST", "/sessions/smoke/ingest", {"observations": to_bodies(CHUNKS[2])}
    )
    local.ingest(to_observations(CHUNKS[2]))
    record_surfaces(recorder, "resumed", server, local)
    server.stop()
    return recorder.verify()


def reconcile(server: ServerProcess) -> int:
    """Resend whatever the recovered ``state_version`` does not cover.

    This is the persisted ingest's client contract: an unacknowledged
    ingest was either logged (the recovered version already covers it;
    skip) or lost (resend).  Nothing gets applied twice.
    """
    sessions = {
        entry["session"]: entry
        for entry in json.loads(server.request("GET", "/sessions"))["sessions"]
    }
    if "smoke" not in sessions:
        server.request(
            "POST",
            "/sessions",
            {"name": "smoke", "attribute": ATTRIBUTE, "estimator": ESTIMATOR},
        )
        version = 0
    else:
        version = sessions["smoke"]["state_version"]
    print(f"  recovered state_version={version}; resending {len(CHUNKS) - version} chunk(s)")
    for chunk in CHUNKS[version:]:
        server.request(
            "POST", "/sessions/smoke/ingest", {"observations": to_bodies(chunk)}
        )
    return version


def run_chaos(outdir: Path, faults: str, wal_fsync: str, store: str | None) -> int:
    """Chaos flow: armed fault SIGKILLs the server; restart + reconcile."""
    recorder = StepRecorder(outdir)
    state_dir = outdir / "state"
    local = OpenWorldSession(ATTRIBUTE, estimator=ESTIMATOR)
    for chunk in CHUNKS:
        local.ingest(to_observations(chunk))

    print(f"== phase 1: serve with REPRO_FAULTS={faults!r}, drive until the crash")
    server = ServerProcess(state_dir, faults=faults, wal_fsync=wal_fsync,
                           store=store)
    crashed = False
    try:
        server.request(
            "POST",
            "/sessions",
            {"name": "smoke", "attribute": ATTRIBUTE, "estimator": ESTIMATOR},
        )
        for chunk in CHUNKS:
            server.request(
                "POST", "/sessions/smoke/ingest", {"observations": to_bodies(chunk)}
            )
    except ServerDied as died:
        print(f"  crash observed mid-stream: {died}")
        crashed = True
    if not crashed:
        raise RuntimeError(f"fault spec {faults!r} never fired during the stream")
    server.wait_crashed()

    print("== phase 2: restart on the same state dir, reconcile, compare")
    server = ServerProcess(state_dir, wal_fsync=wal_fsync, store=store)
    reconcile(server)
    record_surfaces(recorder, "recovered", server, local)

    print("== phase 3: graceful checkpoint, third boot, compare again")
    server.stop()
    server = ServerProcess(state_dir, wal_fsync=wal_fsync, store=store)
    if reconcile(server) != len(CHUNKS):
        raise RuntimeError("checkpointed state lost committed chunks")
    record_surfaces(recorder, "checkpointed", server, local)
    server.stop()
    return recorder.verify()


def ingest_stream(client: Client) -> None:
    """Exactly-once delivery of CHUNKS, whatever crashes along the way.

    The committed ``state_version`` is the source of truth: each loop
    re-reads it and sends only the first uncovered chunk, so a chunk
    whose acknowledgement was lost to a worker crash is never resent
    (the version already covers it) and a lost chunk always is.
    """
    while True:
        listing = json.loads(client.request("GET", "/sessions"))
        sessions = {entry["session"]: entry for entry in listing["sessions"]}
        if "smoke" not in sessions:
            try:
                client.request(
                    "POST",
                    "/sessions",
                    {"name": "smoke", "attribute": ATTRIBUTE, "estimator": ESTIMATOR},
                )
            except urllib.error.HTTPError as exc:
                if exc.code != 409:  # 409 = a lost-ack retry already created it
                    raise
            version = 0
        else:
            version = sessions["smoke"]["state_version"]
        if version >= len(CHUNKS):
            return
        try:
            client.request_once(
                "POST",
                "/sessions/smoke/ingest",
                {"observations": to_bodies(CHUNKS[version])},
            )
        except (urllib.error.HTTPError, ConnectionError, ServerDied) as exc:
            # Worker crashed or shed mid-delivery; the next loop
            # re-reads the committed version and reconciles.
            print(f"  ingest attempt for chunk {version} failed ({exc}); reconciling")
            time.sleep(0.2 + _rng.uniform(0, 0.3))


def run_cluster_flow(outdir: Path, workers: int, replicas: int,
                     faults: str | None, wal_fsync: str, store: str | None) -> int:
    """Cluster mode: chaos ingest, forced rebalance, rolling restart."""
    recorder = StepRecorder(outdir)
    state_dir = outdir / "state"
    local = OpenWorldSession(ATTRIBUTE, estimator=ESTIMATOR)
    for chunk in CHUNKS:
        local.ingest(to_observations(chunk))

    print(f"== phase 1: boot cluster --workers {workers} --replicas {replicas}"
          + (f" with REPRO_FAULTS={faults!r}" if faults else ""))
    server = ServerProcess(state_dir, faults=faults, wal_fsync=wal_fsync,
                           store=store, cluster=(workers, replicas))
    ingest_stream(server.client)
    if faults:
        stamp_dir = state_dir.parent / "fault-stamps"
        if not any(stamp_dir.iterdir()):
            raise RuntimeError(f"fault spec {faults!r} never fired during the stream")
        print(f"  fault fired: {[p.name for p in stamp_dir.iterdir()]}")
    record_surfaces(recorder, "ingested", server, local)

    print("== phase 2: forced rebalance (scale out by one worker)")
    report = json.loads(server.request("POST", "/cluster/workers"))
    moved = [entry["session"] for entry in report["moved"]]
    print(f"  added {report['added']['name']}; moved session(s): {moved or 'none'}")
    record_surfaces(recorder, "rebalanced", server, local)

    print("== phase 3: rolling restart under the same session")
    report = json.loads(server.request("POST", "/cluster/restart"))
    restarted = [entry["worker"] for entry in report["restarted"]]
    print(f"  rolled: {', '.join(restarted)}")
    record_surfaces(recorder, "rolled", server, local)
    server.stop()
    return recorder.verify()


def run_client_flow(outdir: Path, bases: list[str]) -> int:
    """--base-url mode: drive an externally managed server or router."""
    recorder = StepRecorder(outdir)
    local = OpenWorldSession(ATTRIBUTE, estimator=ESTIMATOR)
    for chunk in CHUNKS:
        local.ingest(to_observations(chunk))
    client = Client(bases, retry_refused=True)
    print(f"== driving {len(bases)} base URL(s): {', '.join(bases)}")
    ingest_stream(client)
    record_surfaces(recorder, "client", client, local)
    return recorder.verify()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, required=True)
    parser.add_argument(
        "--faults",
        default=None,
        help="REPRO_FAULTS spec to arm in the server (chaos mode), "
        "e.g. 'storage.after_frame:crash@2'",
    )
    parser.add_argument(
        "--wal-fsync",
        default="batch",
        choices=["always", "batch", "never"],
        help="segment-log fsync policy for the server (default: batch)",
    )
    parser.add_argument(
        "--store",
        default=None,
        choices=["memory", "disk"],
        help="pass --store to the server under test (see 'serve --store'); "
        "omitted by default",
    )
    parser.add_argument(
        "--cluster",
        type=int,
        default=None,
        metavar="N",
        help="drive a 'repro.cli cluster' router over N process workers "
        "(chaos + forced rebalance + rolling restart)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="replica count for --cluster (default: 1)",
    )
    parser.add_argument(
        "--base-url",
        action="append",
        default=None,
        metavar="URL",
        help="drive an already-running server/router at URL instead of "
        "spawning one (repeatable; requests rotate over the list and "
        "refused connections are retried with jittered backoff)",
    )
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.base_url:
            failures = run_client_flow(args.outdir, args.base_url)
        elif args.cluster:
            failures = run_cluster_flow(
                args.outdir, args.cluster, args.replicas, args.faults,
                args.wal_fsync, args.store,
            )
        elif args.faults:
            failures = run_chaos(args.outdir, args.faults, args.wal_fsync, args.store)
        else:
            failures = run_graceful(args.outdir, args.wal_fsync, args.store)
    finally:
        # A flow that raised left its server running; a cluster's workers
        # die with their router (PR_SET_PDEATHSIG).
        for process in _STARTED:
            if process.poll() is None:
                process.kill()
                process.wait()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
