"""The serve-worker fleet: spawn, health-check, restart, drain.

A *worker* is one complete :mod:`repro.serving` server -- its own
:class:`~repro.serving.registry.SessionRegistry`, answer cache and
state-dir shard (``<state-dir>/<worker-name>/``, one segment-log store
per session) -- reached only over HTTP.  Workers share **nothing**: the router
(:mod:`repro.cluster.router`) is the single place that knows more than
one of them exists.

Two spawn modes, same contract:

``process`` (production, the CLI default)
    ``python -m repro.cli serve --port 0 --state-dir <shard>`` as a real
    subprocess.  N workers are N interpreters, so N cold Monte-Carlo
    misses run on N cores -- the GIL escape the cluster exists for.  On
    Linux each child arms ``PR_SET_PDEATHSIG`` so a SIGKILLed supervisor
    cannot leak orphans; orphan death is ungraceful by design, which is
    exactly what the workers' segment logs are for.

``thread`` (tests, examples)
    The same :func:`repro.serving.http.make_server` stack on an
    in-process daemon thread.  Real sockets, real shared-nothing state
    dirs, ~1000x faster to boot -- the cluster test suite would be
    unrunnable on subprocess spawns alone.

:class:`Worker` objects are *stable identities*: the name (``w0``,
``w1``...) is what sits on the hash ring and never changes, while the
bound address changes on every (re)start.  The router always reads
``worker.base`` at proxy time, so a restart needs no routing-table
surgery.

:class:`Fleet` supervises: a monitor thread polls liveness, and a
worker that died without being asked (crash, OOM, injected SIGKILL) is
respawned on its same state-dir shard -- the worker's own recovery
then re-attaches every session store it owned, byte-identically.
Graceful stops (:meth:`Worker.stop`) SIGTERM the worker so it
checkpoints first.

After boot the monitor thread makes every start -- respawns, scale-out
and rolling restarts alike -- and stops the workers when the fleet
stops.  ``PR_SET_PDEATHSIG`` fires when the *thread* that forked a
child exits, so a worker forked on a short-lived request thread would
be killed as soon as that request ended; and with one starting thread
no worker is ever started twice at once.
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Any, Callable

from repro.utils.exceptions import ReproError

__all__ = [
    "Fleet",
    "Worker",
    "WorkerUnavailableError",
    "worker_request",
    "worker_request_json",
    "worker_stream",
]

#: How long to wait for a worker's READY line / readyz before giving up.
START_TIMEOUT = 60.0

#: Default liveness-poll interval of the supervision thread.
SUPERVISE_INTERVAL = 0.25


class WorkerUnavailableError(ReproError):
    """The worker's socket refused/died -- it is down or mid-restart.

    The router maps this to HTTP 503 + ``Retry-After`` so clients retry
    instead of hanging; the supervisor is meanwhile restarting the
    worker.
    """


def worker_request(
    base: str,
    method: str,
    path: str,
    body: Any = None,
    *,
    headers: "dict[str, str] | None" = None,
    timeout: float = 60.0,
) -> "tuple[int, bytes, dict[str, str]]":
    """One HTTP request to a worker; returns ``(status, body, headers)``.

    A read-all over :func:`worker_stream`.  Connection-level failures
    (refused, reset, torn mid-response) raise
    :class:`WorkerUnavailableError`; HTTP error statuses do *not* -- the
    caller forwards them verbatim (the router's byte-identity contract
    covers error bodies too).
    """
    if body is not None:
        headers = {"Content-Type": "application/json", **(headers or {})}
    status, response, connection = worker_stream(
        base, method, path, body, headers=headers, timeout=timeout
    )
    try:
        return status, response.read(), dict(response.getheaders())
    except (http.client.HTTPException, OSError) as exc:
        raise _unavailable(base, exc) from exc
    finally:
        connection.close()


def worker_stream(
    base: str,
    method: str,
    path: str,
    body: Any = None,
    *,
    headers: "dict[str, str] | None" = None,
    timeout: float = 60.0,
) -> "tuple[int, Any, http.client.HTTPConnection]":
    """Open a request without buffering; returns ``(status, response, conn)``.

    The one place the router->worker leg opens connections.  The caller
    reads the response incrementally (``response.read(n)``) and
    **must** close the returned connection when done.  ``body`` may be
    bytes or a file-like object with ``read`` -- pass an explicit
    ``Content-Length`` header with a file-like body so http.client
    streams it instead of chunking.
    """
    host, _, port = base.rpartition("://")[2].partition(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        connection.request(method, path, body=body, headers=dict(headers or {}))
        response = connection.getresponse()
        return response.status, response, connection
    except (http.client.HTTPException, OSError) as exc:
        connection.close()
        raise _unavailable(base, exc) from exc


def _unavailable(base: str, exc: Exception) -> WorkerUnavailableError:
    return WorkerUnavailableError(
        f"worker at {base} is unavailable: {type(exc).__name__}: {exc}"
    )


def worker_request_json(
    base: str,
    method: str,
    path: str,
    body: "dict[str, Any] | None" = None,
    *,
    timeout: float = 60.0,
) -> "tuple[int, Any]":
    """:func:`worker_request` with JSON encode/decode on both sides."""
    raw = json.dumps(body).encode("utf-8") if body is not None else None
    status, payload, _ = worker_request(base, method, path, raw, timeout=timeout)
    return status, (json.loads(payload) if payload else None)


def _linux_pdeathsig() -> "Callable[[], None] | None":
    """A preexec_fn arming PR_SET_PDEATHSIG=SIGKILL, or None off-Linux."""
    if not sys.platform.startswith("linux"):  # pragma: no cover - linux CI
        return None
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
    except OSError:  # pragma: no cover - exotic libc
        return None
    PR_SET_PDEATHSIG = 1

    def preexec() -> None:  # pragma: no cover - runs in the child
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)

    return preexec


class Worker:
    """One serve worker: stable name + state shard, restartable address."""

    def __init__(
        self,
        name: str,
        state_dir: Path,
        *,
        mode: str = "process",
        wal_fsync: str = "batch",
        cache_entries: "int | None" = None,
        max_inflight: "int | None" = None,
        backend: "str | None" = None,
    ) -> None:
        if mode not in ("process", "thread"):
            raise ReproError(f"unknown worker mode {mode!r}")
        self.name = name
        self.state_dir = Path(state_dir)
        self.mode = mode
        self.wal_fsync = wal_fsync
        self.cache_entries = cache_entries
        self.max_inflight = max_inflight
        self.backend = backend
        self.base: "str | None" = None
        self.restarts = -1  # first start() brings this to 0
        self.ready = False
        self.stopping = False
        # Last few subprocess output lines, for crash diagnostics.
        self.tail: "collections.deque[str]" = collections.deque(maxlen=50)
        self._process: "subprocess.Popen[str] | None" = None
        self._server: Any = None
        self._serve_thread: "threading.Thread | None" = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """(Re)start the worker on its state shard; blocks until READY."""
        self.stopping = False
        self.ready = False
        self.state_dir.mkdir(parents=True, exist_ok=True)
        if self.mode == "process":
            self._start_process()
        else:
            self._start_thread()
        self.restarts += 1
        self.ready = True

    def _serve_args(self) -> list[str]:
        args = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--state-dir",
            str(self.state_dir),
            "--wal-fsync",
            self.wal_fsync,
        ]
        if self.cache_entries is not None:
            args += ["--cache-size", str(self.cache_entries)]
        if self.max_inflight is not None:
            args += ["--max-inflight", str(self.max_inflight)]
        if self.backend is not None:
            args += ["--backend", self.backend]
        return args

    def _start_process(self) -> None:
        self._process = subprocess.Popen(
            self._serve_args(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            preexec_fn=_linux_pdeathsig(),
        )
        deadline = time.monotonic() + START_TIMEOUT
        assert self._process.stdout is not None
        while time.monotonic() < deadline:
            line = self._process.stdout.readline()
            if not line:
                raise WorkerUnavailableError(
                    f"worker {self.name} exited during startup "
                    f"(rc={self._process.poll()}); tail: {list(self.tail)[-5:]}"
                )
            self.tail.append(line.rstrip())
            if line.startswith("READY "):
                self.base = line.split(None, 1)[1].strip()
                drain = threading.Thread(
                    target=self._drain_stdout,
                    name=f"{self.name}-stdout",
                    daemon=True,
                )
                drain.start()
                return
        raise WorkerUnavailableError(
            f"worker {self.name} did not print READY within {START_TIMEOUT}s"
        )

    def _drain_stdout(self) -> None:
        process = self._process
        if process is None or process.stdout is None:  # pragma: no cover
            return
        for line in process.stdout:
            self.tail.append(line.rstrip())

    def _start_thread(self) -> None:
        from repro.serving.http import make_server

        self._server = make_server(
            "127.0.0.1",
            0,
            state_dir=str(self.state_dir),
            wal_fsync=self.wal_fsync,
            cache_entries=self.cache_entries,
            max_inflight=self.max_inflight,
            backend=self.backend,
        )
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever, name=f"{self.name}-serve", daemon=True
        )
        self._serve_thread.start()
        host, port = self._server.server_address[:2]
        self.base = f"http://{host}:{port}"

    def alive(self) -> bool:
        """Is the worker's serving loop up (irrespective of readiness)?"""
        if self.mode == "process":
            return self._process is not None and self._process.poll() is None
        return self._serve_thread is not None and self._serve_thread.is_alive()

    def stop(self, graceful: bool = True, timeout: float = START_TIMEOUT) -> None:
        """Stop the worker.  Graceful stops checkpoint the state shard."""
        self.stopping = True
        self.ready = False
        if self.mode == "process":
            process = self._process
            if process is None or process.poll() is not None:
                return
            process.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
            try:
                process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:  # pragma: no cover - hung child
                process.kill()
                process.wait(timeout=timeout)
            return
        server = self._server
        if server is None:
            return
        server.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=timeout)
        server.server_close()
        if graceful:
            server.registry.save_state()
        self._server = None
        self._serve_thread = None

    def kill(self) -> None:
        """Ungraceful death (crash semantics): no checkpoint, no goodbye."""
        self.stop(graceful=False)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def pid(self) -> "int | None":
        return self._process.pid if self._process is not None else None

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "base": self.base,
            "mode": self.mode,
            "alive": self.alive(),
            "ready": self.ready,
            "restarts": max(self.restarts, 0),
            "pid": self.pid,
            "state_dir": str(self.state_dir),
        }


class Fleet:
    """Spawns and supervises the worker set of one cluster.

    The fleet owns worker *identities* (names, state shards, restart
    counts); the router owns *placement* (which sessions live where).
    ``on_worker_restart`` is the seam between them: the router registers
    a callback and re-checks placement/replication for the sessions of a
    freshly respawned worker.
    """

    def __init__(
        self,
        state_dir: "str | os.PathLike[str]",
        *,
        mode: str = "process",
        wal_fsync: str = "batch",
        cache_entries: "int | None" = None,
        worker_max_inflight: "int | None" = None,
        backend: "str | None" = None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.mode = mode
        self._worker_kwargs = {
            "mode": mode,
            "wal_fsync": wal_fsync,
            "cache_entries": cache_entries,
            "max_inflight": worker_max_inflight,
            "backend": backend,
        }
        self._workers: dict[str, Worker] = {}
        self._lock = threading.Lock()
        self._next_index = 0
        self._monitor: "threading.Thread | None" = None
        self._stop_monitor = threading.Event()
        self._stop_graceful = True
        # Starts other threads hand to the monitor, each with the future
        # its caller waits on.
        self._calls: "collections.deque[tuple[Callable[[], Any], Future]]" = (
            collections.deque()
        )
        self._wake = threading.Event()
        self.on_worker_restart: "Callable[[Worker], None] | None" = None

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    def spawn(self) -> Worker:
        """Start one new worker (used at boot and for scale-out).

        The worker joins the fleet once it is up, so a start that fails
        leaves no member for the supervisor to revive.
        """
        with self._lock:
            name = f"w{self._next_index}"
            self._next_index += 1
        worker = Worker(name, self.state_dir / name, **self._worker_kwargs)

        def start() -> None:
            worker.start()
            with self._lock:
                self._workers[name] = worker

        self._run_start(start)
        return worker

    def _run_start(self, start: "Callable[[], None]") -> None:
        """Run ``start`` on the thread that makes every start.

        That is the calling thread during boot, and the monitor thread
        once :meth:`start` has launched it.
        """
        with self._lock:
            if self._monitor is None:
                done = None
            elif self._stop_monitor.is_set():
                raise WorkerUnavailableError("the fleet is stopping")
            else:
                done = Future()
                self._calls.append((start, done))
        if done is None:
            start()
            return
        self._wake.set()
        done.result()

    def start(self, n_workers: int) -> list[Worker]:
        """Boot the initial fleet and the supervision thread."""
        if n_workers < 1:
            raise ReproError(f"a cluster needs >= 1 worker, got {n_workers}")
        workers = [self.spawn() for _ in range(n_workers)]
        self._stop_monitor.clear()
        self._monitor = threading.Thread(
            target=self._supervise, name="fleet-supervisor", daemon=True
        )
        self._monitor.start()
        return workers

    def worker(self, name: str) -> Worker:
        with self._lock:
            worker = self._workers.get(name)
        if worker is None:
            raise ReproError(f"unknown worker {name!r}")
        return worker

    def workers(self) -> list[Worker]:
        """Stable-ordered (w0, w1, ...) live worker handles."""
        with self._lock:
            return [self._workers[name] for name in sorted(self._workers, key=lambda n: int(n[1:]))]

    def names(self) -> list[str]:
        return [worker.name for worker in self.workers()]

    # ------------------------------------------------------------------ #
    # Supervision
    # ------------------------------------------------------------------ #

    def _supervise(self) -> None:
        while not self._stop_monitor.is_set():
            self._wake.wait(SUPERVISE_INTERVAL)
            self._wake.clear()
            while True:
                with self._lock:
                    if not self._calls:
                        break
                    start, done = self._calls.popleft()
                try:
                    start()
                except Exception as exc:  # the waiting caller re-raises it
                    done.set_exception(exc)
                else:
                    done.set_result(None)
            self._respawn_dead()
        with self._lock:
            pending, self._calls = self._calls, collections.deque()
        for _, done in pending:
            done.set_exception(WorkerUnavailableError("the fleet is stopping"))
        # The workers this thread started die with it, so stop them first.
        for worker in self.workers():
            worker.stop(graceful=self._stop_graceful)

    def _respawn_dead(self) -> None:
        for worker in self.workers():
            if self._stop_monitor.is_set():
                return
            if worker.stopping or worker.alive():
                continue
            try:
                worker.tail.append(
                    f"[supervisor] worker {worker.name} died; restarting"
                )
                worker.start()
            except WorkerUnavailableError:  # pragma: no cover - retried
                continue  # next tick retries
            callback = self.on_worker_restart
            if callback is not None:
                callback(worker)

    def restart_worker(self, name: str, *, graceful: bool = True) -> Worker:
        """Stop-and-start one worker in place (the rolling-restart step).

        A graceful restart checkpoints the shard first; the respawned
        worker re-attaches whatever its stores hold.  The
        ``stopping`` flag parks the supervisor's liveness check until its
        thread makes the start.
        """
        worker = self.worker(name)
        worker.stop(graceful=graceful)
        self._run_start(worker.start)
        callback = self.on_worker_restart
        if callback is not None:
            callback(worker)
        return worker

    def stop(self, graceful: bool = True) -> None:
        """Stop every worker (graceful = checkpointed), then supervision.

        The monitor thread stops the workers on its way out: a worker it
        started is SIGKILLed when the thread exits, checkpoint or not.
        """
        self._stop_graceful = graceful
        self._stop_monitor.set()
        self._wake.set()
        if self._monitor is None:
            for worker in self.workers():
                worker.stop(graceful=graceful)
        else:
            self._monitor.join()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def describe(self) -> list[dict[str, Any]]:
        return [worker.describe() for worker in self.workers()]
