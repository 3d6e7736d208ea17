"""Boot a whole cluster: fleet + router, one address, graceful teardown.

:func:`make_cluster` is the embeddable constructor (tests, benchmarks):
it boots the worker fleet, reconciles, and returns a bound-but-not-yet
-serving :class:`~repro.cluster.router.RouterServer`.  :func:`run_cluster`
is the CLI entry point: it serves until SIGINT/SIGTERM, printing the
same ``READY http://host:port`` line as the single server so every
wrapper (smoke drivers, CI, benchmarks) can treat a cluster as just a
server with a different flag.
"""

from __future__ import annotations

import signal
import tempfile
import threading
from typing import Any

from repro.cluster.fleet import Fleet
from repro.cluster.router import ClusterRouter, RouterServer

__all__ = ["make_cluster", "run_cluster"]


def make_cluster(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    workers: int = 2,
    replicas: int = 1,
    state_dir: "str | None" = None,
    mode: str = "process",
    wal_fsync: str = "batch",
    cache_entries: "int | None" = None,
    max_inflight: "int | None" = None,
    backend: "str | None" = None,
) -> "tuple[RouterServer, ClusterRouter, Fleet]":
    """Boot fleet + router and bind the router socket (not yet serving).

    Without a ``state_dir`` the cluster runs on a throwaway temporary
    directory -- durable across worker restarts within the run, gone
    afterwards.  The caller owns the teardown order: router ``stop``,
    then fleet ``stop``, then server close.
    """
    if state_dir is None:
        # Keep a reference on the fleet so the directory outlives boot.
        scratch = tempfile.TemporaryDirectory(prefix="repro-cluster-")
        state_dir = scratch.name
    else:
        scratch = None
    fleet = Fleet(
        state_dir,
        mode=mode,
        wal_fsync=wal_fsync,
        cache_entries=cache_entries,
        worker_max_inflight=max_inflight,
        backend=backend,
    )
    fleet.start(workers)
    fleet._scratch_dir = scratch  # noqa: SLF001 - lifetime anchor only
    router = ClusterRouter(fleet, replicas=replicas)
    server = RouterServer((host, port), router)
    return server, router, fleet


def run_cluster(
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    workers: int = 2,
    replicas: int = 1,
    state_dir: "str | None" = None,
    wal_fsync: str = "batch",
    cache_entries: "int | None" = None,
    max_inflight: "int | None" = None,
    backend: "str | None" = None,
) -> int:
    """Serve the cluster until SIGINT/SIGTERM, then stop workers gracefully.

    Boot order mirrors the single server's recovery contract: the router
    socket accepts first (``/healthz`` answers, ``/readyz`` says
    "recovering"), then the fleet's shards are reconciled into one
    placement, and only then is ``READY http://host:port`` printed.
    Shutdown is graceful end to end -- each worker checkpoints its shard
    -- so a subsequent boot restores every session byte-identically.
    Every worker is its own ``serve`` process.
    """
    server, router, fleet = make_cluster(
        host,
        port,
        workers=workers,
        replicas=replicas,
        state_dir=state_dir,
        wal_fsync=wal_fsync,
        cache_entries=cache_entries,
        max_inflight=max_inflight,
        backend=backend,
    )
    stop = threading.Event()
    previous_handlers = {}

    def request_shutdown(signum: int, frame: Any) -> None:
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        previous_handlers[signum] = signal.signal(signum, request_shutdown)
    serve_thread = threading.Thread(
        target=server.serve_forever, name="repro-cluster-router", daemon=True
    )
    serve_thread.start()
    router.start()
    bound_host, bound_port = server.server_address[:2]
    print(
        f"cluster: {workers} worker(s) x {replicas} replica(s), "
        f"state_dir={fleet.state_dir}",
        flush=True,
    )
    print(f"READY http://{bound_host}:{bound_port}", flush=True)
    try:
        stop.wait()
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        router.stop()
        server.shutdown()
        serve_thread.join()
        server.server_close()
        fleet.stop(graceful=True)
        print(f"stopped {len(fleet.names())} worker(s)", flush=True)
    return 0
