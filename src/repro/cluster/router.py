"""The cluster router: one address, N shared-nothing serve workers.

The router speaks **exactly** the single-server HTTP/JSON API
(:mod:`repro.serving.http`): every session route is proxied to the
owning worker and the response body is forwarded *verbatim*, so a body
served through the router is byte-identical to the same request against
a lone server -- the smoke driver and the chaos suite generalize to the
fleet with nothing but a different base URL.  Its handler subclasses the
server's :class:`~repro.serving.http.ApiHandler`, so body bounds, query
validation, the error table and the writers are the server's own; it
adds the proxy routes and relays each worker body with the headers in
:data:`RELAYED_HEADERS`.

Placement is the consistent-hash ring (:mod:`repro.cluster.hashring`):
``preference(name, R)`` names the primary (entry 0) and the ``R-1``
read replicas.  The router enforces the cluster's traffic discipline:

* **ingests go to the primary** -- the single writer per session; the
  ack's ``state_version`` is recorded and a snapshot push to the
  replicas is scheduled (one background replication thread, newest
  push wins);
* **estimate reads fan out**: round-robin over the preference workers
  whose last pushed ``state_version`` matches the primary's -- a stale
  or unknown replica is simply skipped, so a replica answer is always
  byte-identical to the primary's (snapshot/restore parity + the nulled
  runtime block);
* **a migrating session sheds, never hangs**: requests arriving inside
  a migration window get HTTP 503 + ``Retry-After`` (the same
  contract as the admission gate), and the window itself is bounded by
  quiesce -- the migration starts only after in-flight requests drain;
* **a dead worker degrades, never errors**: a refused/torn proxy leg
  becomes 503 + ``Retry-After`` while the fleet supervisor respawns the
  worker and its recovery re-attaches every session it owned.

Aggregation stays shared-nothing: ``/stats`` and ``/sessions`` are
fan-out reads over the workers merged at the router (each session
reported by its placement worker), ``/readyz`` is the conjunction of
worker readiness and the router's own reconciliation phase.

On boot the router **reconciles**: it lists every worker's sessions,
and for each name keeps the highest-``state_version`` copy (migrating
it to the ring placement if a crash mid-migration left it elsewhere),
records matching replica copies, and deletes off-placement leftovers.
Because migration quiesces writes, duplicate copies can only exist at
*equal* versions -- either copy is byte-identical, which is what makes
the crash-interrupted transfer exactly-once (see
:mod:`repro.cluster.migration`).

Admin surface (cluster-only, not part of the single-server API)::

    GET  /cluster           topology: workers, ring, placements, replicas
    POST /cluster/workers   scale out by one worker and rebalance onto it
    POST /cluster/restart   rolling restart: drain -> restart -> restore, per worker
"""

from __future__ import annotations

import json
import queue
import shutil
import threading
import time
from http.server import ThreadingHTTPServer
from typing import Any
from urllib.parse import urlencode

from repro.cluster.fleet import (
    Fleet,
    Worker,
    WorkerUnavailableError,
    worker_request,
    worker_request_json,
    worker_stream,
)
from repro.cluster.hashring import HashRing
from repro.cluster.migration import MigrationError, fetch_snapshot, migrate_session
from repro.serving.http import IO_CHUNK_BYTES, ApiHandler, RouteError
from repro.utils.exceptions import ReproError, ValidationError

__all__ = ["ClusterRouter", "RouterServer", "SessionMigratingError"]

#: Retry-After hint for requests shed in a migration window.
SHED_RETRY_AFTER = 1.0

#: The worker response headers a relay passes on (lower-cased); the
#: writer adds Content-Length and Connection itself.
RELAYED_HEADERS = frozenset(
    {
        "content-type",
        "content-encoding",
        "vary",
        "retry-after",
        "x-repro-state-version",
    }
)

#: How long a relayed subscription keeps trying to re-reach a primary
#: (migration window, rolling restart, crash respawn) before giving up
#: and ending the client's stream.  The client resumes losslessly with
#: ``?from_version=<last id + 1>``.
SUBSCRIBE_RECONNECT_WINDOW = 15.0

#: Pause between relay reconnect attempts.
SUBSCRIBE_RECONNECT_PAUSE = 0.2


class SessionMigratingError(ReproError):
    """The session is mid-migration; retry shortly (HTTP 503)."""

    def __init__(self, name: str) -> None:
        super().__init__(
            f"session {name!r} is migrating between workers; retry shortly"
        )
        self.retry_after = SHED_RETRY_AFTER


class _RoutingTable:
    """Placement, migration quiesce, and replica bookkeeping.

    All state is router-local and rebuilt by reconciliation on boot --
    nothing here needs to be durable because placement is a pure
    function of the ring and the authoritative data lives in the
    workers' state shards.
    """

    def __init__(self, replicas: int) -> None:
        self.ring = HashRing()
        self.replicas = max(1, int(replicas))
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._migrating: set[str] = set()
        self._inflight: dict[str, int] = {}
        #: Overrides placement while a home worker is down for a rolling
        #: restart: name -> temporary preference list.
        self._overrides: dict[str, list[str]] = {}
        #: name -> last state_version acked by the primary.
        self._primary_version: dict[str, int] = {}
        #: (name, worker) -> state_version last pushed to that replica.
        self._replica_version: dict[tuple[str, str], int] = {}
        self._rr_counter: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #

    def preference(self, name: str) -> list[str]:
        with self._lock:
            override = self._overrides.get(name)
            if override is not None:
                return list(override)
        return self.ring.preference(name, self.replicas)

    def primary(self, name: str) -> str:
        return self.preference(name)[0]

    def set_override(self, name: str, workers: "list[str] | None") -> None:
        with self._lock:
            if workers is None:
                self._overrides.pop(name, None)
            else:
                self._overrides[name] = list(workers)

    # ------------------------------------------------------------------ #
    # Quiesce / in-flight accounting
    # ------------------------------------------------------------------ #

    def begin(self, name: str) -> None:
        with self._lock:
            if name in self._migrating:
                raise SessionMigratingError(name)
            self._inflight[name] = self._inflight.get(name, 0) + 1

    def end(self, name: str) -> None:
        with self._lock:
            count = self._inflight.get(name, 0) - 1
            if count <= 0:
                self._inflight.pop(name, None)
                self._drained.notify_all()
            else:
                self._inflight[name] = count

    def quiesce(self, name: str, timeout: float = 60.0) -> None:
        """Shed new requests for ``name`` and wait out the in-flight ones."""
        with self._lock:
            self._migrating.add(name)
            deadline = threading.TIMEOUT_MAX if timeout is None else timeout
            waited = self._drained.wait_for(
                lambda: self._inflight.get(name, 0) == 0, timeout=deadline
            )
            if not waited:
                self._migrating.discard(name)
                raise MigrationError(
                    f"session {name!r} did not drain within {timeout}s"
                )

    def resume(self, name: str) -> None:
        with self._lock:
            self._migrating.discard(name)

    def migrating(self) -> list[str]:
        with self._lock:
            return sorted(self._migrating)

    # ------------------------------------------------------------------ #
    # Version bookkeeping (replica read eligibility)
    # ------------------------------------------------------------------ #

    def record_primary(self, name: str, version: int) -> None:
        with self._lock:
            self._primary_version[name] = int(version)

    def primary_version(self, name: str) -> "int | None":
        with self._lock:
            return self._primary_version.get(name)

    def record_replica(self, name: str, worker: str, version: int) -> None:
        with self._lock:
            self._replica_version[(name, worker)] = int(version)

    def forget(self, name: str) -> None:
        with self._lock:
            self._primary_version.pop(name, None)
            self._overrides.pop(name, None)
            self._rr_counter.pop(name, None)
            for key in [k for k in self._replica_version if k[0] == name]:
                self._replica_version.pop(key)

    def forget_replicas_off(self, name: str, keep: "list[str]") -> None:
        with self._lock:
            for key in [
                k
                for k in self._replica_version
                if k[0] == name and k[1] not in keep
            ]:
                self._replica_version.pop(key)

    def known_sessions(self) -> list[str]:
        with self._lock:
            return sorted(self._primary_version)

    def read_target(self, name: str) -> "tuple[str, list[str]]":
        """The worker to send an estimate read to, plus the fallbacks.

        Candidates are the primary and every replica whose last pushed
        version matches the primary's acked version; the pick
        round-robins across them.  The fallback list (ending in the
        primary) absorbs a candidate that turns out to be down or to
        have lost the copy.
        """
        preference = self.preference(name)
        primary = preference[0]
        with self._lock:
            expected = self._primary_version.get(name)
            candidates = [primary]
            if expected is not None:
                for worker in preference[1:]:
                    if self._replica_version.get((name, worker)) == expected:
                        candidates.append(worker)
            turn = self._rr_counter.get(name, 0)
            self._rr_counter[name] = turn + 1
        chosen = candidates[turn % len(candidates)]
        fallbacks = [worker for worker in candidates if worker != chosen]
        if primary not in fallbacks and chosen != primary:
            fallbacks.append(primary)
        return chosen, fallbacks


class RouterServer(ThreadingHTTPServer):
    """The bound HTTP server carrying the :class:`ClusterRouter` state."""

    daemon_threads = True

    def __init__(self, address: "tuple[str, int]", router: "ClusterRouter") -> None:
        super().__init__(address, _RouterHandler)
        self.router = router


class ClusterRouter:
    """Routing, replication, reconciliation and admin logic of the fleet."""

    def __init__(self, fleet: Fleet, *, replicas: int = 1) -> None:
        self.fleet = fleet
        self.table = _RoutingTable(replicas)
        self.phase = "recovering"
        self._admin_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._counters = {
            "requests": 0,
            "primary_reads": 0,
            "replica_reads": 0,
            "shed_migrating": 0,
            "shed_unavailable": 0,
            "migrations": 0,
            "replica_pushes": 0,
        }
        self._replication_queue: "queue.Queue[str | None]" = queue.Queue()
        self._pending_replication: set[str] = set()
        self._pending_lock = threading.Lock()
        self._replication_thread: "threading.Thread | None" = None
        for worker in fleet.workers():
            self.table.ring.add(worker.name)
        fleet.on_worker_restart = self._worker_restarted

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Reconcile worker state into the routing table and go ready."""
        self._replication_thread = threading.Thread(
            target=self._replication_loop, name="router-replication", daemon=True
        )
        self._replication_thread.start()
        self.reconcile()
        self.phase = "ready"

    def stop(self) -> None:
        self.phase = "stopping"
        self._replication_queue.put(None)
        if self._replication_thread is not None:
            self._replication_thread.join(timeout=30)
            self._replication_thread = None

    def count(self, key: str, delta: int = 1) -> None:
        with self._stats_lock:
            self._counters[key] = self._counters.get(key, 0) + delta

    @property
    def ready(self) -> bool:
        if self.phase != "ready":
            return False
        return all(worker.ready for worker in self.fleet.workers())

    # ------------------------------------------------------------------ #
    # Proxy legs
    # ------------------------------------------------------------------ #

    def forward(
        self,
        worker_name: str,
        method: str,
        path: str,
        body: "bytes | None" = None,
        headers: "dict[str, str] | None" = None,
    ) -> "tuple[int, bytes, dict[str, str]]":
        worker = self.fleet.worker(worker_name)
        base = worker.base
        if base is None or not worker.ready:
            raise WorkerUnavailableError(
                f"worker {worker_name} is restarting; retry shortly"
            )
        return worker_request(base, method, path, body, headers=headers)

    def forward_stream(
        self,
        worker_name: str,
        method: str,
        path: str,
        body: Any = None,
        headers: "dict[str, str] | None" = None,
    ):
        """The streaming leg (store archives): ``(status, response, conn)``."""
        worker = self.fleet.worker(worker_name)
        base = worker.base
        if base is None or not worker.ready:
            raise WorkerUnavailableError(
                f"worker {worker_name} is restarting; retry shortly"
            )
        return worker_stream(base, method, path, body, headers=headers)

    # ------------------------------------------------------------------ #
    # Replication (primary snapshot -> replicas)
    # ------------------------------------------------------------------ #

    def schedule_replication(self, name: str) -> None:
        if self.table.replicas <= 1:
            return
        with self._pending_lock:
            if name in self._pending_replication:
                return  # a push is queued; it will read the newest snapshot
            self._pending_replication.add(name)
        self._replication_queue.put(name)

    def _replication_loop(self) -> None:
        while True:
            name = self._replication_queue.get()
            if name is None:
                return
            with self._pending_lock:
                self._pending_replication.discard(name)
            try:
                self.replicate_now(name)
            except (ReproError, OSError):
                # The next ingest re-schedules; a stale replica is merely
                # skipped by the read fan-out in the meantime.
                continue

    def replicate_now(self, name: str) -> int:
        """Push the primary's snapshot to every replica; returns push count."""
        preference = self.table.preference(name)
        if len(preference) < 2:
            return 0
        if name in self.table.migrating():
            return 0  # the migration itself will re-sync replicas
        primary = preference[0]
        worker = self.fleet.worker(primary)
        if worker.base is None or not worker.ready:
            return 0
        envelope = fetch_snapshot(worker.base, name)
        version = int(envelope["state_version"])
        pushed = 0
        for replica_name in preference[1:]:
            replica = self.fleet.worker(replica_name)
            if replica.base is None or not replica.ready:
                continue
            status, restored = worker_request_json(
                replica.base, "POST", f"/sessions/{name}/restore", envelope
            )
            if status == 200 and int(restored.get("state_version", -1)) >= version:
                self.table.record_replica(
                    name, replica_name, int(restored["state_version"])
                )
                pushed += 1
                self.count("replica_pushes")
        return pushed

    # ------------------------------------------------------------------ #
    # Migration / rebalancing / rolling restart
    # ------------------------------------------------------------------ #

    def migrate(
        self, name: str, source: str, dest: str, *, keep_source: bool = False
    ) -> dict[str, Any]:
        """Quiesced migration of one session between two workers."""
        self.table.quiesce(name)
        try:
            result = migrate_session(
                name,
                self.fleet.worker(source).base,
                self.fleet.worker(dest).base,
                keep_source=keep_source,
            )
        finally:
            self.table.resume(name)
        self.table.record_primary(name, int(result["state_version"]))
        if keep_source:
            self.table.record_replica(name, source, int(result["state_version"]))
        self.count("migrations")
        return result

    def add_worker(self) -> dict[str, Any]:
        """Scale out by one worker; migrate exactly the remapped arc."""
        with self._admin_lock:
            sessions = self.table.known_sessions()
            before = {name: self.table.preference(name) for name in sessions}
            worker = self.fleet.spawn()
            self.table.ring.add(worker.name)
            moved = self._rebalance(before)
        return {"added": worker.describe(), "moved": moved}

    def _rebalance(self, before: "dict[str, list[str]]") -> list[dict[str, Any]]:
        """Move sessions whose placement changed; re-sync changed replicas."""
        moved = []
        for name, old_pref in sorted(before.items()):
            new_pref = self.table.preference(name)
            if new_pref[0] != old_pref[0]:
                keep = old_pref[0] in new_pref[1:]
                result = self.migrate(
                    name, old_pref[0], new_pref[0], keep_source=keep
                )
                moved.append(result)
            self.table.forget_replicas_off(name, new_pref[1:])
            for worker_name in old_pref:
                if worker_name not in new_pref:
                    self._best_effort_delete(name, worker_name)
            if len(new_pref) > 1:
                self.schedule_replication(name)
        return moved

    def _best_effort_delete(self, name: str, worker_name: str) -> None:
        try:
            self.forward(worker_name, "DELETE", f"/sessions/{name}")
        except WorkerUnavailableError:
            pass  # the copy dies with the shard at the next reconcile

    def rolling_restart(self) -> dict[str, Any]:
        """Drain each worker in turn, restart it, and restore placement.

        With a lone worker there is nowhere to drain to: the worker is
        restarted in place and its own recovery re-attaches every
        session (requests during the window shed with 503).
        """
        with self._admin_lock:
            report = []
            for worker in list(self.fleet.names()):
                drained = self._drain(worker)
                self.fleet.restart_worker(worker, graceful=True)
                for name, fallback in drained:
                    self.migrate(name, fallback, worker)
                    self.table.set_override(name, None)
                    self.schedule_replication(name)
                report.append(
                    {"worker": worker, "drained": [name for name, _ in drained]}
                )
        return {"restarted": report}

    def _drain(self, worker_name: str) -> list[tuple[str, str]]:
        """Migrate every session primaried on ``worker_name`` elsewhere."""
        if len(self.fleet.names()) < 2:
            return []
        drained = []
        for name in self.table.known_sessions():
            preference = self.table.preference(name)
            if preference[0] != worker_name:
                continue
            fallback = next(
                (w for w in preference[1:] if w != worker_name), None
            )
            if fallback is None:
                ring_pref = self.table.ring.preference(name, len(self.fleet.names()))
                fallback = next(w for w in ring_pref if w != worker_name)
            self.migrate(name, worker_name, fallback)
            self.table.set_override(name, [fallback])
            drained.append((name, fallback))
        return drained

    def _worker_restarted(self, worker: Worker) -> None:
        """Supervisor callback: re-sync replicas after a crash respawn.

        The respawned worker re-attached its own state shard, so its
        sessions are back at their acked versions; replica bookkeeping for copies
        *on* the worker is conservatively reset (they re-qualify at the
        next push).
        """
        for name in self.table.known_sessions():
            preference = self.table.preference(name)
            if worker.name in preference[1:]:
                self.schedule_replication(name)

    # ------------------------------------------------------------------ #
    # Boot reconciliation
    # ------------------------------------------------------------------ #

    def reconcile(self) -> dict[str, Any]:
        """Resolve worker shards into one consistent placement.

        For every session name found on any worker: the copy with the
        highest ``state_version`` wins (duplicates can only be equal --
        migration quiesces writes); it is migrated to the ring placement
        if a crash left it elsewhere; matching replica copies are
        recorded; off-placement leftovers are deleted.
        """
        found: dict[str, dict[str, int]] = {}
        for worker in self.fleet.workers():
            if worker.base is None:
                continue
            status, listing = worker_request_json(worker.base, "GET", "/sessions")
            if status != 200:
                raise WorkerUnavailableError(
                    f"worker {worker.name} listing failed with HTTP {status}"
                )
            for entry in listing["sessions"]:
                found.setdefault(entry["session"], {})[worker.name] = int(
                    entry["state_version"]
                )
        actions = {"sessions": len(found), "migrated": 0, "deleted": 0}
        for name, copies in sorted(found.items()):
            preference = self.table.preference(name)
            primary = preference[0]
            vmax = max(copies.values())
            if copies.get(primary) != vmax:
                source = sorted(w for w, v in copies.items() if v == vmax)[0]
                keep = source in preference[1:]
                self.migrate(name, source, primary, keep_source=keep)
                copies[primary] = vmax
                if not keep:
                    copies.pop(source, None)
                actions["migrated"] += 1
            self.table.record_primary(name, vmax)
            for worker_name, version in sorted(copies.items()):
                if worker_name == primary:
                    continue
                if worker_name in preference[1:]:
                    self.table.record_replica(name, worker_name, version)
                else:
                    self._best_effort_delete(name, worker_name)
                    actions["deleted"] += 1
            if len(preference) > 1:
                self.schedule_replication(name)
        return actions

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #

    def merged_sessions(self) -> list[dict[str, Any]]:
        """Session info blocks, each from its placement worker."""
        merged: dict[str, dict[str, Any]] = {}
        for worker in self.fleet.workers():
            if worker.base is None or not worker.ready:
                continue
            try:
                status, listing = worker_request_json(
                    worker.base, "GET", "/sessions"
                )
            except WorkerUnavailableError:
                continue
            if status != 200:
                continue
            for entry in listing["sessions"]:
                name = entry["session"]
                try:
                    if self.table.primary(name) == worker.name:
                        merged[name] = entry
                    else:
                        merged.setdefault(name, entry)
                except ValidationError:  # pragma: no cover - empty ring
                    merged.setdefault(name, entry)
        return [merged[name] for name in sorted(merged)]

    def aggregated_stats(self) -> dict[str, Any]:
        workers: dict[str, Any] = {}
        session_blocks: dict[str, dict[str, Any]] = {}
        for worker in self.fleet.workers():
            if worker.base is None or not worker.ready:
                workers[worker.name] = {"error": "restarting"}
                continue
            try:
                status, stats = worker_request_json(worker.base, "GET", "/stats")
            except WorkerUnavailableError as exc:
                workers[worker.name] = {"error": str(exc)}
                continue
            workers[worker.name] = stats if status == 200 else {"error": status}
            if status == 200:
                for block in stats.get("sessions", []):
                    name = block["session"]
                    try:
                        if self.table.primary(name) == worker.name:
                            session_blocks[name] = block
                    except ValidationError:  # pragma: no cover - empty ring
                        pass
        with self._stats_lock:
            counters = dict(self._counters)
        return {
            "schema": "repro.cluster/v1",
            "phase": self.phase,
            "workers": workers,
            "sessions": [session_blocks[name] for name in sorted(session_blocks)],
            "router": {
                **counters,
                "replicas": self.table.replicas,
                "ring": self.table.ring.describe(),
                "migrating": self.table.migrating(),
                "fleet": self.fleet.describe(),
            },
        }

    def topology(self) -> dict[str, Any]:
        placements = {
            name: self.table.preference(name)
            for name in self.table.known_sessions()
        }
        return {
            "schema": "repro.cluster/v1",
            "phase": self.phase,
            "replicas": self.table.replicas,
            "ring": self.table.ring.describe(),
            "workers": self.fleet.describe(),
            "placements": placements,
            "migrating": self.table.migrating(),
        }


class _RouterHandler(ApiHandler):
    server_version = "repro-cluster-router/1"

    ERRORS = (
        ((SessionMigratingError, WorkerUnavailableError), 503),
        (MigrationError, 500),
    ) + ApiHandler.ERRORS

    #: (method, action) of the session routes proxied under the quiesce
    #: accounting (``subscribe`` only checks it at connect time).
    SESSION_ROUTES = frozenset(
        {
            ("DELETE", None),
            ("GET", "estimate"),
            ("GET", "snapshot"),
            ("GET", "store"),
            ("POST", "ingest"),
            ("POST", "query"),
            ("POST", "restore"),
            ("POST", "restore-store"),
        }
    )

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def _serve(self, method: str, split: Any, parts: list[str], query: Any) -> None:
        router = self.server.router
        router.count("requests")
        if method == "GET" and parts == ["healthz"]:
            self._send_json(
                200,
                {"status": "ok", "workers": len(router.fleet.names())},
            )
        elif method == "GET" and parts == ["readyz"]:
            self._get_readyz()
        elif not router.ready:
            self._send_not_ready(router.phase)
        elif parts and parts[0] == "cluster":
            self._dispatch_cluster(method, parts)
        elif method == "GET" and parts == ["stats"]:
            self._send_json(200, router.aggregated_stats())
        elif method == "GET" and parts == ["sessions"]:
            self._send_json(200, {"sessions": router.merged_sessions()})
        elif method == "POST" and parts == ["sessions"]:
            self._post_create()
        elif parts and parts[0] == "sessions" and len(parts) in (2, 3):
            self._dispatch_session(method, parts, split, query)
        else:
            raise RouteError(404, f"no route {method} {split.path}")

    def _fail(self, exc: Exception) -> None:
        if isinstance(exc, SessionMigratingError):
            self.server.router.count("shed_migrating")
        elif isinstance(exc, WorkerUnavailableError):
            self.server.router.count("shed_unavailable")
        super()._fail(exc)

    # ------------------------------------------------------------------ #
    # Session routes (proxied)
    # ------------------------------------------------------------------ #

    def _post_create(self) -> None:
        router = self.server.router
        body = self._read_body()
        name = self._parse_body(body).get("name")
        # The worker validates the request; a missing or malformed name
        # only needs some worker to refuse it with the server's message.
        name = name if isinstance(name, str) else ""
        router.table.begin(name)
        try:
            status, payload, headers = router.forward(
                router.table.primary(name),
                "POST",
                "/sessions",
                body,
                headers=self._proxy_headers(with_body=True),
            )
        finally:
            router.table.end(name)
        if status == 201:
            router.table.record_primary(name, 0)
            router.schedule_replication(name)
        self._relay(status, payload, headers)

    def _dispatch_session(
        self, method: str, parts: list[str], split: Any, query: Any
    ) -> None:
        router = self.server.router
        name = parts[1]
        action = parts[2] if len(parts) == 3 else None
        path = split.path + (f"?{split.query}" if split.query else "")
        # Subscriptions are long-lived: holding the quiesce accounting
        # for the stream's lifetime would deadlock every migration of
        # the session, so the relay only *checks* the migration window
        # at connect time and re-subscribes transparently afterwards.
        if method == "GET" and action == "subscribe":
            self._subscribe_relay(name, query)
            return
        if (method, action) not in self.SESSION_ROUTES:
            raise RouteError(404, f"no route {method} {split.path}")
        router.table.begin(name)
        try:
            if action is None:
                self._delete_session(name, path)
            elif action == "estimate":
                self._read_fanout(name, path)
            elif action == "store":
                # Store archives are streamed through, never buffered.
                self._proxy_store_get(name, path)
            elif action == "restore-store":
                self._proxy_store_post(name, path)
            else:
                body = self._read_body() if method == "POST" else None
                status, payload, headers = router.forward(
                    router.table.primary(name),
                    method,
                    path,
                    body,
                    headers=self._proxy_headers(with_body=body is not None),
                )
                if status == 200 and action in ("ingest", "restore"):
                    self._record_write(name, payload)
                self._relay(status, payload, headers)
        finally:
            router.table.end(name)

    def _record_write(self, name: str, payload: bytes) -> None:
        """The primary acked a write: record its version, then replicate."""
        router = self.server.router
        try:
            router.table.record_primary(
                name, int(json.loads(payload)["state_version"])
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            pass
        router.schedule_replication(name)

    def _delete_session(self, name: str, path: str) -> None:
        router = self.server.router
        preference = router.table.preference(name)
        status, payload, headers = router.forward(preference[0], "DELETE", path)
        for replica in preference[1:]:
            try:
                router.forward(replica, "DELETE", path)
            except WorkerUnavailableError:
                pass
        router.table.forget(name)
        self._relay(status, payload, headers)

    def _proxy_store_get(self, name: str, path: str) -> None:
        """Stream a store archive from the primary to the client."""
        router = self.server.router
        status, response, connection = router.forward_stream(
            router.table.primary(name), "GET", path
        )
        try:
            self._send_head(
                status,
                self._relayed(response.getheaders()),
                int(response.getheader("Content-Length")),
            )
            shutil.copyfileobj(response, self.wfile, IO_CHUNK_BYTES)
        finally:
            connection.close()

    def _proxy_store_post(self, name: str, path: str) -> None:
        """Stream a store archive from the client to the primary."""
        router = self.server.router
        body = self._archive_body()
        status, payload, headers = router.forward(
            router.table.primary(name),
            "POST",
            path,
            body,
            headers={
                "Content-Type": "application/octet-stream",
                "Content-Length": str(body.left),
            },
        )
        if status == 200:
            self._record_write(name, payload)
        self._relay(status, payload, headers)

    def _read_fanout(self, name: str, path: str) -> None:
        router = self.server.router
        chosen, fallbacks = router.table.read_target(name)
        primary = router.table.primary(name)
        for index, worker_name in enumerate([chosen, *fallbacks]):
            try:
                status, payload, headers = router.forward(
                    worker_name, "GET", path, headers=self._proxy_headers()
                )
            except WorkerUnavailableError:
                if index == len(fallbacks):
                    raise
                continue
            # A replica that lost the copy (restart race) must not leak a
            # 404 for a session that exists: fall through to the primary.
            if status == 404 and worker_name != primary and fallbacks:
                continue
            router.count(
                "primary_reads" if worker_name == primary else "replica_reads"
            )
            self._relay(status, payload, headers)
            return
        raise WorkerUnavailableError(
            f"no worker could answer the read for session {name!r}"
        )

    # ------------------------------------------------------------------ #
    # Subscription relay
    # ------------------------------------------------------------------ #

    def _subscribe_relay(self, name: str, query: Any) -> None:
        """Relay ``GET .../subscribe`` from the session's primary.

        The router terminates the client's stream and maintains its own
        upstream leg to whichever worker is currently primary: when the
        leg dies (migration, rolling restart, crash respawn) it
        re-resolves the primary and reconnects with
        ``from_version=<last id + 1>``, deduplicating on the strictly
        increasing ``id`` values -- the client sees one monotonic,
        duplicate-free stream that ends at the latest state, across
        worker churn, byte-identical to the single-server one.
        """
        router = self.server.router
        from_version, max_events, timeout = self._subscribe_query(query)[3:6]
        deadline = time.monotonic() + timeout if timeout is not None else None
        # Shed at connect time if the session is mid-migration -- the
        # same contract every other route honors -- but do NOT stay in
        # the in-flight accounting: the stream outlives any quiesce.
        router.table.begin(name)
        router.table.end(name)

        headers_sent = False
        last: "int | None" = None
        sent = 0
        retry_until: "float | None" = None
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                return
            upstream_from = from_version if last is None else last + 1
            remaining_events = None if max_events is None else max_events - sent
            if remaining_events is not None and remaining_events <= 0:
                return
            path = self._upstream_subscribe_path(
                name, query, upstream_from, remaining_events, deadline
            )
            try:
                status, response, connection = router.forward_stream(
                    router.table.primary(name), "GET", path
                )
            except (WorkerUnavailableError, OSError):
                if not headers_sent:
                    raise
                if self._subscribe_retry_wait(retry_until) is None:
                    return
                retry_until = retry_until or (
                    time.monotonic() + SUBSCRIBE_RECONNECT_WINDOW
                )
                continue
            if status != 200:
                payload = response.read()
                connection.close()
                if not headers_sent:
                    self._relay(status, payload, dict(response.getheaders()))
                    return
                # Mid-stream 404/503: the session is moving between
                # workers; keep retrying inside the window.
                if self._subscribe_retry_wait(retry_until) is None:
                    return
                retry_until = retry_until or (
                    time.monotonic() + SUBSCRIBE_RECONNECT_WINDOW
                )
                continue
            retry_until = None
            if not headers_sent:
                self._start_event_stream(response.getheader("X-Repro-State-Version"))
                headers_sent = True
            try:
                last, sent, done = self._pump_sse(
                    response, last=last, sent=sent, max_events=max_events
                )
            finally:
                connection.close()
            if done:
                return
            # Upstream leg ended without satisfying the client's budget:
            # the worker timed out, restarted, or handed the session off.

    def _subscribe_retry_wait(self, retry_until: "float | None") -> "float | None":
        """Sleep one reconnect pause; None once the retry window closed."""
        if retry_until is not None and time.monotonic() >= retry_until:
            return None
        time.sleep(SUBSCRIBE_RECONNECT_PAUSE)
        return SUBSCRIBE_RECONNECT_PAUSE

    def _pump_sse(
        self,
        response: Any,
        *,
        last: "int | None",
        sent: int,
        max_events: "int | None",
    ) -> "tuple[int | None, int, bool]":
        """Forward upstream SSE frames to the client, deduplicating by id.

        Returns ``(last_id, events_sent, done)`` where ``done`` means the
        client's ``max_events`` budget is satisfied (upstream EOF with
        budget left means: reconnect).
        """
        buffered: list[bytes] = []
        event_id: "int | None" = None
        while True:
            raw = response.readline()
            if not raw:
                return last, sent, False
            line = raw.decode("utf-8", "replace").rstrip("\r\n")
            if line.startswith(":"):
                # Heartbeat comment: forward immediately (it is the
                # client-liveness probe); its trailing blank line is
                # swallowed by the empty-buffer case below.
                self.wfile.write(raw.rstrip(b"\r\n") + b"\n\n")
                self.wfile.flush()
                continue
            if line == "":
                if buffered:
                    if event_id is not None and (last is None or event_id > last):
                        self.wfile.write(b"".join(buffered) + b"\n")
                        self.wfile.flush()
                        last = event_id
                        sent += 1
                        if max_events is not None and sent >= max_events:
                            return last, sent, True
                    buffered = []
                    event_id = None
                continue
            if line.startswith("id: "):
                try:
                    event_id = int(line[4:])
                except ValueError:
                    event_id = None
            buffered.append(line.encode("utf-8") + b"\n")

    @staticmethod
    def _upstream_subscribe_path(
        name: str,
        query: "dict[str, list[str]]",
        from_version: "int | None",
        max_events: "int | None",
        deadline: "float | None",
    ) -> str:
        params: list[tuple[str, str]] = []
        for key in ("spec", "attribute", "mode", "heartbeat_ms"):
            for value in query.get(key, []):
                params.append((key, value))
        if from_version is not None:
            params.append(("from_version", str(from_version)))
        if max_events is not None:
            params.append(("max_events", str(max_events)))
        if deadline is not None:
            remaining_ms = max(1, int((deadline - time.monotonic()) * 1000))
            params.append(("timeout_ms", str(remaining_ms)))
        suffix = f"?{urlencode(params)}" if params else ""
        return f"/sessions/{name}/subscribe{suffix}"

    # ------------------------------------------------------------------ #
    # Cluster admin routes
    # ------------------------------------------------------------------ #

    def _dispatch_cluster(self, method: str, parts: list[str]) -> None:
        router = self.server.router
        if method == "GET" and parts == ["cluster"]:
            self._send_json(200, router.topology())
        elif method == "POST" and parts == ["cluster", "workers"]:
            self._send_json(200, router.add_worker())
        elif method == "POST" and parts == ["cluster", "restart"]:
            self._send_json(200, router.rolling_restart())
        else:
            raise RouteError(404, f"no route {method} /{'/'.join(parts)}")

    # ------------------------------------------------------------------ #
    # Readiness
    # ------------------------------------------------------------------ #

    def _get_readyz(self) -> None:
        router = self.server.router
        if router.ready:
            self._send_json(
                200,
                {"status": "ready", "workers": len(router.fleet.names())},
            )
        else:
            self._send_not_ready(
                router.phase if router.phase != "ready" else "degraded"
            )

    # ------------------------------------------------------------------ #
    # Relaying
    # ------------------------------------------------------------------ #

    def _proxy_headers(self, *, with_body: bool = False) -> dict[str, str]:
        """Client headers forwarded to the worker leg.

        ``Accept-Encoding`` rides through so the worker compresses for
        gzip-speaking clients; with a body, its ``Content-Encoding``
        rides through so the worker (not the router) inflates it.
        """
        forwarded = {}
        accept = self.headers.get("Accept-Encoding")
        if accept:
            forwarded["Accept-Encoding"] = accept
        if with_body:
            encoding = self.headers.get("Content-Encoding")
            if encoding:
                forwarded["Content-Encoding"] = encoding
        return forwarded

    @staticmethod
    def _relayed(headers: Any) -> "list[tuple[str, str]]":
        """The worker response headers a relay passes on, in their order."""
        return [pair for pair in headers if pair[0].lower() in RELAYED_HEADERS]

    def _relay(
        self, status: int, payload: bytes, headers: "dict[str, str]"
    ) -> None:
        """Forward a worker response verbatim (the byte-identity contract)."""
        self._send_raw(status, payload, self._relayed(headers.items()))
