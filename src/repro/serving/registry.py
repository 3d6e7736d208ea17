"""Served sessions and the thread-safe registry that multiplexes them.

:class:`ServedSession` is the concurrency boundary around one
:class:`~repro.api.session.OpenWorldSession`: a writer-preferring
reader/writer lock (ingests exclusive, estimates/queries/snapshots
shared), with every read answer flowing through the server-wide
version-keyed :class:`~repro.serving.cache.EstimateCache` and
:class:`~repro.serving.batcher.CoalescingBatcher`, and every unexpected
estimator failure feeding the session's
:class:`~repro.resilience.breaker.CircuitBreaker`.

:class:`SessionRegistry` manages the named sessions of one serving
process -- creation, lookup, deletion, aggregate statistics -- and the
state-dir persistence model.  A registry persists if and only if it was
constructed with a ``state_dir``, and then every session is one
:class:`~repro.storage.store.DiskStore` directory,
``<state_dir>/store/<name>/``, and nothing else:

* the store's segment log is the session's write-ahead copy (names and
  frame flushed before the state mutates);
* every store is seeded in ``store/.incoming-<name>/`` and renamed into
  place, so a live name never holds a half-written store; a copy it
  replaces waits in ``store/.old-<name>/`` until then;
* a delete renames the store to ``store/.dead-<name>/`` and makes the
  rename durable before it returns;
* :meth:`save_state` seals every store (its checkpoint file and the
  manifest that names it) and :meth:`load_state` discards every
  ``.incoming-*`` and ``.dead-*``, puts a ``.old-<name>`` back when
  ``<name>`` is missing, and re-attaches every store (O(1): the
  manifest names the checkpoint the last seal wrote, and the frames
  past it fold at the first read).

A registry without a state dir keeps its sessions in
:class:`~repro.storage.store.MemoryStore` instances -- the parity
oracle every served surface of a persisted session is byte-identical
to.

The recovery invariant all of this serves: state after crash + restart
is bit-identical to the never-crashed run -- the same invariant the
chunked-vs-one-shot ingest parity rests on, extended across process
death.

Served payloads are the ``repro.result/v1`` dicts of the underlying
session calls, with one deliberate exception: the ``runtime`` execution
metadata of an :class:`~repro.core.estimator.Estimate` is nulled.  A
cache hit must be byte-identical to the miss that populated it, and
wall times are the one nondeterministic field of an otherwise
deterministic payload (the experiment harness strips them from its JSON
for the same reason).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import re
import shutil
import threading
from pathlib import Path
from typing import Any

from repro.api.session import OpenWorldSession, SessionSnapshot, check_estimate_mode
from repro.data.records import Observation
from repro.resilience.breaker import CircuitBreaker
from repro.serving.batcher import CoalescingBatcher
from repro.serving.cache import DEFAULT_CACHE_ENTRIES, EstimateCache, request_key
from repro.serving.locks import RWLock
from repro.serving.versions import VersionGate
from repro.storage.layout import fsync_directory, make_directories
from repro.storage.store import DiskStore
from repro.storage.transfer import archive_header, unpack_archive
from repro.utils.exceptions import ReproError, ValidationError

__all__ = [
    "DuplicateSessionError",
    "UnknownSessionError",
    "ServedSession",
    "SessionRegistry",
    "STATE_SCHEMA",
    "STORE_DIRNAME",
]

#: Envelope identifier of the registry's /stats payload.
STATE_SCHEMA = "repro.serving/v1"

#: Subdirectory of the state dir holding the per-session disk stores.
STORE_DIRNAME = "store"

#: Subdirectories an earlier version kept next to ``store/`` (per-session
#: journals and checkpoint files); a state dir holding one is refused.
_EARLIER_LAYOUT = ("wal", "sessions")

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class DuplicateSessionError(ValidationError):
    """A session with the requested name already exists (HTTP 409)."""


class UnknownSessionError(ValidationError):
    """No session with the requested name exists (HTTP 404)."""


def _served_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Normalize a result payload for serving (null the runtime block)."""
    if "runtime" in payload:
        payload = dict(payload)
        payload["runtime"] = None
    return payload


class ServedSession:
    """One named session behind a reader/writer lock and the answer cache.

    Every read -- :meth:`estimate_payloads`, :meth:`estimate_payload`,
    :meth:`query_payload` -- takes one path, :meth:`_read`: a cache
    lookup at the published version, and on a miss one coalesced
    computation under the shared lock.  It returns ``(state_version,
    payload)`` pairs whose version is the one the payload is keyed at,
    so a long-poll or push labels its answer without reading the
    version again.

    Parameters
    ----------
    name:
        Registry name.
    session:
        The wrapped :class:`OpenWorldSession`.
    cache / batcher:
        The server-wide answer cache and coalescer (shared across
        sessions; keys carry the epoch-qualified session name).
    epoch:
        Registry-assigned unique instance number, baked into the cache
        keys so a recreated name never reaches a predecessor's entries.
    backend / workers:
        Optional :mod:`repro.parallel` overrides passed through to
        ``estimate`` so the Monte-Carlo grid of spec-configured sessions
        shards across the server's configured backend.
    breaker:
        Optional :class:`~repro.resilience.breaker.CircuitBreaker` fed
        by unexpected estimator failures on the compute path.
    """

    def __init__(
        self,
        name: str,
        session: OpenWorldSession,
        *,
        cache: EstimateCache,
        batcher: CoalescingBatcher,
        backend: "str | None" = None,
        workers: "int | None" = None,
        epoch: int = 0,
        breaker: "CircuitBreaker | None" = None,
    ) -> None:
        self.name = name
        self._session = session
        self._cache = cache
        self._batcher = batcher
        self._backend = backend
        self._workers = workers
        self._breaker = breaker
        self._lock = RWLock()
        # Cache/coalescing keys carry the registry-assigned epoch, not the
        # bare name: deleting a session and recreating the name must never
        # let the new instance hit the old instance's entries (their
        # state_version counters both start at 0).
        self._cache_name = f"{name}#{epoch}"
        # THE freshness primitive of this session: every "has version v
        # arrived yet?" wait -- long-polls and subscription pushes --
        # goes through this one VersionGate.  (The cluster router's
        # replica gate compares versions its _RoutingTable recorded.)
        self._gate = VersionGate(session.state_version)
        self._stats_lock = threading.Lock()
        self._ingest_requests = 0
        self._read_requests = 0
        self._subscribers_started = 0
        self._subscribers_active = 0
        self._subscriber_pushes = 0
        self._subscriber_disconnects = 0

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def ingest(self, observations: "list[Observation] | Observation") -> dict[str, Any]:
        """Exclusive ingest; returns the post-ingest version and counts.

        A persisted session's store is its own write-ahead copy:
        ``session.ingest`` validates the whole chunk before any write,
        then flushes names and the segment frame before the state
        mutates -- so a SIGKILL at *any* instruction of this method
        either loses an unacknowledged chunk entirely or recovers it
        exactly once, never half of it.

        Old cache entries need no explicit purge: they are keyed by the
        superseded version, unreachable from now on, and will age out of
        the LRU bound.

        A session removed or replaced since the caller looked it up
        refuses (404): its store was closed and renamed away, and an
        append would reopen the files now at its path -- a successor's.
        """
        with self._lock.write_locked():
            if self.retired:
                raise UnknownSessionError(f"session {self.name!r} was removed")
            ingested = self._session.ingest(observations)
            with self._stats_lock:
                self._ingest_requests += 1
            # Publish the new version while still write-locked: a waiter
            # released by this advance that immediately estimates is
            # serialized behind the ingest, so it can never observe a
            # version the session has not fully reached.
            self._gate.advance(self._session.state_version)
            return {
                "session": self.name,
                "ingested": ingested,
                "state_version": self._session.state_version,
                "n": self._session.n,
                "c": self._session.c,
            }

    # ------------------------------------------------------------------ #
    # Version waits (the unified freshness primitive)
    # ------------------------------------------------------------------ #

    @property
    def state_version(self) -> int:
        """The session's published ``state_version`` (lock-free read)."""
        return self._gate.version

    @property
    def retired(self) -> bool:
        """True once the session has been removed from its registry."""
        return self._gate.closed

    def wait_for_version(
        self, version: int, timeout: "float | None" = None
    ) -> "int | None":
        """Block until ``state_version`` reaches ``version``.

        THE freshness wait of the serving layer (see
        :mod:`repro.serving.versions`): long-poll ``?wait_version=`` and
        the subscription stream both funnel through this method.
        Returns the published version once reached, the current
        (possibly lower) version if the session is retired mid-wait, or
        ``None`` on timeout.

        Never waits under the session's reader/writer lock -- an
        abandoned waiter can therefore never block an ingest.
        """
        return self._gate.wait_for(version, timeout)

    def close_gate(self) -> None:
        """Retire the version gate, releasing every parked waiter."""
        self._gate.close()

    # ------------------------------------------------------------------ #
    # Subscriber accounting (asserted via /stats in tests)
    # ------------------------------------------------------------------ #

    def subscriber_started(self) -> None:
        with self._stats_lock:
            self._subscribers_started += 1
            self._subscribers_active += 1

    def subscriber_finished(self, *, disconnected: bool = False) -> None:
        with self._stats_lock:
            self._subscribers_active -= 1
            if disconnected:
                self._subscriber_disconnects += 1

    def subscriber_pushed(self) -> None:
        with self._stats_lock:
            self._subscriber_pushes += 1

    # ------------------------------------------------------------------ #
    # Cached, coalesced reads
    # ------------------------------------------------------------------ #

    def estimate_payload(
        self,
        spec: "str | None" = None,
        attribute: "str | None" = None,
        timeout: "float | None" = None,
        *,
        mode: "str | None" = None,
    ) -> dict[str, Any]:
        """The served ``estimate`` envelope (cache -> coalescer -> session)."""
        [(_, payload)] = self.estimate_payloads([spec], attribute, timeout, mode=mode)
        return payload

    def estimate_payloads(
        self,
        specs: "list[str | None]",
        attribute: "str | None" = None,
        timeout: "float | None" = None,
        *,
        mode: "str | None" = None,
    ) -> "list[tuple[int, dict[str, Any]]]":
        """``(state_version, payload)`` of several specs, computed as a batch.

        Each pair is exact: the payload is the answer at that version
        (see :meth:`_read`).  Distinct specs compute one after another;
        duplicate specs (within the batch or already in flight from
        other requests) compute once.  ``timeout``
        (seconds) bounds the whole batch; expiry raises
        :class:`~repro.resilience.admission.DeadlineExceededError` while
        any led computation finishes in the background and still reaches
        the cache.

        ``mode`` selects the estimation path (see
        :meth:`repro.api.session.OpenWorldSession.estimate`): delta-vs-
        batch parity makes the payloads byte-identical, so the cache key
        deliberately excludes the mode -- but the mode value, and for
        ``mode="delta"`` the estimator's capability, are checked *before*
        the cache lookup, so a bad request fails loudly instead of riding
        a warm entry.
        """
        detail = attribute or self._session.attribute
        check_estimate_mode(mode)
        if mode == "delta":
            for spec in specs:
                self._session.validate_delta(spec, attribute)
        # backend/workers overrides only apply to spec-configured
        # estimators; a session built around an estimator *instance*
        # (in-process embedding only) rejects them.
        configured = self._session.default_spec is not None
        requests = [
            (
                "estimate",
                self._canonical_spec(spec),
                detail,
                functools.partial(
                    self._session.estimate,
                    attribute,
                    spec,
                    backend=self._backend if spec is not None or configured else None,
                    workers=self._workers if spec is not None or configured else None,
                    mode=mode,
                ),
            )
            for spec in specs
        ]
        return self._read(requests, timeout)

    def query_payload(
        self,
        sql: str,
        spec: "str | None" = None,
        closed_world: bool = False,
        timeout: "float | None" = None,
    ) -> dict[str, Any]:
        """The served ``query`` envelope, cached and coalesced like estimates."""
        if not isinstance(sql, str) or not sql.strip():
            raise ValidationError("query requires a non-empty 'sql' string")
        compute = functools.partial(
            self._session.query, sql, spec=spec, closed_world=closed_world
        )
        detail = f"{'closed' if closed_world else 'open'}:{sql}"
        request = ("query", self._canonical_spec(spec), detail, compute)
        return self._read([request], timeout)[0][1]

    def _read(self, requests: list, timeout: "float | None") -> list:
        """THE read path: one ``(state_version, payload)`` pair per request.

        ``requests`` are ``(kind, spec key, detail, compute)`` tuples,
        where ``compute()`` returns a result with ``to_dict()``.  Each is
        looked up in the cache at the published version; a hit returns
        the version its key names.  Misses go through the coalescer,
        whose leader runs :meth:`_compute`; followers get its pair.
        """
        version = self._session.state_version
        results: list[Any] = [None] * len(requests)
        misses = []
        for index, (kind, spec_key, detail, compute) in enumerate(requests):
            key = request_key(self._cache_name, version, kind, spec_key, detail)
            cached = self._cache.get(key)
            with self._stats_lock:
                self._read_requests += 1
            if cached is not None:
                results[index] = (version, cached)
            else:
                run = functools.partial(self._compute, kind, spec_key, detail, compute)
                misses.append((index, key, run))
        if misses:
            computed = self._batcher.execute_many(
                [(key, run) for _, key, run in misses], timeout=timeout
            )
            for (index, _, _), pair in zip(misses, computed):
                results[index] = pair
        return results

    def _compute(self, kind, spec_key, detail, compute) -> "tuple[int, dict[str, Any]]":
        """A miss: version and answer read under one shared-lock acquisition.

        Ingests hold the write side, so the pair is consistent by
        construction -- the invariant that makes version-keyed caching
        exact.  The payload is cached under the version read here, which
        is later than the lookup's when an ingest landed in between.
        """
        with self._lock.read_locked():
            version = self._session.state_version
            answer = self._guarded(compute)
        payload = _served_payload(answer.to_dict())
        self._cache.put(
            request_key(self._cache_name, version, kind, spec_key, detail), payload
        )
        return version, payload

    def _guarded(self, fn):
        """Run one estimator computation through the circuit breaker.

        :class:`~repro.utils.exceptions.ReproError` subclasses are
        client-class outcomes (bad spec, empty session) and say nothing
        about estimator health; anything else is an estimator failure
        and counts toward tripping the breaker.
        """
        breaker = self._breaker
        if breaker is None:
            return fn()
        breaker.before_call()
        try:
            result = fn()
        except ReproError:
            raise
        except BaseException:
            breaker.record_failure()
            raise
        breaker.record_success()
        return result

    def snapshot_payload(self) -> dict[str, Any]:
        """The session's snapshot envelope (shared lock, never cached)."""
        with self._lock.read_locked():
            return self._session.snapshot().to_dict()

    # ------------------------------------------------------------------ #
    # Checkpoint and transfer
    # ------------------------------------------------------------------ #

    def seal_store(self) -> None:
        """Seal the disk store's active segment and write its checkpoint.

        Under the write lock, so the checkpoint records an exact version;
        a store with nothing to seal writes nothing.
        """
        with self._lock.write_locked():
            self._session.store.seal()

    @contextlib.contextmanager
    def store_archive(self):
        """Freeze the session and yield ``(header, files, version)``.

        The migration source: seals the active segment, syncs
        every store file, and yields the archive header plus the file
        list (see :func:`repro.storage.transfer.archive_header`).  The
        write lock is held for the whole ``with`` block, so the files
        cannot change while the caller streams them -- a migration has
        quiesced the session anyway, which bounds the lock hold time.
        """
        with self._lock.write_locked():
            store = self._session.store
            if store.kind != "disk":
                raise ValidationError(
                    f"session {self.name!r} is not persisted (the server has "
                    "no state dir); transfer it with the snapshot envelope "
                    "(GET .../snapshot) instead"
                )
            version = self._session.state_version
            store.seal()
            store.sync()
            header, files = archive_header(
                store.directory, session=self.name, state_version=version
            )
            yield header, files, version

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def info(self) -> dict[str, Any]:
        """JSON-safe description for session listings and ``/stats``."""
        with self._lock.read_locked():
            session = self._session
            spec = session.default_spec
            return {
                "session": self.name,
                "attribute": session.attribute,
                "table_name": session.table_name,
                "estimator": spec.to_string() if spec is not None else None,
                "n": session.n,
                "c": session.c,
                "n_ingested": session.n_ingested,
                "sources": session.n_sources,
                "state_version": session.state_version,
            }

    def stats(self) -> dict[str, Any]:
        """:meth:`info` plus request counters and the resilience blocks."""
        out = self.info()
        with self._stats_lock:
            out["ingest_requests"] = self._ingest_requests
            out["read_requests"] = self._read_requests
            out["subscribers"] = {
                "started": self._subscribers_started,
                "active": self._subscribers_active,
                "pushed": self._subscriber_pushes,
                "disconnects": self._subscriber_disconnects,
                "waiters": self._gate.waiters,
            }
        out["estimator_cache"] = self._session.estimator_cache_stats()
        if self._breaker is not None:
            out["circuit_breaker"] = self._breaker.stats()
        if self._session.store.kind == "disk":
            out["store"] = self._session.store.stats()
        return out

    def _canonical_spec(self, spec: "str | None") -> str:
        """The spec component of cache keys ("" = the session default)."""
        from repro.api.specs import EstimatorSpec

        if spec is not None:
            return EstimatorSpec.of(spec).to_string()
        default = self._session.default_spec
        return default.to_string() if default is not None else ""


class SessionRegistry:
    """Thread-safe named :class:`ServedSession` store of one serving process.

    Parameters
    ----------
    backend / workers:
        :mod:`repro.parallel` overrides handed to every served estimate
        (``process`` here shards the Monte-Carlo grid; the batcher runs
        each request's computations inline).
    cache_entries:
        LRU bound of the shared answer cache.
    state_dir:
        Enables crash-safe persistence: every session lives in a disk
        store under ``<state_dir>/store/<name>/``, checkpointed by
        :meth:`save_state`.  Without it the registry keeps sessions in
        memory and :meth:`save_state` / :meth:`load_state` refuse to
        run.
    wal_fsync:
        Durability policy of the stores' segment logs (see
        :class:`~repro.storage.segments.SegmentLog`).
    breaker_threshold / breaker_cooldown:
        Per-session circuit-breaker settings; ``breaker_threshold=0``
        disables the breakers.  ``breaker_clock`` is injectable for
        tests.
    """

    def __init__(
        self,
        *,
        backend: "str | None" = None,
        workers: "int | None" = None,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        state_dir: "str | os.PathLike[str] | None" = None,
        wal_fsync: str = "batch",
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
        breaker_clock: Any = None,
    ) -> None:
        self._backend = backend
        self._workers = workers
        self.cache = EstimateCache(cache_entries)
        self.batcher = CoalescingBatcher()
        self._lock = threading.Lock()
        self._sessions: dict[str, ServedSession] = {}
        # Names whose files a create, restore or delete is working on.
        # Held from before the first filesystem step to after the last,
        # so no other lifecycle call opens or deletes what it owns.
        self._busy: set[str] = set()
        self._idle = threading.Condition(self._lock)
        self._epochs = itertools.count(1)
        self._state_dir = Path(state_dir) if state_dir is not None else None
        self._wal_fsync = wal_fsync
        self._breaker_threshold = int(breaker_threshold)
        self._breaker_cooldown = float(breaker_cooldown)
        self._breaker_clock = breaker_clock
        self._phase = "ready"
        self._phase_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # State-dir paths
    # ------------------------------------------------------------------ #

    def store_path(self, name: str) -> Path:
        """Directory of ``name``'s disk store (requires a state dir)."""
        return self._persisted_dir() / STORE_DIRNAME / name

    def _persisted_dir(self) -> Path:
        if self._state_dir is None:
            raise ValidationError(
                "this registry is memory-only; construct it with "
                "state_dir=... to persist sessions"
            )
        return self._state_dir

    def _staging_path(self, kind: str, name: str) -> Path:
        """A clean ``store/.<kind>-<name>`` (held under ``_owning``).

        ``store/`` itself is created durably on first use.
        """
        root = self._persisted_dir() / STORE_DIRNAME
        make_directories(root, sync=self._wal_fsync != "never")
        path = root / f".{kind}-{name}"
        if path.exists():
            shutil.rmtree(path)
        return path

    def _sync_store_root(self) -> None:
        """Make the renames in ``store/`` durable (unless policy is never)."""
        if self._wal_fsync != "never":
            fsync_directory(self._persisted_dir() / STORE_DIRNAME)

    # ------------------------------------------------------------------ #
    # Readiness
    # ------------------------------------------------------------------ #

    @property
    def phase(self) -> str:
        """Lifecycle phase: "ready", or "recovering" during load."""
        with self._phase_lock:
            return self._phase

    def _set_phase(self, phase: str) -> None:
        with self._phase_lock:
            self._phase = phase

    @property
    def ready(self) -> bool:
        """True once the stores are attached (or none were needed)."""
        return self.phase == "ready"

    # ------------------------------------------------------------------ #
    # Session lifecycle
    # ------------------------------------------------------------------ #

    @contextlib.contextmanager
    def _owning(self, name: str, *, create: bool = False):
        """Hold ``name`` for one lifecycle call that touches its files.

        A create refuses (409) a name that is registered or held; a
        restore or delete waits until the holder is done.
        """
        with self._lock:
            if create and (name in self._sessions or name in self._busy):
                raise DuplicateSessionError(f"session {name!r} already exists")
            while name in self._busy:
                self._idle.wait()
            self._busy.add(name)
        try:
            yield
        finally:
            with self._lock:
                self._busy.discard(name)
                self._idle.notify_all()

    def create(
        self,
        name: str,
        attribute: str,
        *,
        table_name: str = "data",
        estimator: str = "bucket",
        count_method: str = "chao92",
    ) -> ServedSession:
        """Create and register a fresh named session (409 on duplicates).

        A persisted registry writes the new store's manifest in
        ``store/.incoming-<name>`` and promotes it like a restore.
        """
        self._validated_name(name)
        config = {
            "table_name": table_name,
            "estimator": estimator,
            "count_method": count_method,
        }
        with self._owning(name, create=True):
            if self._state_dir is None:
                return self._register(name, OpenWorldSession(attribute, **config))
            incoming = self._staging_path("incoming", name)
            # Made here, so the store does not fsync store/ for it: boot
            # discards every .incoming-*, only the promoting rename counts.
            incoming.mkdir()
            store = self._disk_store(incoming)
            try:
                OpenWorldSession(attribute, store=store, **config)
            except BaseException:
                store.release()
                shutil.rmtree(incoming, ignore_errors=True)
                raise
            store.close()
            return self._promote_incoming(name, incoming, 0)

    def _disk_store(self, directory: Path) -> DiskStore:
        return DiskStore(directory, fsync=self._wal_fsync)

    def adopt(self, name: str, session: OpenWorldSession) -> ServedSession:
        """Register an existing in-memory session object under ``name``.

        Memory-only registries only: a persisted registry keeps every
        session in a disk store it creates itself.
        """
        if self._state_dir is not None:
            raise ValidationError(
                "adopt() registers a session object this registry did not "
                "store; a persisted registry takes sessions only through "
                "create() or restore_session()"
            )
        self._validated_name(name)
        return self._register(name, session)

    def restore_session(
        self, name: str, payload: "dict[str, Any]"
    ) -> ServedSession:
        """Materialize ``name`` from a snapshot envelope (replace-if-newer).

        The receiving half of a replica push.  The semantics make
        retries safe and the fence checkable:

        * no current session -> restore and register;
        * current session at an **older** ``state_version`` -> replace
          it (a replica catching up, or a re-push onto a stale
          leftover);
        * current session at the **same or newer** version -> no-op
          that keeps the current instance (the idempotent-retry case),
          decided from the envelope's ``state_version`` before anything
          is seeded.

        Either way the returned session's ``info()['state_version']`` is
        what the caller fences on: it equals the envelope's version
        exactly when this registry now holds the transferred state.

        A persisted registry seeds a store in ``store/.incoming-<name>``
        and only moves it to its final path once fully seeded, so a
        crash mid-restore never leaves a half-written store under the
        live name; boot discards interrupted promotions -- they were
        never acknowledged, so the sender retries them.
        """
        self._validated_name(name)
        snapshot = SessionSnapshot.from_dict(payload)
        with self._owning(name):
            if self._keeps_current(name, snapshot.state_version):
                return self.get(name)
            if self._state_dir is None:
                session = OpenWorldSession.restore(snapshot)
                if self._keeps_current(name, session.state_version):
                    return self.get(name)  # moved on while we restored
                if name in self.names():
                    self._unregister(name, "old")
                return self._register(name, session)
            incoming = self._staging_path("incoming", name)
            incoming.mkdir()  # unsynced, as in create()
            store = self._disk_store(incoming)
            try:
                session = OpenWorldSession.restore(snapshot, store=store)
                store.sync()
            except BaseException:
                store.release()
                shutil.rmtree(incoming, ignore_errors=True)
                raise
            store.release()  # synced just above
            return self._promote_incoming(name, incoming, session.state_version)

    def restore_store(self, name: str, read) -> ServedSession:
        """Receive a streamed store archive (the migration body).

        ``read(n)`` supplies the raw archive bytes (header line + file
        contents, see :mod:`repro.storage.transfer`).  The archive is
        unpacked into ``store/.incoming-<name>`` and attached there to
        validate its integrity before promotion; the replace-if-newer
        and fencing semantics are exactly those of
        :meth:`restore_session`.
        """
        self._validated_name(name)
        if self._state_dir is None:
            raise ValidationError(
                "this server keeps sessions in memory (no state dir); "
                "push a snapshot envelope to .../restore instead"
            )
        with self._owning(name):
            incoming = self._staging_path("incoming", name)
            try:
                unpack_archive(read, incoming)
                session = OpenWorldSession.attach(self._disk_store(incoming))
            except BaseException:
                shutil.rmtree(incoming, ignore_errors=True)
                raise
            session.close()
            return self._promote_incoming(name, incoming, session.state_version)

    def _keeps_current(self, name: str, version: int) -> bool:
        """Replace-if-newer: True when ``name`` is at ``version`` or newer."""
        with self._lock:
            existing = self._sessions.get(name)
        if existing is None:
            return False
        with existing._lock.read_locked():
            return existing._session.state_version >= version

    def _promote_incoming(
        self, name: str, incoming: Path, version: int
    ) -> ServedSession:
        """Make a fully-seeded incoming store the live one for ``name``.

        Every persisted create, replica push and migration ends here.
        Replace-if-newer against any current session (checked again
        here: the session may have moved on while the copy was seeded).
        A current copy that loses is moved aside to ``store/.old-<name>``
        and kept until its successor is in place: a single ``os.rename``
        flips the incoming directory into place, one fsync of ``store/``
        makes both renames durable before the call is acknowledged, and
        only then is the old copy deleted.  The session is re-attached
        from disk -- reopening after the rename is cheaper to reason
        about than proving every held fd survives it.
        """
        if self._keeps_current(name, version):
            shutil.rmtree(incoming, ignore_errors=True)
            return self.get(name)
        old = self._unregister(name, "old") if name in self.names() else None
        final = self.store_path(name)
        os.rename(incoming, final)
        self._sync_store_root()
        if old is not None:
            shutil.rmtree(old, ignore_errors=True)
        return self._register(name, OpenWorldSession.attach(self._disk_store(final)))

    def _register(self, name: str, session: OpenWorldSession) -> ServedSession:
        breaker = (
            CircuitBreaker(
                self._breaker_threshold,
                self._breaker_cooldown,
                **(
                    {"clock": self._breaker_clock}
                    if self._breaker_clock is not None
                    else {}
                ),
            )
            if self._breaker_threshold > 0
            else None
        )
        served = ServedSession(
            name,
            session,
            cache=self.cache,
            batcher=self.batcher,
            backend=self._backend,
            workers=self._workers,
            epoch=next(self._epochs),
            breaker=breaker,
        )
        with self._lock:
            if name in self._sessions:
                raise DuplicateSessionError(f"session {name!r} already exists")
            self._sessions[name] = served
        return served

    def get(self, name: str) -> ServedSession:
        """The served session called ``name`` (404 when absent)."""
        with self._lock:
            served = self._sessions.get(name)
        if served is None:
            raise UnknownSessionError(
                f"unknown session {name!r}; "
                f"{len(self._sessions)} session(s) registered"
            )
        return served

    def remove(self, name: str) -> None:
        """Forget the session called ``name`` (404 when absent).

        With a state dir, the store is closed without syncing and
        renamed to ``store/.dead-<name>``, and ``store/`` is fsynced
        before the call returns: the delete is durable once
        acknowledged, and a crash before the rename leaves the session
        intact.  The directory is deleted after that; boot discards
        any ``.dead-*`` a crash left behind.

        Its cache entries become unreachable and age out of the LRU bound
        like superseded versions do: keys carry the instance's unique
        epoch, so even a recreated session with the same name can never
        hit them.
        """
        with self._owning(name):
            dead = self._unregister(name, "dead")
            if dead is not None:
                self._sync_store_root()
                shutil.rmtree(dead, ignore_errors=True)

    def _unregister(self, name: str, kind: str) -> "Path | None":
        """Drop ``name`` (404 when absent) for a caller that holds it.

        A persisted store is closed without syncing (its files are on
        their way out) and renamed to ``store/.<kind>-<name>``, which is
        returned; a memory-only registry returns None.
        """
        with self._lock:
            served = self._sessions.pop(name, None)
        if served is None:
            raise UnknownSessionError(f"unknown session {name!r}")
        # Retire the version gate first: every parked waiter (long-poll
        # or subscriber) wakes immediately and observes ``retired``
        # instead of blocking until its timeout against a dead name.
        served.close_gate()
        if self._state_dir is None:
            served._session.close()
            return None
        aside = self._staging_path(kind, name)
        # Under the session's write lock: an ingest already holding it
        # finishes first, and one that takes it later finds the session
        # retired (see ServedSession.ingest) instead of appending behind
        # the rename.
        with served._lock.write_locked():
            served._session.store.release()
            os.rename(self.store_path(name), aside)
        return aside

    def names(self) -> list[str]:
        """Registered session names, sorted."""
        with self._lock:
            return sorted(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def sessions(self) -> list[ServedSession]:
        """Stable-ordered served sessions (for listings and persistence)."""
        with self._lock:
            return [self._sessions[name] for name in sorted(self._sessions)]

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    def stats(self) -> dict[str, Any]:
        """The ``/stats`` payload: caches, coalescer, per-session blocks."""
        return {
            "schema": STATE_SCHEMA,
            "phase": self.phase,
            "sessions": [served.stats() for served in self.sessions()],
            "answer_cache": self.cache.stats(),
            "coalescer": self.batcher.stats(),
        }

    # ------------------------------------------------------------------ #
    # State-dir persistence
    # ------------------------------------------------------------------ #

    def save_state(self) -> Path:
        """Checkpoint every session by sealing its store.

        The seal's checkpoint file and the manifest write that names it
        (scratch, fsync, ``os.replace``, directory fsync) are the
        checkpoint; a store with nothing new since its last seal writes
        nothing.  Returns the ``store/`` directory.
        """
        root = self._persisted_dir() / STORE_DIRNAME
        for served in self.sessions():
            served.seal_store()
        return root

    def load_state(self) -> list[str]:
        """Re-attach every session store of the state dir.

        One rule: every ``store/.incoming-*`` (a create or transfer that
        was never acknowledged) and ``store/.dead-*`` (an acknowledged
        delete) is discarded, a ``store/.old-<name>`` (a copy being
        replaced) goes back in place when ``<name>`` is missing and is
        discarded otherwise, and every other ``store/<name>/`` is
        attached -- O(1) on the checkpoint its manifest names, the
        frames past it folded at the first read, a torn tail truncated
        at its last clean frame.  A missing state dir is not an error (first boot of a
        fresh ``--state-dir``); one that still holds an earlier
        version's ``wal/`` or ``sessions/`` is refused before anything
        in it is touched.

        Sets :attr:`phase` to ``"recovering"`` for the duration, so the
        HTTP readiness endpoint reports 503 until every session is
        byte-exact.  Returns the restored names.
        """
        self._set_phase("recovering")
        try:
            return self._load_state()
        finally:
            self._set_phase("ready")

    def _load_state(self) -> list[str]:
        directory = self._persisted_dir()
        earlier = [name for name in _EARLIER_LAYOUT if (directory / name).exists()]
        if earlier:
            raise ValidationError(
                f"state dir {directory} holds {' and '.join(f'{n}/' for n in earlier)} "
                "of an earlier version's layout (per-session journals and "
                "checkpoint files), which this version no longer reads; move "
                "each session with GET .../snapshot on the version that "
                "wrote it and POST .../restore here"
            )
        root = directory / STORE_DIRNAME
        for path in sorted(root.iterdir()) if root.is_dir() else ():
            live = root / path.name.removeprefix(".old-")
            if path != live and not live.exists():
                os.rename(path, live)  # its successor never got in place
            elif path.name.startswith((".incoming-", ".dead-", ".old-")):
                shutil.rmtree(path, ignore_errors=True)
        restored = []
        for path in sorted(root.iterdir()) if root.is_dir() else ():
            if path.is_dir() and not path.name.startswith("."):
                session = OpenWorldSession.attach(self._disk_store(path))
                self._register(path.name, session)
                restored.append(path.name)
        return restored

    @staticmethod
    def _validated_name(name: str) -> None:
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ValidationError(
                f"invalid session name {name!r}; names are 1-64 characters "
                "of [A-Za-z0-9._-] and start with a letter or digit"
            )
