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
constructed with a ``state_dir``, and then every session lives in a
:class:`~repro.storage.store.DiskStore` under ``<state_dir>/store/<name>/``:

* the store's segment log is the write-ahead copy of the observations
  (names and frame flushed before the state mutates), so the session's
  write-ahead log (:mod:`repro.resilience.wal`) holds only a
  ``{"op": "create_store"}`` head and one slim ``{"op": "ingest", "v",
  "rows"}`` reference per acknowledged chunk;
* :meth:`save_state` checkpoints each **dirty** session by sealing its
  active segment and writing a small per-session file under
  ``<state_dir>/sessions/``, then rotates the journal down to the
  references the seal does not cover (clean sessions are skipped);
* :meth:`load_state` re-attaches every store (O(1) on its mmapped
  invariants; a small store is rebuilt from its log) and lets the
  journal's references cross-check it.
  Deletions write a durable ``<name>.tombstone`` file *before* any
  state is unlinked, so the session *set* is as crash-safe as the
  session contents.

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
import itertools
import json
import os
import re
import shutil
import threading
from pathlib import Path
from typing import Any

from repro.api.session import OpenWorldSession
from repro.data.records import Observation
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import fault_point
from repro.resilience.wal import (
    WalCorruptionError,
    WriteAheadLog,
    fsync_directory,
    make_directories,
)
from repro.serving.batcher import CoalescingBatcher
from repro.serving.cache import DEFAULT_CACHE_ENTRIES, EstimateCache, request_key
from repro.serving.locks import RWLock
from repro.serving.versions import VersionGate
from repro.storage.store import DiskStore
from repro.storage.transfer import archive_header, unpack_archive
from repro.utils.exceptions import ReproError, ValidationError

__all__ = [
    "DuplicateSessionError",
    "UnknownSessionError",
    "ServedSession",
    "SessionRegistry",
    "STATE_SCHEMA",
    "SESSION_STATE_SCHEMA",
    "WAL_DIRNAME",
    "SESSIONS_DIRNAME",
    "STORE_DIRNAME",
]

#: Envelope identifier of the registry's /stats payload.
STATE_SCHEMA = "repro.serving/v1"

#: Envelope identifier of one per-session checkpoint file.
SESSION_STATE_SCHEMA = "repro.serving-session/v1"

#: Subdirectory of the state dir holding the per-session WALs.
WAL_DIRNAME = "wal"

#: Subdirectory holding per-session checkpoint and tombstone files.
SESSIONS_DIRNAME = "sessions"

#: Subdirectory holding per-session disk stores.
STORE_DIRNAME = "store"

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


# ---------------------------------------------------------------------- #
# WAL record conventions
# ---------------------------------------------------------------------- #
#
# Record shapes living in a session's journal:
#
#   {"op": "create_store"}
#       Head record: the session was created (or restored) after the
#       last checkpoint.  The store directory, not the journal, carries
#       the state.
#
#   {"op": "ingest", "v": <post-ingest state_version>, "rows": <count>}
#       Slim reference appended *after* the store committed the chunk
#       (the segment log is the write-ahead copy).  Load only
#       validates: a reference beyond the store's recovered version
#       means the store lost an acknowledged chunk.
#
# Deletions are not journaled: a durable ``sessions/<name>.tombstone``
# file is written before any state is unlinked.

#: Journal and checkpoint shapes of the retired memory-store format,
#: refused at load rather than silently dropped.
_MEMORY_FORMAT = (
    "the memory-store format (JSON snapshot checkpoints and "
    "full-observation journal records)"
)


class ServedSession:
    """One named session behind a reader/writer lock and the answer cache.

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
    wal:
        Optional :class:`~repro.resilience.wal.WriteAheadLog` receiving
        a slim reference per committed ingest (appended under the write
        lock, after the store made the chunk durable).
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
        wal: "WriteAheadLog | None" = None,
        breaker: "CircuitBreaker | None" = None,
    ) -> None:
        self.name = name
        self._session = session
        self._cache = cache
        self._batcher = batcher
        self._backend = backend
        self._workers = workers
        self._wal = wal
        self._breaker = breaker
        self._lock = RWLock()
        # Cache/coalescing keys carry the registry-assigned epoch, not the
        # bare name: deleting a session and recreating the name must never
        # let the new instance hit the old instance's entries (their
        # state_version counters both start at 0).
        self._cache_name = f"{name}#{epoch}"
        # THE freshness primitive of this session: every "has version v
        # arrived yet?" question -- long-poll waits, subscription pushes,
        # the cluster router's replica gate -- goes through this one
        # VersionGate rather than growing another ad-hoc mechanism.
        self._gate = VersionGate(session.state_version)
        self._stats_lock = threading.Lock()
        self._ingest_requests = 0
        self._read_requests = 0
        self._subscribers_started = 0
        self._subscribers_active = 0
        self._subscriber_pushes = 0
        self._subscriber_disconnects = 0
        # Version covered by the last durable checkpoint of this session
        # (-1 = never checkpointed, so even an empty session gets its
        # first per-session checkpoint file written).
        self.checkpointed_version = -1

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def ingest(self, observations: "list[Observation] | Observation") -> dict[str, Any]:
        """Exclusive ingest; returns the post-ingest version and counts.

        A persisted session's store is its own write-ahead copy:
        ``session.ingest`` validates the whole chunk before any write,
        then flushes names and the segment frame before the state
        mutates.  The WAL then receives a slim ``{"v", "rows"}``
        reference -- so a SIGKILL at *any* instruction of this method
        either loses an unacknowledged chunk entirely or recovers it
        exactly once, never half of it.

        Old cache entries need no explicit purge: they are keyed by the
        superseded version, unreachable from now on, and will age out of
        the LRU bound.
        """
        with self._lock.write_locked():
            ingested = self._session.ingest(observations)
            if ingested and self._wal is not None:
                self._wal.append(
                    {"op": "ingest", "v": self._session.state_version, "rows": ingested}
                )
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
        :mod:`repro.serving.versions`): long-poll ``?wait_version=``,
        the subscription stream, and the cluster router's replica gate
        all funnel through this method.  Returns the published version
        once reached, the current (possibly lower) version if the
        session is retired mid-wait, or ``None`` on timeout.

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
        return self.estimate_payloads([spec], attribute, timeout=timeout, mode=mode)[0]

    def estimate_payloads(
        self,
        specs: "list[str | None]",
        attribute: "str | None" = None,
        timeout: "float | None" = None,
        *,
        mode: "str | None" = None,
    ) -> list[dict[str, Any]]:
        """Several estimator specs against one state, fanned out as a batch.

        Distinct specs run through the batcher's execution backend;
        duplicate specs (within the batch or already in flight from other
        requests) compute once.  ``timeout`` (seconds) bounds the whole
        batch; expiry raises :class:`~repro.resilience.admission.
        DeadlineExceededError` while any led computation finishes in the
        background and still reaches the cache.

        ``mode`` selects the estimation path (see
        :meth:`repro.api.session.OpenWorldSession.estimate`): delta-vs-
        batch parity makes the payloads byte-identical, so the cache key
        deliberately excludes the mode -- but ``mode="delta"`` still
        validates estimator capability *before* the cache lookup, so an
        unsupported request fails loudly instead of riding a warm entry.
        """
        detail = attribute or self._session.attribute
        if mode == "delta":
            for spec in specs:
                self._session.validate_delta(spec, attribute)
        pairs = []
        results: list[Any] = [None] * len(specs)
        for index, spec in enumerate(specs):
            spec_key = self._canonical_spec(spec)
            key = request_key(
                self._cache_name, self._session.state_version, "estimate", spec_key, detail
            )
            cached = self._cache.get(key)
            with self._stats_lock:
                self._read_requests += 1
            if cached is not None:
                results[index] = cached
            else:
                pairs.append(
                    (
                        index,
                        key,
                        self._estimate_computation(
                            spec, spec_key, attribute, detail, mode
                        ),
                    )
                )
        if pairs:
            computed = self._batcher.execute_many(
                [(key, fn) for _, key, fn in pairs], timeout=timeout
            )
            for (index, _, _), payload in zip(pairs, computed):
                results[index] = payload
        return results

    def estimate_payload_at(
        self,
        spec: "str | None" = None,
        attribute: "str | None" = None,
        timeout: "float | None" = None,
        *,
        mode: "str | None" = None,
    ) -> "tuple[int, dict[str, Any]]":
        """A consistent ``(state_version, payload)`` pair.

        The subscription push path needs to label each pushed envelope
        with the exact version it reflects.  The cached read path does
        not expose the version it hit, so this re-reads the published
        version around the lookup and only accepts the pair when both
        reads agree -- versions are monotonic, so agreement means the
        cache lookup and any computation in between were keyed at that
        version.  Bounded retries; the race window is one ingest wide.
        """
        for _ in range(100):
            before = self._gate.version
            payload = self.estimate_payloads(
                [spec], attribute, timeout=timeout, mode=mode
            )[0]
            if self._gate.version == before:
                return before, payload
        # Pathological write pressure: serve the freshest pair under the
        # read lock directly (uncoalesced, but exact).
        with self._lock.read_locked():
            version = self._session.state_version
            estimate = self._guarded(
                lambda: self._session.estimate(attribute, spec, mode=mode)
            )
        return version, _served_payload(estimate.to_dict())

    def _estimate_computation(self, spec, spec_key, attribute, detail, mode=None):
        # backend/workers overrides only apply to spec-configured
        # estimators; a session built around an estimator *instance*
        # (in-process embedding only) rejects them.
        spec_configured = spec is not None or self._session.default_spec is not None

        def compute() -> dict[str, Any]:
            with self._lock.read_locked():
                # Version and estimate are read under one shared-lock
                # acquisition: ingests hold the write side, so this
                # (version, payload) pair is consistent by construction --
                # the invariant that makes version-keyed caching exact.
                version = self._session.state_version
                estimate = self._guarded(
                    lambda: self._session.estimate(
                        attribute,
                        spec,
                        backend=self._backend if spec_configured else None,
                        workers=self._workers if spec_configured else None,
                        mode=mode,
                    )
                )
            payload = _served_payload(estimate.to_dict())
            self._cache.put(
                request_key(self._cache_name, version, "estimate", spec_key, detail),
                payload,
            )
            return payload

        return compute

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
        spec_key = self._canonical_spec(spec)
        detail = f"{'closed' if closed_world else 'open'}:{sql}"
        key = request_key(
            self._cache_name, self._session.state_version, "query", spec_key, detail
        )
        with self._stats_lock:
            self._read_requests += 1
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        def compute() -> dict[str, Any]:
            with self._lock.read_locked():
                version = self._session.state_version
                answer = self._guarded(
                    lambda: self._session.query(
                        sql, spec=spec, closed_world=closed_world
                    )
                )
            payload = _served_payload(answer.to_dict())
            self._cache.put(
                request_key(self._cache_name, version, "query", spec_key, detail),
                payload,
            )
            return payload

        return self._batcher.execute(key, compute, timeout=timeout)

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
    # WAL checkpointing
    # ------------------------------------------------------------------ #

    def checkpoint_wal(self, snapshot_version: int) -> None:
        """Rotate the WAL down to records newer than ``snapshot_version``.

        Runs under the write lock so no ingest can append between the
        cut-off decision and the rewrite.  Called *after* the checkpoint
        file is durably in place: the ``create_store`` head (now
        redundant) and every covered reference are dropped; anything
        newer -- an ingest that raced the seal -- is kept.
        """
        if self._wal is None:
            return
        with self._lock.write_locked():
            records = self._wal.recover()
            keep = [
                record
                for record in records
                if record.get("op") == "ingest"
                and int(record.get("v", 0)) > int(snapshot_version)
            ]
            self._wal.rewrite(keep)

    @property
    def dirty(self) -> bool:
        """True when state has advanced past the last durable checkpoint."""
        return self._session.state_version > self.checkpointed_version

    def seal_store(self) -> int:
        """Seal a disk store's active segment (the disk-mode checkpoint).

        Under the write lock, so the sealed version is exact.  Returns
        the session's ``state_version`` the seal covers.
        """
        with self._lock.write_locked():
            version = self._session.state_version
            self._session.store.seal()
            return version

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
        if self._wal is not None:  # a persisted session, on a disk store
            out["wal"] = self._wal.stats()
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
        (``process`` here shards the Monte-Carlo grid; the batcher's
        request fan-out stays on threads).
    cache_entries:
        LRU bound of the shared answer cache.
    state_dir:
        Enables crash-safe persistence: every session lives in a disk
        store under ``<state_dir>/store/<name>/``, journals lifecycle
        records to ``<state_dir>/wal/<name>.wal`` and is checkpointed
        into ``<state_dir>/sessions/`` by :meth:`save_state`.  Without
        it the registry keeps sessions in memory and :meth:`save_state`
        / :meth:`load_state` refuse to run.
    wal_fsync / wal_batch_every:
        Durability policy of the journals and the stores' segment logs
        (see :class:`WriteAheadLog`).
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
        wal_batch_every: "int | None" = None,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
        breaker_clock: Any = None,
    ) -> None:
        self._backend = backend
        self._workers = workers
        self.cache = EstimateCache(cache_entries)
        self.batcher = CoalescingBatcher(
            "thread" if backend == "process" else (backend or "serial"), workers
        )
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
        self._wal_batch_every = wal_batch_every
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

    def _subdir(self, name: str) -> Path:
        """``<state_dir>/<name>``, created durably on first use."""
        path = self._persisted_dir() / name
        make_directories(path, sync=self._wal_fsync != "never")
        return path

    def _sessions_dir(self) -> Path:
        return self._persisted_dir() / SESSIONS_DIRNAME

    def _wal_path(self, name: str) -> Path:
        return self._persisted_dir() / WAL_DIRNAME / f"{name}.wal"

    def _checkpoint_path(self, name: str) -> Path:
        return self._sessions_dir() / f"{name}.json"

    def _tombstone_path(self, name: str) -> Path:
        return self._sessions_dir() / f"{name}.tombstone"

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
        """True once restore/replay has finished (or was never needed)."""
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
        """Create and register a fresh named session (409 on duplicates)."""
        self._validated_name(name)
        with self._owning(name, create=True):
            store = None
            if self._state_dir is not None:
                # Traces of a dead incarnation of this name (a crash
                # between its durable tombstone and the last unlink).
                self._purge_session_files(name)
                store = self._disk_store(self._subdir(STORE_DIRNAME) / name)
            try:
                session = OpenWorldSession(
                    attribute,
                    table_name=table_name,
                    estimator=estimator,
                    count_method=count_method,
                    store=store,
                )
            except BaseException:
                if store is not None:
                    store.close()
                    shutil.rmtree(store.directory, ignore_errors=True)
                raise
            return self._register(name, session, wal=self._journal_create(name))

    def _disk_store(self, directory: Path) -> DiskStore:
        return DiskStore(directory, **self._fsync_policy())

    def _fsync_policy(self) -> "dict[str, Any]":
        """The durability keywords of every journal and store."""
        kwargs: dict[str, Any] = {"fsync": self._wal_fsync}
        if self._wal_batch_every is not None:
            kwargs["batch_every"] = self._wal_batch_every
        return kwargs

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
          that keeps the current instance (the idempotent-retry case).

        Either way the returned session's ``info()['state_version']`` is
        what the caller fences on: it equals the envelope's version
        exactly when this registry now holds the transferred state.

        A persisted registry seeds a store in ``store/.incoming-<name>``
        and only moves it to its final path once fully seeded, so a
        crash mid-restore never leaves a half-written store under the
        live name; the boot scavenger (:meth:`_scavenge_store_dir`)
        discards interrupted promotions -- they were never
        acknowledged, so the sender retries them.
        """
        self._validated_name(name)
        with self._owning(name):
            if self._state_dir is None:
                session = OpenWorldSession.restore(payload)
                if self._keeps_current(name, session.state_version):
                    return self.get(name)
                return self._register(name, session)
            incoming = self._incoming_path(name)
            store = self._disk_store(incoming)
            try:
                session = OpenWorldSession.restore(payload, store=store)
                store.sync()
            except BaseException:
                store.close()
                shutil.rmtree(incoming, ignore_errors=True)
                raise
            version = session.state_version
            session.close()
            return self._promote_incoming(name, incoming, version)

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
            incoming = self._incoming_path(name)
            try:
                unpack_archive(read, incoming)
                session = OpenWorldSession.attach(self._disk_store(incoming))
            except BaseException:
                shutil.rmtree(incoming, ignore_errors=True)
                raise
            version = session.state_version
            session.close()
            return self._promote_incoming(name, incoming, version)

    def _incoming_path(self, name: str) -> Path:
        """A clean ``store/.incoming-<name>`` (held under ``_owning``)."""
        incoming = self._subdir(STORE_DIRNAME) / f".incoming-{name}"
        if incoming.exists():
            shutil.rmtree(incoming)
        return incoming

    def _keeps_current(self, name: str, version: int) -> bool:
        """Replace-if-newer: True to keep the current ``name``, else drop it."""
        with self._lock:
            existing = self._sessions.get(name)
        if existing is None:
            return False
        with existing._lock.read_locked():
            current_version = existing._session.state_version
        if current_version >= version:
            return True
        self._discard(name)
        return False

    def _promote_incoming(
        self, name: str, incoming: Path, version: int
    ) -> ServedSession:
        """Make a fully-seeded incoming store the live one for ``name``.

        Replace-if-newer against any current session, then a single
        ``os.rename`` flips the directory into place and the session is
        re-attached from disk -- reopening after the rename is cheaper
        to reason about than proving every held fd survives it.
        """
        if self._keeps_current(name, version):
            shutil.rmtree(incoming, ignore_errors=True)
            return self.get(name)
        final = self.store_path(name)
        os.rename(incoming, final)
        if self._wal_fsync != "never":
            fsync_directory(final.parent)
        attached = OpenWorldSession.attach(self._disk_store(final))
        return self._register(name, attached, wal=self._journal_create(name))

    def _journal_create(self, name: str) -> "WriteAheadLog | None":
        """Journal the ``create_store`` head of ``name``'s new store.

        The head supersedes a tombstone of a deleted previous
        incarnation, which is cleared durably first; the journal is
        rewritten (not appended) because it may hold that incarnation's
        records.
        """
        if self._state_dir is None:
            return None
        self._clear_tombstone(name)
        self._subdir(WAL_DIRNAME)
        wal = self._open_wal(name)
        wal.rewrite([{"op": "create_store"}])
        return wal

    def _register(
        self,
        name: str,
        session: OpenWorldSession,
        *,
        wal: "WriteAheadLog | None" = None,
    ) -> ServedSession:
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
            wal=wal,
            breaker=breaker,
        )
        with self._lock:
            if name in self._sessions:
                if wal is not None:
                    wal.close()
                raise DuplicateSessionError(f"session {name!r} already exists")
            self._sessions[name] = served
        return served

    def _open_wal(self, name: str) -> WriteAheadLog:
        return WriteAheadLog(self._wal_path(name), **self._fsync_policy())

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

        With a state dir, a durable ``<name>.tombstone`` file is written
        **before** any state is unlinked: a crash at any point after it
        cannot resurrect the session (load honors the tombstone and
        finishes the cleanup), and a crash before it leaves the session
        fully intact -- deletion is atomic at the tombstone write.  The
        WAL, checkpoint file and store directory are then removed.

        Its cache entries become unreachable and age out of the LRU bound
        like superseded versions do: keys carry the instance's unique
        epoch, so even a recreated session with the same name can never
        hit them.
        """
        with self._owning(name):
            self._discard(name)

    def _discard(self, name: str) -> None:
        """:meth:`remove` for a caller that already holds ``name``."""
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
            return
        # Under the session's write lock: an in-flight ingest that
        # grabbed the served object before the pop must not append
        # behind the deletion.
        with served._lock.write_locked():
            self._write_tombstone(name)
            if served._wal is not None:
                served._wal.close()
            self._wal_path(name).unlink(missing_ok=True)
            self._checkpoint_path(name).unlink(missing_ok=True)
            served._session.close()
            shutil.rmtree(self.store_path(name), ignore_errors=True)

    def _write_tombstone(self, name: str) -> None:
        sessions_dir = self._subdir(SESSIONS_DIRNAME)
        path = self._tombstone_path(name)
        with open(path, "wb") as handle:
            handle.write(b"{}\n")
            handle.flush()
            os.fsync(handle.fileno())
        fsync_directory(sessions_dir)

    def _clear_tombstone(self, name: str) -> None:
        """Unlink ``name``'s tombstone, durably when there was one.

        An unlink survives a power loss only once its directory is
        fsynced, so the directories that held the deleted session's
        traces are fsynced first: a trace that outlived its tombstone
        would resurrect the session, or stop the next load.
        """
        tombstone = self._tombstone_path(name)
        if not tombstone.exists():
            return
        sync = self._wal_fsync != "never"
        if sync:
            for dirname in (WAL_DIRNAME, STORE_DIRNAME, SESSIONS_DIRNAME):
                directory = self._persisted_dir() / dirname
                if directory.is_dir():
                    fsync_directory(directory)
        tombstone.unlink(missing_ok=True)
        if sync:
            fsync_directory(self._sessions_dir())

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
        """Checkpoint every **dirty** session under ``<state_dir>/sessions/``.

        A checkpoint *seals* the session's active segment (the manifest
        write inside the store is the durability point -- sealed
        segments are never rewritten), then writes a small
        ``sessions/<name>.json`` holding the covered version: next to
        its final location, fsynced, and moved into place with
        :func:`os.replace`, so a crash mid-write leaves the previous
        file intact, never a torn one.  The session's WAL is then
        rotated down to the references the seal does not cover, and
        leftovers of deleted sessions (tombstones whose state is gone,
        orphan journals) are purged.  Sessions whose ``state_version``
        has not advanced since their last checkpoint are skipped.

        Returns the ``sessions/`` directory.
        """
        sessions_dir = self._subdir(SESSIONS_DIRNAME)
        for served in self.sessions():
            if not served.dirty:
                continue
            version = served.seal_store()
            self._write_checkpoint_file(
                self._checkpoint_path(served.name),
                {"schema": SESSION_STATE_SCHEMA, "store": "disk", "state_version": version},
            )
            # The checkpoint is durable; rotate the journal behind it.
            served.checkpoint_wal(version)
            served.checkpointed_version = max(
                served.checkpointed_version, version
            )
        self._purge_orphan_wals()
        self._purge_dead_state()
        return sessions_dir

    @staticmethod
    def _write_checkpoint_file(path: Path, payload: "dict[str, Any]") -> None:
        scratch = path.with_suffix(path.suffix + ".tmp")
        with open(scratch, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        fault_point("registry.before_replace")
        os.replace(scratch, path)
        fsync_directory(path.parent)

    def _live_names(self) -> "set[str]":
        """Names whose files are in use: registered or held by a call."""
        with self._lock:
            return set(self._sessions) | self._busy

    def _purge_dead_state(self) -> None:
        """Clean up leftovers of deleted sessions (idempotent, crash-safe).

        A tombstone file is only unlinked once every trace of its
        session (journal, checkpoint, store directory) is gone, so a
        crash in the middle of this sweep re-runs it harmlessly.
        """
        sessions_dir = self._sessions_dir()
        live = self._live_names()
        for path in sessions_dir.glob("*.tombstone"):
            name = path.name[: -len(".tombstone")]
            if name not in live:
                self._purge_session_files(name)
        for path in sessions_dir.glob("*.json"):
            if path.stem not in live:
                path.unlink(missing_ok=True)

    def _purge_session_files(self, name: str) -> None:
        """Unlink every trace of deleted ``name``, its tombstone last."""
        self._wal_path(name).unlink(missing_ok=True)
        self._checkpoint_path(name).unlink(missing_ok=True)
        shutil.rmtree(self.store_path(name), ignore_errors=True)
        self._clear_tombstone(name)

    def _purge_orphan_wals(self) -> None:
        live = self._live_names()
        for path in (self._persisted_dir() / WAL_DIRNAME).glob("*.wal"):
            if path.stem not in live:
                path.unlink(missing_ok=True)

    def load_state(self) -> list[str]:
        """Re-attach every stored session, cross-checked by its journal.

        Missing state files are not an error (first boot of a fresh
        ``--state-dir``).  Torn or corrupt WAL tails are truncated at
        the last clean record boundary (CRC framing); a journal that
        references a version its store does not hold raises
        :class:`~repro.resilience.wal.WalCorruptionError` -- that is a
        bug or foreign tampering, not a crash artifact, and silently
        serving wrong answers is worse than refusing to start.

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
        """One rule per name, as DESIGN.md "Recovery rules on load" lists them."""
        directory = self._persisted_dir()
        self._scavenge_store_dir()
        sessions_dir = self._sessions_dir()
        tombstones = {
            path.name[: -len(".tombstone")]
            for path in sessions_dir.glob("*.tombstone")
        }
        checkpoints: dict[str, dict[str, Any]] = {}
        for path in sorted(sessions_dir.glob("*.json")):
            payload = json.loads(path.read_text())
            if (
                not isinstance(payload, dict)
                or payload.get("schema") != SESSION_STATE_SCHEMA
            ):
                raise ValidationError(
                    f"{path} is not a {SESSION_STATE_SCHEMA!r} checkpoint"
                )
            checkpoints[path.stem] = payload
        store_root = directory / STORE_DIRNAME
        stores = {
            path.parent.name
            for path in store_root.glob("*/manifest.json")
            if path.is_file() and not path.parent.name.startswith(".")
        }
        journal_names = {path.stem for path in (directory / WAL_DIRNAME).glob("*.wal")}
        restored = []
        for name in sorted(set(checkpoints) | stores | journal_names | tombstones):
            if name in tombstones:
                # Deleted: the durable tombstone is authoritative over
                # any trace a crash left behind.  Finish the cleanup.
                self._purge_session_files(name)
                continue
            wal = self._open_wal(name) if name in journal_names else None
            records = wal.recover() if wal is not None else []
            entry = checkpoints.get(name)
            if (entry is not None and entry.get("store") != "disk") or any(
                record.get("op") == "create" or "observations" in record
                for record in records
            ):
                raise ValidationError(
                    f"state dir {directory} holds session {name!r} in "
                    f"{_MEMORY_FORMAT}, which this version no longer reads; "
                    "move it with GET .../snapshot on the version that "
                    "wrote it and POST .../restore here"
                )
            if name not in stores:
                trace = "checkpoint" if entry is not None else "journal"
                raise WalCorruptionError(
                    f"{trace} for {name!r} references a disk store but "
                    f"{store_root / name} holds none"
                )
            served = self._register(
                name, self._attach_store_session(name, records), wal=wal
            )
            if entry is not None:
                served.checkpointed_version = int(entry.get("state_version", -1))
            restored.append(name)
        return restored

    def _attach_store_session(
        self, name: str, records: "list[dict[str, Any]]"
    ) -> OpenWorldSession:
        """O(1) re-attach of a disk store, validating the WAL references.

        The store's segment log was the write-ahead copy, so nothing is
        replayed from the WAL; its slim references only cross-check that
        the store recovered everything it acknowledged.
        """
        session = OpenWorldSession.attach(self._disk_store(self.store_path(name)))
        for record in records:
            if record.get("op") != "ingest":
                continue
            version = int(record.get("v", 0))
            if version > session.state_version:
                raise WalCorruptionError(
                    f"journal {name!r} references state_version {version} "
                    f"but the store recovered only {session.state_version}; "
                    "the store lost an acknowledged chunk"
                )
        return session

    def _scavenge_store_dir(self) -> None:
        """Discard interrupted store promotions (crash mid-restore).

        ``.incoming-<name>`` directories are only renamed into place
        *before* the restored session is registered and acknowledged, so
        any still present at boot belongs to an unacknowledged transfer
        the sender will retry -- discard, never adopt.
        """
        for path in (self._persisted_dir() / STORE_DIRNAME).glob(".incoming-*"):
            shutil.rmtree(path, ignore_errors=True)

    @staticmethod
    def _validated_name(name: str) -> None:
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ValidationError(
                f"invalid session name {name!r}; names are 1-64 characters "
                "of [A-Za-z0-9._-] and start with a letter or digit"
            )
