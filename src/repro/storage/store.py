"""Session state stores: the in-memory default and the disk-backed store.

Both stores maintain the same :class:`~repro.data.progressive.
IntegrationState` -- per-entity counts and first-seen fused values in
first-seen order, per-source sizes, the frequency histogram -- which is
what makes every surface built on top (samples, estimates, snapshots,
query results) **byte-identical** across backends.  The difference is
durability:

:class:`MemoryStore`
    A thin wrapper over ``IntegrationState``.  The default, and the
    parity oracle the disk store is tested against.

:class:`DiskStore`
    Persists every ingest chunk as one columnar frame in an append-only
    segment log (:mod:`repro.storage.segments`), assigns first-seen
    indices through append-only name dictionaries (:mod:`repro.storage.
    names`), and maintains the aggregate invariants in memory-mapped
    arrays (:mod:`repro.storage.invariants`).  Attach is O(1) -- read
    the manifest, mmap the invariants, scan the small active-segment
    tail -- and the dict materialization the estimators need is
    deferred until the first read, so a process restart reaches
    readiness in milliseconds regardless of session size.

Crash consistency (the order of operations per ingest chunk):

1. new names are appended and flushed (write-ahead of the frame that
   references them);
2. the frame is appended and flushed -- **this is the durability
   point**; ``storage.after_frame`` fires here;
3. the chunk is folded into the in-memory state;
4. the mmapped arrays absorb the chunk's touched indices, bracketed by
   the ``applying`` meta flag, and the meta header commits the new
   counters.  A store creates its invariant files once its log holds
   ``_INVARIANT_ROWS`` rows; a smaller one skips this step, and attach
   rebuilds its state from the log.

A SIGKILL before (2) loses the unacknowledged chunk only; between (2)
and (4) attach finds frames beyond the meta's ``state_version`` and
replays that small tail; *during* (4) the ``applying`` flag is still
raised and attach rebuilds the arrays from the segment log, which is
authoritative.  Nothing acknowledged is ever lost: the segment log is
the session's only write-ahead copy.  A power loss can also keep the
meta of a chunk whose frame it tore; attach finds the meta ahead of the
log and rebuilds from the log too, so the chunk is lost (the client
resends it) instead of served from arrays the log contradicts.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Any

import numpy as np

from repro.data.progressive import IntegrationState
from repro.data.records import Observation
from repro.storage.invariants import InvariantStore
from repro.storage.layout import (
    DEFAULT_BATCH_EVERY,
    StorageError,
    StoreLayout,
    make_directories,
)
from repro.storage.names import NameLog, encode_entries
from repro.storage.segments import (
    FRAME_SEED,
    Frame,
    SegmentLog,
    encode_frame,
    encode_seed_frame,
    read_frames,
)

__all__ = ["MemoryStore", "DiskStore"]

#: Config keys a store persists for O(1) re-attach.
_CONFIG_KEYS = ("attribute", "table_name", "estimator", "count_method")

#: Logged rows from which a store keeps its invariants in files.  Below
#: it, attach rebuilds the state from the log (a few milliseconds), which
#: costs less than creating the five invariant files for every small
#: session.
_INVARIANT_ROWS = 1024


class MemoryStore:
    """The default in-RAM store: state lives and dies with the process."""

    kind = "memory"

    def __init__(self) -> None:
        self.state = IntegrationState()
        self._config: "dict[str, Any] | None" = None

    # -- counters (cheap, no materialization semantics needed) --------- #

    @property
    def n(self) -> int:
        return self.state.n

    @property
    def c(self) -> int:
        return len(self.state.counts)

    @property
    def n_sources(self) -> int:
        return len(self.state.per_source)

    @property
    def seed_source_sizes(self) -> "tuple[int, ...]":
        return ()

    # -- lifecycle ------------------------------------------------------ #

    def bind_config(self, config: "dict[str, Any]") -> None:
        self._config = dict(config)

    def attached_config(self) -> "dict[str, Any] | None":
        return None  # memory stores never carry recoverable state

    def apply_chunk(
        self,
        chunk: "list[Observation] | tuple[Observation, ...]",
        attribute: str,
        state_version: int,
        n_ingested: int,
    ) -> None:
        state = self.state
        for obs in chunk:
            state.integrate(obs, attribute)

    def load_state(
        self,
        *,
        counts: "dict[str, int]",
        values: "dict[str, dict[str, float]]",
        per_source: "dict[str, int]",
        frequencies: "dict[int, int]",
        n: int,
        seed_source_sizes: "tuple[int, ...]",
        n_ingested: int,
        state_version: int,
    ) -> None:
        state = self.state
        state.counts = counts
        state.values = values
        state.per_source = per_source
        state.frequencies = frequencies
        state.n = n

    def close(self) -> None:
        pass


class DiskStore:
    """Per-session disk store: segment log + name logs + mmap invariants.

    Mutations are not thread-safe by themselves: they are serialized by
    the caller (the serving layer's per-session writer lock).  The lazy
    decode/materialization a first read triggers is guarded here,
    because concurrent readers (or a reader racing a replica push) can
    trigger it together.
    """

    kind = "disk"

    def __init__(
        self,
        directory: "str | os.PathLike[str]",
        *,
        fsync: str = "batch",
        batch_every: int = DEFAULT_BATCH_EVERY,
    ) -> None:
        self._layout = StoreLayout(directory)
        make_directories(self._layout.directory, sync=fsync != "never")
        self.fsync_policy = fsync
        self._segments = SegmentLog(
            self._layout.directory, fsync=fsync, batch_every=batch_every
        )
        self._invariants = InvariantStore(self._layout.directory)
        self._entities_log = NameLog(self._layout.entities_path)
        self._sources_log = NameLog(self._layout.sources_path)

        self._config: "dict[str, Any] | None" = None
        self._seed_sizes: "tuple[int, ...]" = ()
        self._sealed_entries: "list[dict[str, Any]]" = []
        self._manifest_dirty = False

        # Materialized lazily (the O(c) part restart must not pay), under
        # one double-checked lock; ``_materialized`` is published last, so
        # a reader that sees it True sees the indexes and replayed tail.
        self._lazy_lock = threading.RLock()
        self._materialized = False
        self._state_obj: "IntegrationState | None" = None
        self._entity_index: "dict[str, int] | None" = None
        self._source_index: "dict[str, int] | None" = None
        self._entity_names: "list[str] | None" = None
        self._source_names: "list[str] | None" = None
        self._entities_bytes = 0
        self._sources_bytes = 0
        self._max_count = 0

        # Attach-time recovery results:
        self._tail_frames: "list[Frame]" = []
        self._needs_rebuild = False
        self._n = 0
        self._c = 0
        self._n_sources = 0
        # The committed state_version and n_ingested (recovered at attach,
        # advanced by every chunk).
        self._version = 0
        self._n_ingested = 0

        self._attach()

    # ------------------------------------------------------------------ #
    # Attach: O(1) + small-tail scan
    # ------------------------------------------------------------------ #

    def _attach(self) -> None:
        manifest = self._layout.read_manifest()
        if manifest is not None:
            self._config = dict(manifest["config"])
            self._seed_sizes = tuple(int(s) for s in manifest["seed_source_sizes"])
            self._sealed_entries = [dict(e) for e in manifest["sealed"]]
        active_frames = self._segments.recover_active()
        listed = {entry["segment"] for entry in self._sealed_entries}
        orphan_frames: list[Frame] = []
        for path in self._segments.sealed_segments():
            if path.name in listed:
                continue
            # Sealed before the manifest write could record it (a crash
            # in the storage.after_seal window): adopt it.
            frames = read_frames(path, sealed=True)
            raw_size = path.stat().st_size
            orphan_frames.extend(frames)
            self._sealed_entries.append(
                {
                    "segment": path.name,
                    "frames": len(frames),
                    "rows": sum(f.n_rows for f in frames),
                    "bytes": raw_size,
                    "crc": _file_crc(path),
                }
            )
            self._manifest_dirty = True
        self._sealed_entries.sort(key=lambda entry: entry["segment"])
        for entry in self._sealed_entries:
            segment_path = self._layout.directory / entry["segment"]
            if not segment_path.is_file():
                raise StorageError(
                    f"manifest lists segment {entry['segment']} but the file "
                    f"is missing from {self._layout.directory}"
                )

        meta = self._invariants.meta
        inv = self._invariants
        # The highest version the log holds: the last seal's, or a frame's
        # past it.
        logged = max(
            [int(manifest["state_version"]) if manifest is not None else 0]
            + [frame.state_version for frame in orphan_frames + active_frames]
        )
        if inv.meta_present and not inv.meta_valid:
            self._needs_rebuild = True
        elif inv.applying:
            self._needs_rebuild = True  # crash mid array update
        elif not inv.meta_present and (
            active_frames or orphan_frames or self._sealed_entries
        ):
            self._needs_rebuild = True  # data without invariants
        elif int(meta["state_version"]) > logged:
            # A power loss kept the arrays of a chunk whose frame it tore:
            # the log is authoritative, so the chunk is lost, not served.
            self._needs_rebuild = True

        baseline = int(meta["state_version"]) if inv.meta_valid else 0
        tail = [
            frame
            for frame in orphan_frames + active_frames
            if frame.state_version > baseline
        ]
        if any(frame.kind == FRAME_SEED for frame in tail):
            # The seed never committed to the arrays (a crash inside
            # load_state, which is only reachable before the restore was
            # acknowledged).  Rebuild wholesale; it is the rare path.
            self._needs_rebuild = True
        self._tail_frames = tail

        if self._needs_rebuild:
            if self._config is None:
                raise StorageError(
                    f"directory {self._layout.directory} holds segment data "
                    "but no manifest -- an interrupted store transfer or "
                    "external damage; remove the directory and re-transfer"
                )
            self._materialize()
            return

        self._n = int(meta["n"]) + sum(f.n_rows for f in tail)
        self._n_ingested = int(meta["n_ingested"]) + sum(
            f.n_rows for f in tail
        )
        self._c = int(meta["n_entities"])
        self._n_sources = int(meta["n_sources"])
        for frame in tail:
            if frame.n_rows:
                self._c = max(self._c, int(frame.entity_idx.max()) + 1)
                self._n_sources = max(self._n_sources, int(frame.source_idx.max()) + 1)
        self._version = max(
            baseline, max((f.state_version for f in tail), default=0)
        )
        self._max_count = int(meta["max_count"])
        self._entities_bytes = int(meta["entities_bytes"])
        self._sources_bytes = int(meta["sources_bytes"])

    def recovered_counters(self) -> "dict[str, int]":
        """Counters a session adopts when re-attaching this store."""
        return {
            "state_version": self._version,
            "n_ingested": self._n_ingested,
        }

    # ------------------------------------------------------------------ #
    # Counters and config
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        return self._state_obj.n if self._materialized else self._n

    @property
    def c(self) -> int:
        if self._materialized:
            return len(self._state_obj.counts)
        return self._c

    @property
    def n_sources(self) -> int:
        if self._materialized:
            return len(self._state_obj.per_source)
        return self._n_sources

    @property
    def seed_source_sizes(self) -> "tuple[int, ...]":
        return self._seed_sizes

    @property
    def directory(self):
        return self._layout.directory

    @property
    def materialized(self) -> bool:
        return self._materialized

    def bind_config(self, config: "dict[str, Any]") -> None:
        """Persist the session config on first bind; verify on re-bind."""
        config = {key: config[key] for key in _CONFIG_KEYS}
        if not isinstance(config["estimator"], str):
            raise StorageError(
                "a disk store requires a spec-string estimator (estimator "
                "instances cannot be persisted); construct the session with "
                "a spec string or use the memory store"
            )
        if self._config is None:
            self._config = config
            self._write_manifest()
        elif self._config != config:
            raise StorageError(
                f"store at {self._layout.directory} was created with config "
                f"{self._config}; cannot re-bind it to {config}"
            )

    def attached_config(self) -> "dict[str, Any] | None":
        return dict(self._config) if self._config is not None else None

    @property
    def attribute(self) -> str:
        if self._config is None:
            raise StorageError(
                f"store at {self._layout.directory} has no bound config"
            )
        return self._config["attribute"]

    # ------------------------------------------------------------------ #
    # Materialization (lazy O(c); the attach fast path skips it)
    # ------------------------------------------------------------------ #

    @property
    def state(self) -> IntegrationState:
        if not self._materialized:
            self._materialize()
        return self._state_obj

    def _decode_names(self) -> None:
        if self._entity_names is not None and self._source_names is not None:
            return
        with self._lazy_lock:
            if self._entity_names is None or self._source_names is None:
                entity_names, _ = self._entities_log.read_all()
                source_names, _ = self._sources_log.read_all()
                self._entity_names, self._source_names = entity_names, source_names

    def _materialize(self) -> None:
        if self._materialized:
            return
        with self._lazy_lock:
            if not self._materialized:
                self._materialize_locked()
                self._materialized = True

    def _materialize_locked(self) -> None:
        self._decode_names()
        if self._needs_rebuild:
            self._rebuild()
            return
        meta = self._invariants.meta
        c0 = int(meta["n_entities"])
        s0 = int(meta["n_sources"])
        if len(self._entity_names) < c0 or len(self._source_names) < s0:
            raise StorageError(
                f"name dictionaries at {self._layout.directory} are shorter "
                "than the invariants reference (names are flushed before "
                "frames, so this is external damage, not crash damage)"
            )
        attribute = self.attribute
        state = IntegrationState()
        if c0:
            counts_arr = self._invariants.array("counts", c0)
            values_arr = self._invariants.array("values", c0)
            counts_list = counts_arr[:c0].tolist()
            values_list = values_arr[:c0].tolist()
            entity_names = self._entity_names
            state.counts = {
                entity_names[i]: counts_list[i] for i in range(c0)
            }
            state.values = {
                entity_names[i]: {attribute: values_list[i]} for i in range(c0)
            }
        if s0:
            sources_arr = self._invariants.array("sources", s0)
            sizes = sources_arr[:s0].tolist()
            state.per_source = {
                self._source_names[j]: sizes[j] for j in range(s0)
            }
        max_count = int(meta["max_count"])
        if max_count:
            freq_arr = self._invariants.array("freq", max_count + 1)
            freq_list = freq_arr[: max_count + 1].tolist()
            state.frequencies = {
                j: freq_list[j] for j in range(1, max_count + 1) if freq_list[j]
            }
        state.n = int(meta["n"])
        self._state_obj = state
        self._install_indexes()
        self._max_count = max_count
        tail, self._tail_frames = self._tail_frames, []
        for frame in tail:
            self._replay_frame(frame)

    def _install_indexes(self) -> None:
        """Reconcile the name logs with the adopted state, build indexes.

        Names are written ahead of their frames, so a crash can leave
        entries whose frame never became durable; appending would then
        mint duplicate indices.  Truncate back to the entries the
        recovered state will reference (the tail replay re-appends any
        name it reintroduces -- same name, same index, by first-seen
        order).
        """
        state = self._state_obj
        referenced_e = _max_referenced(
            len(state.counts), self._tail_frames, "entity_idx"
        )
        referenced_s = _max_referenced(
            len(state.per_source), self._tail_frames, "source_idx"
        )
        if len(self._entity_names) > referenced_e:
            self._entities_log.truncate_to_entries(self._entity_names, referenced_e)
            self._entity_names = self._entity_names[:referenced_e]
        if len(self._source_names) > referenced_s:
            self._sources_log.truncate_to_entries(self._source_names, referenced_s)
            self._source_names = self._source_names[:referenced_s]
        self._entity_index = {
            name: i for i, name in enumerate(self._entity_names)
        }
        self._source_index = {
            name: i for i, name in enumerate(self._source_names)
        }
        self._entities_bytes = _entries_bytes(self._entity_names)
        self._sources_bytes = _entries_bytes(self._source_names)

    def _replay_frame(self, frame: Frame) -> None:
        """Fold one recovered tail frame into state *and* arrays."""
        attribute = self.attribute
        state = self._state_obj
        touched_old: dict[str, int] = {}
        sources_old: dict[str, int] = {}
        entity_names = self._entity_names
        source_names = self._source_names
        for row in range(frame.n_rows):
            e_i = int(frame.entity_idx[row])
            s_i = int(frame.source_idx[row])
            if e_i >= len(entity_names) or s_i >= len(source_names):
                raise StorageError(
                    "a durable frame references a name index the dictionaries "
                    "do not hold; names are flushed before frames, so this is "
                    "external damage"
                )
            name = entity_names[e_i]
            source = source_names[s_i]
            if frame.flags[row] & 1:
                attrs = {attribute: float(frame.values[row])}
            else:
                attrs = {}
            obs = Observation(name, attrs, source, int(frame.sequences[row]))
            if name not in touched_old:
                touched_old[name] = state.counts.get(name, 0)
            if source not in sources_old:
                sources_old[source] = state.per_source.get(source, 0)
            state.integrate(obs, attribute)
        self._apply_arrays(
            touched_old,
            sources_old,
            frame.state_version,
            self._attached_n_ingested_after(frame),
        )

    def _attached_n_ingested_after(self, frame: Frame) -> int:
        # During tail replay the meta counter trails the attach-computed
        # total; advance it frame by frame so a crash mid-replay resumes
        # at the right boundary.
        return int(self._invariants.meta["n_ingested"]) + frame.n_rows

    def _rebuild(self) -> None:
        """Rebuild the invariant arrays from the segment log wholesale.

        The rare recovery path (crash mid array update, or damaged
        invariants): segments are authoritative, so scan every frame.
        """
        self._decode_names()
        attribute = self.attribute
        state = IntegrationState()
        n_ingested = 0
        last_version = 0
        frames: list[Frame] = []
        for entry in self._sealed_entries:
            frames.extend(
                read_frames(self._layout.directory / entry["segment"], sealed=True)
            )
        frames.extend(self._segments.recover_active())
        entity_names = self._entity_names
        source_names = self._source_names
        for frame in frames:
            last_version = max(last_version, frame.state_version)
            if frame.kind == FRAME_SEED:
                seed = frame.seed or {}
                state.counts = {k: int(v) for k, v in seed["counts"].items()}
                state.values = {
                    k: {attribute: float(v)} for k, v in seed["values"].items()
                }
                state.per_source = {
                    k: int(v) for k, v in seed["per_source"].items()
                }
                state.n = int(seed["n"])
                counter: dict[int, int] = {}
                for count in state.counts.values():
                    counter[count] = counter.get(count, 0) + 1
                state.frequencies = counter
                n_ingested = int(seed["n_ingested"])
                self._seed_sizes = tuple(
                    int(s) for s in seed["seed_source_sizes"]
                )
                continue
            for row in range(frame.n_rows):
                name = entity_names[int(frame.entity_idx[row])]
                if frame.flags[row] & 1:
                    attrs = {attribute: float(frame.values[row])}
                else:
                    attrs = {}
                obs = Observation(
                    name,
                    attrs,
                    source_names[int(frame.source_idx[row])],
                    int(frame.sequences[row]),
                )
                state.integrate(obs, attribute)
            n_ingested += frame.n_rows
        self._state_obj = state
        self._needs_rebuild = False
        self._tail_frames = []
        self._install_indexes()
        if self._invariants.meta_present or state.n >= _INVARIANT_ROWS:
            self._invariants.reset()
            self._rewrite_arrays(state_version=last_version, n_ingested=n_ingested)
        self._version = last_version
        self._n_ingested = n_ingested

    def _rewrite_arrays(self, *, state_version: int, n_ingested: int) -> None:
        """Write the arrays wholesale from the materialized state."""
        state = self._state_obj
        inv = self._invariants
        inv.begin_apply()
        c = len(state.counts)
        if c:
            counts_arr = inv.array("counts", c)
            values_arr = inv.array("values", c)
            attribute = self.attribute
            counts_arr[:c] = np.fromiter(
                state.counts.values(), dtype="<u8", count=c
            )
            values_arr[:c] = np.fromiter(
                (vals[attribute] for vals in state.values.values()),
                dtype="<f8",
                count=c,
            )
        ns = len(state.per_source)
        if ns:
            sources_arr = inv.array("sources", ns)
            sources_arr[:ns] = np.fromiter(
                state.per_source.values(), dtype="<u8", count=ns
            )
        self._max_count = max(state.frequencies, default=0)
        if self._max_count:
            freq_arr = inv.array("freq", self._max_count + 1)
            freq_arr[: self._max_count + 1] = 0
            for j, count in state.frequencies.items():
                freq_arr[j] = count
        inv.commit(
            state_version=state_version,
            n=state.n,
            n_ingested=n_ingested,
            n_entities=c,
            n_sources=ns,
            max_count=self._max_count,
            entities_bytes=self._entities_bytes,
            sources_bytes=self._sources_bytes,
        )

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def apply_chunk(
        self,
        chunk: "list[Observation] | tuple[Observation, ...]",
        attribute: str,
        state_version: int,
        n_ingested: int,
    ) -> None:
        if self._config is None:
            raise StorageError(
                "the store has no bound config; sessions bind it at "
                "construction, so this store was used without a session"
            )
        self._materialize()
        state = self._state_obj
        entity_index = self._entity_index
        source_index = self._source_index
        count = len(chunk)
        e_idx = np.empty(count, dtype="<u4")
        s_idx = np.empty(count, dtype="<u4")
        vals = np.empty(count, dtype="<f8")
        seqs = np.empty(count, dtype="<i8")
        flags = np.zeros(count, dtype="u1")
        # First-seen names of this chunk get their indexes here and join
        # the shared indexes only once nothing can refuse the chunk.
        new_entities: dict[str, int] = {}
        new_sources: dict[str, int] = {}
        n_entities = len(entity_index)
        n_sources = len(source_index)
        touched_old: dict[str, int] = {}
        sources_old: dict[str, int] = {}
        for i, obs in enumerate(chunk):
            name = obs.entity_id
            index = entity_index.get(name)
            if index is None:
                index = new_entities.setdefault(name, n_entities + len(new_entities))
            e_idx[i] = index
            source = obs.source_id
            index = source_index.get(source)
            if index is None:
                index = new_sources.setdefault(source, n_sources + len(new_sources))
            s_idx[i] = index
            try:
                vals[i] = float(obs.value(attribute))
                flags[i] = 1
            except (KeyError, TypeError, ValueError):
                vals[i] = math.nan
            seqs[i] = obs.sequence
            if name not in touched_old:
                touched_old[name] = state.counts.get(name, 0)
            if source not in sources_old:
                sources_old[source] = state.per_source.get(source, 0)
        # Encoding refuses a frame or a name its reader would drop as a
        # corrupt tail: the ingest fails before anything is written.
        frame = encode_frame(state_version, e_idx, s_idx, vals, seqs, flags)
        entity_entries = encode_entries(list(new_entities))
        source_entries = encode_entries(list(new_sources))
        # 1. Names ahead of the frame that references them.
        if new_entities:
            entity_index.update(new_entities)
            self._entities_log.append(entity_entries)
            self._entity_names.extend(new_entities)
            self._entities_bytes += len(entity_entries)
        if new_sources:
            source_index.update(new_sources)
            self._sources_log.append(source_entries)
            self._source_names.extend(new_sources)
            self._sources_bytes += len(source_entries)
        # 2. The frame: the durability point.  An fsync of the frame is
        #    preceded by one of the names it references.
        sync = self._segments.sync_due()
        if sync:
            self._entities_log.sync()
            self._sources_log.sync()
        self._segments.append(frame, count, sync=sync)
        # 3. In-memory state.
        for obs in chunk:
            state.integrate(obs, attribute)
        self._version, self._n_ingested = state_version, n_ingested
        # 4. Invariant maintenance: incremental once the files exist.
        if self._invariants.meta_present:
            self._apply_arrays(touched_old, sources_old, state_version, n_ingested)
        elif state.n >= _INVARIANT_ROWS:
            self._rewrite_arrays(state_version=state_version, n_ingested=n_ingested)

    def _apply_arrays(
        self,
        touched_old: "dict[str, int]",
        sources_old: "dict[str, int]",
        state_version: int,
        n_ingested: int,
    ) -> None:
        state = self._state_obj
        inv = self._invariants
        attribute = self.attribute
        inv.begin_apply()
        c = len(state.counts)
        counts_arr = inv.array("counts", c) if c else None
        values_arr = inv.array("values", c) if c else None
        new_max = self._max_count
        for name, old in touched_old.items():
            new = state.counts[name]
            if new > new_max:
                new_max = new
        freq_arr = inv.array("freq", new_max + 1) if new_max else None
        entity_index = self._entity_index
        for name, old in touched_old.items():
            index = entity_index[name]
            new = state.counts[name]
            counts_arr[index] = new
            if old == 0:
                values_arr[index] = state.values[name][attribute]
            if old:
                freq_arr[old] -= 1
            freq_arr[new] += 1
        ns = len(state.per_source)
        if sources_old:
            sources_arr = inv.array("sources", ns)
            source_index = self._source_index
            for source in sources_old:
                sources_arr[source_index[source]] = state.per_source[source]
        self._max_count = new_max
        inv.commit(
            state_version=state_version,
            n=state.n,
            n_ingested=n_ingested,
            n_entities=c,
            n_sources=ns,
            max_count=new_max,
            entities_bytes=self._entities_bytes,
            sources_bytes=self._sources_bytes,
        )

    # ------------------------------------------------------------------ #
    # Wholesale adoption (from_sample / restore)
    # ------------------------------------------------------------------ #

    def load_state(
        self,
        *,
        counts: "dict[str, int]",
        values: "dict[str, dict[str, float]]",
        per_source: "dict[str, int]",
        frequencies: "dict[int, int]",
        n: int,
        seed_source_sizes: "tuple[int, ...]",
        n_ingested: int,
        state_version: int,
    ) -> None:
        if self._config is None:
            raise StorageError("bind_config must run before load_state")
        if self.n or self._segments.active_rows or self._sealed_entries:
            raise StorageError(
                f"store at {self._layout.directory} already holds state; "
                "seed a fresh directory instead"
            )
        attribute = self._config["attribute"]
        flat_values: dict[str, float] = {}
        for name, vals in values.items():
            if set(vals) != {attribute}:
                raise StorageError(
                    "the disk store persists exactly the session attribute; "
                    f"entity {name!r} carries {sorted(vals)} (use the memory "
                    "store for multi-attribute samples)"
                )
            flat_values[name] = float(vals[attribute])
        entity_names = list(counts)
        source_names = list(per_source)
        seed = {
            "counts": counts,
            "values": flat_values,
            "per_source": per_source,
            "seed_source_sizes": list(seed_source_sizes),
            "n": int(n),
            "n_ingested": int(n_ingested),
        }
        frame = encode_seed_frame(state_version, seed)
        entity_entries = encode_entries(entity_names)
        source_entries = encode_entries(source_names)
        self._entities_log.append(entity_entries)
        self._sources_log.append(source_entries)
        self._entities_log.sync()
        self._sources_log.sync()
        self._segments.append(frame, 0, sync=self.fsync_policy != "never")
        state = IntegrationState()
        state.counts = counts
        state.values = values
        state.per_source = per_source
        state.frequencies = frequencies
        state.n = n
        self._state_obj = state
        self._entity_names = entity_names
        self._source_names = source_names
        self._entity_index = {name: i for i, name in enumerate(entity_names)}
        self._source_index = {name: i for i, name in enumerate(source_names)}
        self._entities_bytes = len(entity_entries)
        self._sources_bytes = len(source_entries)
        self._materialized = True
        self._seed_sizes = tuple(int(s) for s in seed_source_sizes)
        if n >= _INVARIANT_ROWS:
            self._rewrite_arrays(state_version=state_version, n_ingested=n_ingested)
        self._version = int(state_version)
        self._n_ingested = int(n_ingested)
        self._write_manifest()

    # ------------------------------------------------------------------ #
    # Seal (checkpoint) and manifest
    # ------------------------------------------------------------------ #

    def seal(self) -> bool:
        """Checkpoint: seal the active segment and write the manifest.

        Replaces the JSON-snapshot checkpoint: O(active tail) instead of
        O(session) -- sealed segments are never rewritten.  Returns True
        when anything changed on disk.
        """
        if self._segments.active_rows == 0 and not self._manifest_dirty:
            if self._tail_frames:
                self._materialize()  # bring arrays current before claiming clean
                return self.seal()
            return False
        self._materialize()  # applies any recovered tail to the arrays
        self._entities_log.sync()
        self._sources_log.sync()
        self._invariants.sync()
        entry = self._segments.seal(self._next_segment_index())
        if entry is not None:
            self._sealed_entries.append(entry)
        self._write_manifest()
        self._manifest_dirty = False
        return True

    def _next_segment_index(self) -> int:
        highest = 0
        for entry in self._sealed_entries:
            name = entry["segment"]
            try:
                highest = max(highest, int(name[4:-4]))
            except ValueError:
                raise StorageError(f"malformed sealed-segment name {name!r}") from None
        return highest + 1

    def _write_manifest(self) -> None:
        self._layout.write_manifest(
            config=self._config or {},
            seed_source_sizes=list(self._seed_sizes),
            sealed=self._sealed_entries,
            state_version=self._version,
            n=self.n,
            n_ingested=self._n_ingested,
        )

    # ------------------------------------------------------------------ #
    # Streaming reads (progressive replay)
    # ------------------------------------------------------------------ #

    def observation_reader(self):
        """A lazy ``Sequence[Observation]`` over every persisted frame.

        Covers the rows durable at call time; see
        :class:`repro.storage.stream.SegmentObservationReader`.
        """
        from repro.storage.stream import SegmentObservationReader

        return SegmentObservationReader(self)

    def reader_inputs(self):
        """(segment entries, names, attribute) snapshot for a reader."""
        self._decode_names()
        entries: list[tuple[Any, int]] = []
        for entry in self._sealed_entries:
            entries.append(
                (self._layout.directory / entry["segment"], None)
            )
        active = self._segments.active_path
        if active.is_file() and active.stat().st_size:
            entries.append((active, active.stat().st_size))
        return entries, self._entity_names, self._source_names, self.attribute

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def sync(self) -> None:
        self._entities_log.sync()
        self._sources_log.sync()
        self._segments.sync()
        self._invariants.sync()

    def close(self) -> None:
        self._entities_log.close()  # names before the frames that use them
        self._sources_log.close()
        self._segments.close()
        self._invariants.close()

    def release(self) -> None:
        """Close every handle without syncing.

        For a store that was just synced, or one being deleted or
        replaced, whose files it would be wasted work to make durable.
        """
        self._entities_log.release()
        self._sources_log.release()
        self._segments.release()
        self._invariants.release()

    def stats(self) -> "dict[str, Any]":
        return {
            "kind": "disk",
            "materialized": self.materialized,
            "sealed_segments": len(self._sealed_entries),
            "segment_log": self._segments.stats(),
            "invariants": self._invariants.stats(),
        }


def _entries_bytes(names: "list[str]") -> int:
    return sum(4 + len(name.encode("utf-8")) for name in names)


def _max_referenced(state_count: int, frames: "list[Frame]", column: str) -> int:
    referenced = state_count
    for frame in frames:
        array = getattr(frame, column)
        if array.shape[0]:
            referenced = max(referenced, int(array.max()) + 1)
    return referenced


def _file_crc(path) -> int:
    import zlib

    crc = 0
    with open(path, "rb") as handle:
        while True:
            block = handle.read(1 << 20)
            if not block:
                return crc
            crc = zlib.crc32(block, crc)

