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
    segment log (:mod:`repro.storage.segments`); the frame carries the
    entity and source names the chunk introduces, which take the next
    first-seen indices.  An ingest writes nothing else.  A seal -- each
    checkpoint, and an ingest that finds ``SEAL_ROWS`` rows in the
    active segment -- also writes the aggregate state and its names as
    one checkpoint file (:mod:`repro.storage.checkpoint`) that the new
    manifest names.  Attach is O(1) -- read the manifest, scan the
    active segment -- and the dict materialization the estimators need
    (read the checkpoint, fold the frames past it) is deferred until the
    first read, so a process restart reaches readiness in milliseconds
    regardless of session size.

Crash consistency (the order of operations per ingest chunk):

1. the frame, names included, is appended whole or not at all -- **this
   is the durability point**; ``storage.after_frame`` fires here, and
   an append that raises truncates its frame away;
2. the chunk's names join the store's name tables, and the chunk is
   folded into the in-memory state.

A SIGKILL before (1) completes loses the unacknowledged chunk only;
after it, attach finds the frame in the log.  A seal fsyncs and renames
the active segment, writes and fsyncs the checkpoint, and only then
replaces the manifest, so a checkpoint never describes a version the
durable log lacks.  A crash anywhere in between leaves the previous
manifest, and attach folds the orphaned segment and ``active.seg`` onto
its checkpoint; a checkpoint that is missing, fails its size or CRC, or
is named at another version than the manifest's is ignored, and the
whole log is folded from empty instead.  Nothing acknowledged is ever
lost: the segment log is the session's only write-ahead copy.
"""

from __future__ import annotations

import math
import os
import threading
import zlib
from collections import Counter
from typing import Any

import numpy as np

from repro.data.progressive import IntegrationState
from repro.data.records import Observation
from repro.storage.checkpoint import read_checkpoint, write_checkpoint
from repro.storage.layout import (
    StorageError,
    StoreLayout,
    make_directories,
)
from repro.storage.segments import (
    FRAME_SEED,
    Frame,
    SegmentLog,
    encode_frame,
    encode_seed_frame,
    frame_observation,
    read_frames,
)

__all__ = ["MemoryStore", "DiskStore", "SEAL_ROWS"]

#: Config keys a store persists for O(1) re-attach.
_CONFIG_KEYS = ("attribute", "table_name", "estimator", "count_method")

#: An ingest that finds this many rows in the active segment seals it
#: first, so a restart folds at most this many rows (plus the last
#: chunk) onto the checkpoint.
SEAL_ROWS = 65_536


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
    """Per-session disk store: segment log + seal-time checkpoint.

    Mutations are not thread-safe by themselves: they are serialized by
    the caller (the serving layer's per-session writer lock).  The lazy
    materialization a first read triggers is guarded here, because
    concurrent readers (or a reader racing a replica push) can trigger
    it together.
    """

    kind = "disk"

    def __init__(
        self,
        directory: "str | os.PathLike[str]",
        *,
        fsync: str = "batch",
    ) -> None:
        self._layout = StoreLayout(directory)
        make_directories(self._layout.directory, sync=fsync != "never")
        self._segments = SegmentLog(self._layout.directory, fsync=fsync)

        self._config: "dict[str, Any] | None" = None
        self._seed_sizes: "tuple[int, ...]" = ()
        self._sealed_entries: "list[dict[str, Any]]" = []
        # The manifest's checkpoint entry while it is trusted.  A seal is
        # due (_manifest_dirty) when the manifest lags the directory: an
        # adopted orphan segment, a seal that failed partway, or a log
        # without a trusted checkpoint.
        self._checkpoint: "dict[str, Any] | None" = None
        self._manifest_dirty = False

        # Materialized lazily (the O(c) part restart must not pay), under
        # one double-checked lock; ``_materialized`` is published last, so
        # a reader that sees it True sees the name tables and folded tail.
        # The name tables map name -> first-seen index; they only grow.
        self._lazy_lock = threading.RLock()
        self._materialized = False
        self._state_obj: "IntegrationState | None" = None
        self._entity_index: "dict[str, int]" = {}
        self._source_index: "dict[str, int]" = {}

        # The frames past the checkpoint, folded at materialization, and
        # the counters attach reports before that.
        self._tail_frames: "list[Frame]" = []
        self._n = 0
        self._c = 0
        self._n_sources = 0
        self._version = 0
        self._n_ingested = 0

        self._attach()

    # ------------------------------------------------------------------ #
    # Attach: O(1) + small-tail scan
    # ------------------------------------------------------------------ #

    def _attach(self) -> None:
        manifest = self._layout.read_manifest()
        covered = 0
        if manifest is not None:
            self._config = dict(manifest["config"])
            self._seed_sizes = tuple(int(s) for s in manifest["seed_source_sizes"])
            self._sealed_entries = [dict(e) for e in manifest["sealed"]]
            checkpoint = manifest["checkpoint"]
            # Trusted only at exactly the manifest's version: it then
            # covers every segment the manifest lists.
            if (
                checkpoint is not None
                and checkpoint["state_version"] == manifest["state_version"]
            ):
                self._checkpoint = dict(checkpoint)
                covered = len(self._sealed_entries)
                self._version = int(manifest["state_version"])
                self._n = int(manifest["n"])
                self._n_ingested = int(manifest["n_ingested"])
                self._c = int(checkpoint["entities"])
                self._n_sources = int(checkpoint["sources"])
        self._adopt_orphans()
        for entry in self._sealed_entries:
            segment_path = self._layout.directory / entry["segment"]
            if not segment_path.is_file():
                raise StorageError(
                    f"manifest lists segment {entry['segment']} but the file "
                    f"is missing from {self._layout.directory}"
                )
        self._tail_frames = self._log_frames(self._sealed_entries[covered:])
        if self._tail_frames and self._checkpoint is None:
            if self._config is None:
                raise StorageError(
                    f"directory {self._layout.directory} holds segment data "
                    "but no manifest -- an interrupted store transfer or "
                    "external damage; remove the directory and re-transfer"
                )
            self._manifest_dirty = True  # the next seal writes a checkpoint
        self._count(self._tail_frames)

    def _adopt_orphans(self) -> None:
        """List the sealed segments the manifest lacks.

        A seal that failed after its rename (a crash, or an error in the
        ``storage.after_seal`` window) leaves one behind.
        """
        listed = {entry["segment"] for entry in self._sealed_entries}
        for path in self._segments.sealed_segments():
            if path.name in listed:
                continue
            frames = read_frames(path, sealed=True)
            raw = path.read_bytes()
            self._sealed_entries.append(
                {
                    "segment": path.name,
                    "frames": len(frames),
                    "rows": sum(f.n_rows for f in frames),
                    "bytes": len(raw),
                    "crc": zlib.crc32(raw),
                }
            )
            self._manifest_dirty = True
        self._sealed_entries.sort(key=lambda entry: entry["segment"])

    def _log_frames(self, sealed: "list[dict[str, Any]]") -> "list[Frame]":
        """The frames of the ``sealed`` segment entries, then of ``active.seg``."""
        frames: list[Frame] = []
        for entry in sealed:
            frames.extend(
                read_frames(self._layout.directory / entry["segment"], sealed=True)
            )
        frames.extend(self._segments.recover_active())
        return frames

    def _count(self, frames: "list[Frame]") -> None:
        """Advance the attach-time counters over ``frames`` (no state is built)."""
        for frame in frames:
            if frame.kind == FRAME_SEED:
                seed = frame.seed
                self._seed_sizes = tuple(int(s) for s in seed["seed_source_sizes"])
                self._n = int(seed["n"])
                self._n_ingested = int(seed["n_ingested"])
                self._c = len(seed["counts"])
                self._n_sources = len(seed["per_source"])
            else:
                self._n += frame.n_rows
                self._n_ingested += frame.n_rows
                self._c += len(frame.new_entities)
                self._n_sources += len(frame.new_sources)
            self._version = max(self._version, frame.state_version)

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
    # Materialization (lazy O(c + tail); the attach fast path skips it)
    # ------------------------------------------------------------------ #

    @property
    def state(self) -> IntegrationState:
        if not self._materialized:
            self._materialize()
        return self._state_obj

    def _materialize(self) -> None:
        if self._materialized:
            return
        with self._lazy_lock:
            if not self._materialized:
                self._materialize_locked()
                self._materialized = True

    def _materialize_locked(self) -> None:
        frames, self._tail_frames = self._tail_frames, []
        state = None
        if self._checkpoint is not None:
            state = read_checkpoint(
                self._layout.checkpoint_path, self._checkpoint, self.attribute
            )
            if state is None:
                # The file fails its size or CRC: the log is authoritative.
                self._checkpoint = None
                self._manifest_dirty = True
                frames = self._log_frames(self._sealed_entries)
        if state is None:
            state = IntegrationState()
        self._fold(state, frames)

    def _fold(self, state: IntegrationState, frames: "list[Frame]") -> None:
        """Put ``frames`` onto ``state`` in log order: the one replay routine.

        The state's names (a checkpoint's, or none) come first, then
        each frame's; frame indices resolve through these local lists,
        and the store then serves ``state`` and their name tables.
        """
        attribute = self.attribute
        entity_names = list(state.counts)
        source_names = list(state.per_source)
        for frame in frames:
            if frame.kind == FRAME_SEED:
                _adopt_seed(state, frame.seed, attribute)
                entity_names = list(state.counts)
                source_names = list(state.per_source)
                continue
            entity_names.extend(frame.new_entities)
            source_names.extend(frame.new_sources)
            if frame.n_rows and (
                int(frame.entity_idx.max()) >= len(entity_names)
                or int(frame.source_idx.max()) >= len(source_names)
            ):
                raise StorageError(
                    "a durable frame references a name no earlier frame "
                    "introduced; frames are appended whole, so this is "
                    "external damage"
                )
            for row in range(frame.n_rows):
                state.integrate(
                    frame_observation(
                        frame, row, entity_names, source_names, attribute
                    ),
                    attribute,
                )
        self._state_obj = state
        self._entity_index = {name: i for i, name in enumerate(entity_names)}
        self._source_index = {name: i for i, name in enumerate(source_names)}

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
        # Sealing before anything of this chunk is written keeps a seal
        # failure a refusal of the chunk, not a logged chunk left unacked.
        if self._segments.active_rows >= SEAL_ROWS:
            self.seal()
        self._materialize()
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
        # Encoding refuses a frame its reader would drop as a corrupt
        # tail, and the append writes all of the frame or none of it: a
        # refused chunk leaves no row and no name behind.
        frame = encode_frame(
            state_version, e_idx, s_idx, vals, seqs, flags,
            new_entities=new_entities, new_sources=new_sources,
        )
        self._segments.append(frame, count)
        entity_index.update(new_entities)
        source_index.update(new_sources)
        state = self._state_obj
        for obs in chunk:
            state.integrate(obs, attribute)
        self._version, self._n_ingested = state_version, n_ingested

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
        if self.n or self._segments.active_frames or self._sealed_entries:
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
        seed = {
            "counts": counts,
            "values": flat_values,
            "per_source": per_source,
            "seed_source_sizes": list(seed_source_sizes),
            "n": int(n),
            "n_ingested": int(n_ingested),
        }
        frame = encode_seed_frame(state_version, seed)
        self._segments.append(frame, 0, sync=True)
        state = IntegrationState()
        _adopt_seed(state, seed, attribute)
        self._fold(state, [])  # names the seeded state
        self._materialized = True
        self._seed_sizes = tuple(int(s) for s in seed_source_sizes)
        self._version = int(state_version)
        self._n_ingested = int(n_ingested)
        self._write_manifest()

    # ------------------------------------------------------------------ #
    # Seal (checkpoint) and manifest
    # ------------------------------------------------------------------ #

    def seal(self) -> bool:
        """Checkpoint: seal the active segment, write the checkpoint, then the manifest.

        O(active tail + c): sealed segments are never rewritten, and the
        checkpoint holds one row per entity and source.  Returns True
        when anything changed on disk.
        """
        if not self._segments.active_frames and not self._manifest_dirty:
            return False
        self._materialize()
        self._manifest_dirty = True  # until this seal writes the manifest
        self._adopt_orphans()  # so no segment index is used twice
        entry = self._segments.seal(self._next_segment_index())
        if entry is not None:
            self._sealed_entries.append(entry)
        checkpoint = write_checkpoint(
            self._layout.checkpoint_path, self._state_obj, self.attribute
        )
        self._checkpoint = {**checkpoint, "state_version": self._version}
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
            checkpoint=self._checkpoint,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def sync(self) -> None:
        self._segments.sync()

    def close(self) -> None:
        self._segments.close()

    def release(self) -> None:
        """Close every handle without syncing.

        For a store that was just synced, or one being deleted or
        replaced, whose files it would be wasted work to make durable.
        """
        self._segments.release()

    def stats(self) -> "dict[str, Any]":
        return {
            "kind": "disk",
            "materialized": self.materialized,
            "sealed_segments": len(self._sealed_entries),
            "segment_log": self._segments.stats(),
            "checkpoint": self._checkpoint,
        }


def _adopt_seed(
    state: IntegrationState, seed: "dict[str, Any]", attribute: str
) -> None:
    """Replace ``state`` by the aggregate baseline of a seed frame."""
    state.counts = {name: int(count) for name, count in seed["counts"].items()}
    state.values = {
        name: {attribute: float(value)} for name, value in seed["values"].items()
    }
    state.per_source = {
        source: int(size) for source, size in seed["per_source"].items()
    }
    state.frequencies = dict(Counter(state.counts.values()))
    state.n = int(seed["n"])
