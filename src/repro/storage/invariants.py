"""Memory-mapped persistent invariants of a disk-backed session.

The aggregate state an estimate needs -- per-entity counts and fused
values, per-source contribution sizes, the frequency histogram ``{j:
f_j}`` -- is kept in fixed-width little-endian arrays backed by plain
files and updated **incrementally on every ingest** (numpy fancy
indexing over the chunk's touched indices).  Restart therefore attaches
the files in O(1) and replays only the segment-log tail beyond the
recorded ``state_version``, instead of replaying the whole log.  The
files appear with the first meta write: a store below
``repro.storage.store._INVARIANT_ROWS`` logged rows keeps none.

Files (in the store directory):

``meta.bin``
    One small fixed struct, CRC-protected, rewritten in place with a
    single ``pwrite``: state_version / n / n_ingested / entity+source
    cardinalities / max tracked frequency / clean byte offsets of the
    name logs, plus an ``applying`` flag.
``counts.u64`` / ``values.f64``
    Per-entity observation count and first-seen fused value, indexed by
    the entity's first-seen index (the name-log order).
``sources.u64``
    Per-source contribution size, indexed by first-seen source index.
``freq.u64``
    The frequency histogram: ``freq[j]`` = number of entities observed
    exactly ``j`` times (index 0 unused).

Consistency protocol: the ``applying`` flag is raised (one pwrite)
*before* the arrays absorb a chunk and cleared by the meta rewrite that
commits the new counters.  A SIGKILL between the two leaves the flag
raised, which tells attach the arrays are mid-update and must be
rebuilt from the segment log -- the authoritative copy -- rather than
trusted.  Array growth doubles file sizes via ``truncate`` + remap, so
appends stay amortized O(1).

SIGKILL safety needs no fsync (the page cache survives process death);
the ``always`` policy additionally ``msync``/``fsync``s for power-loss
durability, mirroring the segment log's fsync policy.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["InvariantStore", "META_FIELDS"]

_MAGIC = b"RPROINV1"
_LAYOUT_VERSION = 1

#: Meta counter fields, in struct order.
META_FIELDS = (
    "state_version",
    "n",
    "n_ingested",
    "n_entities",
    "n_sources",
    "max_count",
    "entities_bytes",
    "sources_bytes",
)

_META = struct.Struct("<8sII8QI")  # magic, layout, flags, 8 counters, crc

_FLAG_APPLYING = 1

_ARRAY_FILES = {
    "counts": ("counts.u64", np.dtype("<u8")),
    "values": ("values.f64", np.dtype("<f8")),
    "sources": ("sources.u64", np.dtype("<u8")),
    "freq": ("freq.u64", np.dtype("<u8")),
}

_MIN_CAPACITY = 1024


class InvariantStore:
    """The mmapped invariant arrays plus their meta header."""

    def __init__(self, directory: "str | os.PathLike[str]") -> None:
        self.directory = Path(directory)
        # The files appear with the first meta write.
        try:
            self._meta_fd = os.open(self.directory / "meta.bin", os.O_RDWR)
        except FileNotFoundError:
            self._meta_fd = -1
        self._arrays: dict[str, np.memmap] = {}
        self.meta: dict[str, int] = {field: 0 for field in META_FIELDS}
        self._flags = 0
        self.meta_present = False
        self.meta_valid = False
        self._read_meta()

    # ------------------------------------------------------------------ #
    # Meta header
    # ------------------------------------------------------------------ #

    def _read_meta(self) -> None:
        if self._meta_fd < 0:
            return  # no invariant files yet
        raw = os.pread(self._meta_fd, _META.size, 0)
        if not raw:
            return  # fresh store
        self.meta_present = True
        if len(raw) != _META.size:
            return  # torn header: invalid, caller rebuilds
        fields = _META.unpack(raw)
        magic, layout, flags = fields[0], fields[1], fields[2]
        counters, crc = fields[3:-1], fields[-1]
        if magic != _MAGIC or layout != _LAYOUT_VERSION:
            return
        if zlib.crc32(raw[: _META.size - 4]) != crc:
            return
        self._flags = flags
        self.meta = dict(zip(META_FIELDS, (int(value) for value in counters)))
        self.meta_valid = True

    def _write_meta(self) -> None:
        head = struct.pack(
            "<8sII8Q",
            _MAGIC,
            _LAYOUT_VERSION,
            self._flags,
            *(int(self.meta[field]) for field in META_FIELDS),
        )
        raw = head + struct.pack("<I", zlib.crc32(head))
        if self._meta_fd < 0:
            self._meta_fd = os.open(
                self.directory / "meta.bin", os.O_RDWR | os.O_CREAT, 0o644
            )
        os.pwrite(self._meta_fd, raw, 0)
        self.meta_present = True
        self.meta_valid = True

    @property
    def applying(self) -> bool:
        """True when a crash interrupted an array update (arrays suspect)."""
        return bool(self._flags & _FLAG_APPLYING)

    def begin_apply(self) -> None:
        """Raise the applying flag durably-in-page-cache before array writes."""
        self._flags |= _FLAG_APPLYING
        self._write_meta()

    def commit(self, **updates: int) -> None:
        """Clear the applying flag and commit new counter values."""
        for field, value in updates.items():
            if field not in self.meta:
                raise KeyError(field)
            self.meta[field] = int(value)
        self._flags &= ~_FLAG_APPLYING
        self._write_meta()

    # ------------------------------------------------------------------ #
    # Arrays
    # ------------------------------------------------------------------ #

    def array(self, name: str, length: int) -> np.memmap:
        """The array mmap, grown (file truncate + remap) to hold ``length``.

        Only this object grows the array files or drops them
        (:meth:`reset`), so a live mapping that already holds ``length``
        is current: the per-ack path costs no ``stat``.
        """
        current = self._arrays.get(name)
        if current is not None and len(current) >= length:
            return current
        filename, dtype = _ARRAY_FILES[name]
        path = self.directory / filename
        if current is not None:
            capacity = len(current)
        else:
            try:
                capacity = path.stat().st_size // dtype.itemsize
            except FileNotFoundError:
                capacity = 0
        if capacity < length:
            new_capacity = max(_MIN_CAPACITY, capacity or _MIN_CAPACITY)
            while new_capacity < length:
                new_capacity *= 2
            if current is not None:
                current.flush()
                self._arrays.pop(name, None)
            with open(path, "ab"):
                pass  # ensure it exists before truncate
            os.truncate(path, new_capacity * dtype.itemsize)
            capacity = new_capacity
        mapped = np.memmap(path, dtype=dtype, mode="r+", shape=(capacity,))
        self._arrays[name] = mapped
        return mapped

    def reset(self) -> None:
        """Drop every array file and zero the meta (full-rebuild entry)."""
        for name in list(self._arrays):
            self._arrays.pop(name)
        for filename, _ in _ARRAY_FILES.values():
            try:
                os.unlink(self.directory / filename)
            except FileNotFoundError:
                pass
        self.meta = {field: 0 for field in META_FIELDS}
        self._flags = 0
        self._write_meta()

    def sync(self) -> None:
        """msync the arrays and fsync the meta (power-loss durability)."""
        for mapped in self._arrays.values():
            mapped.flush()
        if self._meta_fd >= 0:
            os.fsync(self._meta_fd)

    def close(self) -> None:
        for mapped in self._arrays.values():
            mapped.flush()
        self.release()

    def release(self) -> None:
        """Unmap the arrays and close the meta without syncing either."""
        self._arrays.clear()
        if self._meta_fd >= 0:
            os.close(self._meta_fd)
            self._meta_fd = -1

    def stats(self) -> "dict[str, Any]":
        sizes = {}
        for name, (filename, _) in _ARRAY_FILES.items():
            try:
                sizes[name] = (self.directory / filename).stat().st_size
            except FileNotFoundError:
                sizes[name] = 0
        return {"meta": dict(self.meta), "array_bytes": sizes}
