"""Append-only name dictionaries: index <-> string for entities/sources.

Segment frames store entities and sources as fixed-width ``u32`` indices
(:mod:`repro.storage.segments`); this module persists the index order.
Each file is a sequence of length-prefixed UTF-8 entries::

    +------------------------+----------------+
    | length: u32 big-endian | UTF-8 bytes    |
    +------------------------+----------------+

Entry ``i`` is the name of index ``i`` -- which, by construction, is
*first-seen order*: the disk store assigns indices in the order entities
and sources first appear, exactly the dict order the in-memory
:class:`~repro.data.progressive.IntegrationState` maintains.  That is
what makes materializing dicts from the arrays byte-identical to the
in-memory store.

Names referencing a frame are flushed *before* the frame (write-ahead
within the store), and fsynced before any fsync of the frame, so every
index a durable frame mentions resolves.  A crash can leave the
opposite: a durable name whose frame never made it.  Attach heals that
by truncating the file back to the entries the recovered state actually
references.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

from repro.storage.layout import fsync_directory
from repro.utils.exceptions import ReproError, ValidationError

__all__ = ["NameCorruptionError", "NameLog", "encode_entries"]

_LEN = struct.Struct(">I")

#: A single name longer than this is a corrupt length prefix to the
#: reader, so :func:`encode_entries` refuses to write one.
_MAX_NAME_BYTES = 1024 * 1024


class NameCorruptionError(ReproError):
    """A name-log entry failed its framing check mid-file."""


def encode_entries(names: "list[str]") -> bytes:
    """Entries for :meth:`NameLog.append`, refusing any name the reader would drop."""
    chunks: list[bytes] = []
    for name in names:
        raw = name.encode("utf-8")
        if len(raw) > _MAX_NAME_BYTES:
            raise ValidationError(
                f"name of {len(raw)} bytes exceeds the {_MAX_NAME_BYTES}-byte "
                "bound of a name-log entry"
            )
        chunks.append(_LEN.pack(len(raw)))
        chunks.append(raw)
    return b"".join(chunks)


class NameLog:
    """One append-only length-prefixed string file."""

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self.path = Path(path)
        self._file = None
        self._unsynced = False
        # True from creating the file until the directory entry is fsynced.
        self._new_entry = False

    def _handle(self):
        if self._file is None:
            self._new_entry = not self.path.exists()
            self._file = open(self.path, "ab")
        return self._file

    def append(self, entries: bytes) -> None:
        """Append :func:`encode_entries` output (flushed to the OS, not fsynced)."""
        if not entries:
            return
        handle = self._handle()
        handle.write(entries)
        handle.flush()
        self._unsynced = True

    def sync(self) -> None:
        """fsync pending appends, and the directory entry of a new file."""
        if self._file is not None and self._unsynced:
            self._file.flush()
            os.fsync(self._file.fileno())
            if self._new_entry:
                fsync_directory(self.path.parent)
                self._new_entry = False
            self._unsynced = False

    def read_all(self) -> "tuple[list[str], int]":
        """Decode every clean entry; returns (names, clean_offset).

        Trailing bytes that do not parse as a complete entry are a torn
        tail (crash mid-append) -- the caller decides whether to
        truncate (writer mode) or ignore them (read-only attach).
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return [], 0
        names: list[str] = []
        offset = 0
        total = len(raw)
        while offset + _LEN.size <= total:
            (length,) = _LEN.unpack_from(raw, offset)
            if length > _MAX_NAME_BYTES:
                break  # corrupt length prefix: treat as tail
            start = offset + _LEN.size
            end = start + length
            if end > total:
                break  # torn entry
            try:
                names.append(raw[start:end].decode("utf-8"))
            except UnicodeDecodeError:
                break
            offset = end
        return names, offset

    def truncate_to_entries(self, names: "list[str]", keep: int) -> None:
        """Truncate the file to its first ``keep`` entries.

        ``names`` must be the full decode from :meth:`read_all`; the
        byte offset is recomputed from the kept prefix.  Used by attach
        to drop names whose referencing frame never became durable.
        """
        self.release()
        offset = sum(_LEN.size + len(name.encode("utf-8")) for name in names[:keep])
        with open(self.path, "r+b") as handle:
            handle.truncate(offset)
            os.fsync(handle.fileno())

    def close(self) -> None:
        self.sync()
        self.release()

    def release(self) -> None:
        """Close the handle without syncing it."""
        if self._file is not None:
            self._file.close()
            self._file = None
