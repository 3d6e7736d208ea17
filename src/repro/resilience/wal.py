"""The write-ahead log: length-prefixed, CRC32-framed, append-only records.

Framing of one record::

    +------------+------------+---------------------+
    | length: u32 big-endian  |  payload bytes      |
    | crc32:  u32 big-endian  |  (compact JSON)     |
    +------------+------------+---------------------+

The 8-byte header carries the payload length and the CRC32 of the
payload, so recovery can distinguish the three ways a crash can leave
the file tail:

* **clean** -- the last record parses and its CRC matches;
* **torn** -- the file ends inside a header or payload (the process was
  killed mid-``write``, or the filesystem persisted a partial block);
* **corrupt** -- the length parses but the CRC does not match (a torn
  payload whose length bytes survived).

In the torn/corrupt cases :func:`WriteAheadLog.recover` truncates the
file back to the last clean record boundary and replay proceeds with
every fully-written record -- the crash loses at most the one append
that never returned to its caller, never anything acknowledged.

Durability policy (``fsync``):

``"always"``
    ``fsync`` after every append.  Survives power loss; slowest.
``"batch"`` (default)
    ``fsync`` every ``batch_every`` appends and on checkpoint/close.
    Survives process death (SIGKILL, OOM) always -- the buffer is
    flushed to the OS on every append -- and bounds the power-loss
    exposure window to ``batch_every`` records.
``"never"``
    Flush to the OS per append, never ``fsync``.  Still fully crash-safe
    against process death (the paging cache belongs to the kernel, not
    the process); fastest.

The distinction matters because "kill -9 safe" only needs the bytes out
of *user space*; ``fsync`` buys the stronger power-loss guarantee.  See
DESIGN.md "Failure model and recovery" for the trade-off table.
"""

from __future__ import annotations

import io
import json
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Any

from repro.resilience.faults import fault_point
from repro.utils.exceptions import ReproError, ValidationError

__all__ = [
    "FSYNC_POLICIES",
    "DEFAULT_BATCH_EVERY",
    "WalCorruptionError",
    "WriteAheadLog",
    "fsync_directory",
    "make_directories",
    "read_records",
]

#: Accepted values of the fsync policy.
FSYNC_POLICIES = ("always", "batch", "never")

#: Appends between fsyncs under the "batch" policy.
DEFAULT_BATCH_EVERY = 32

_HEADER = struct.Struct(">II")  # (payload length, payload crc32)

#: Refuse to parse absurd lengths: a corrupt header must not make the
#: reader allocate gigabytes.  The writer refuses records beyond the same
#: bound, so recovery never mistakes an acknowledged record for a tail.
_MAX_RECORD_BYTES = 64 * 1024 * 1024


class WalCorruptionError(ReproError):
    """A WAL record failed its CRC or framing check (not a torn tail)."""


def fsync_directory(path: "str | os.PathLike[str]") -> None:
    """fsync a directory, making the entries created or renamed in it durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def make_directories(path: "str | os.PathLike[str]", *, sync: bool) -> None:
    """``mkdir -p path``; with ``sync``, fsync the parent of each directory made.

    A new directory, like a new file, survives a power loss only once
    the directory holding its entry is fsynced.
    """
    path = Path(path)
    if path.is_dir():
        return
    make_directories(path.parent, sync=sync)
    try:
        path.mkdir()
    except FileExistsError:
        return  # a concurrent creator made it, and syncs its parent
    if sync:
        fsync_directory(path.parent)


def _encode(record: "dict[str, Any]") -> bytes:
    payload = json.dumps(
        record, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    if len(payload) > _MAX_RECORD_BYTES:
        raise ValidationError(
            f"journal record of {len(payload)} bytes exceeds the "
            f"{_MAX_RECORD_BYTES}-byte record bound"
        )
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan_records(raw: bytes) -> "tuple[list[dict[str, Any]], int]":
    """Parse framed records from ``raw``; returns (records, clean_offset).

    ``clean_offset`` is the byte offset just past the last record that
    parsed *and* passed its CRC -- everything beyond it is a torn or
    corrupt tail that recovery should truncate.
    """
    records: list[dict[str, Any]] = []
    offset = 0
    total = len(raw)
    while offset + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(raw, offset)
        if length > _MAX_RECORD_BYTES:
            break  # corrupt header: treat as tail
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            break  # torn payload
        payload = raw[start:end]
        if zlib.crc32(payload) != crc:
            break  # corrupt payload
        try:
            records.append(json.loads(payload.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break  # CRC collision on garbage; vanishingly unlikely
        offset = end
    return records, offset


def read_records(path: "str | os.PathLike[str]") -> "list[dict[str, Any]]":
    """All clean records of the log at ``path`` (missing file = no records)."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return []
    return scan_records(raw)[0]


class WriteAheadLog:
    """One append-only journal file with configurable fsync policy.

    Not thread-safe by itself: callers serialize appends (the serving
    layer appends under the session's exclusive write lock, which is the
    ordering the log records must reflect anyway).  A thin internal lock
    still guards the file handle so a concurrent ``stats`` never reads
    half-updated counters.
    """

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        *,
        fsync: str = "batch",
        batch_every: int = DEFAULT_BATCH_EVERY,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValidationError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{', '.join(FSYNC_POLICIES)}"
            )
        if batch_every < 1:
            raise ValidationError(f"batch_every must be >= 1, got {batch_every}")
        self.path = Path(path)
        self.fsync_policy = fsync
        self.batch_every = int(batch_every)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file: "io.BufferedWriter | None" = None
        self._lock = threading.Lock()
        self._appends = 0
        self._syncs = 0
        self._unsynced = 0

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    def _handle(self) -> "io.BufferedWriter":
        if self._file is None:
            self._file = open(self.path, "ab")
        return self._file

    def append(self, record: "dict[str, Any]", *, sync: "bool | None" = None) -> int:
        """Append one record; returns the file offset *after* the record.

        The frame is flushed to the OS unconditionally (that is what
        makes a SIGKILL after ``append`` returns lose nothing), then
        fsynced according to the policy.  ``sync=True`` forces an fsync
        regardless of policy (used for rare, must-be-durable records
        like session creation).
        """
        frame = _encode(record)
        with self._lock:
            handle = self._handle()
            handle.write(frame)
            handle.flush()
            self._appends += 1
            self._unsynced += 1
            fault_point("wal.after_append")
            if sync is None:
                sync = self.fsync_policy == "always" or (
                    self.fsync_policy == "batch"
                    and self._unsynced >= self.batch_every
                )
            if sync and self.fsync_policy != "never":
                self._fsync_locked(handle)
            return handle.tell()

    def _fsync_locked(self, handle: "io.BufferedWriter") -> None:
        fault_point("wal.before_fsync")
        os.fsync(handle.fileno())
        self._syncs += 1
        self._unsynced = 0

    def sync(self) -> None:
        """Flush and fsync whatever has been appended so far."""
        with self._lock:
            if self._file is not None and self.fsync_policy != "never":
                self._file.flush()
                self._fsync_locked(self._file)

    def tell(self) -> int:
        """Current end-of-log offset (0 for a not-yet-written log)."""
        with self._lock:
            if self._file is not None:
                return self._file.tell()
            try:
                return self.path.stat().st_size
            except FileNotFoundError:
                return 0

    # ------------------------------------------------------------------ #
    # Recovery and checkpointing
    # ------------------------------------------------------------------ #

    def recover(self) -> "list[dict[str, Any]]":
        """Read every clean record, truncating any torn/corrupt tail.

        Must be called before :meth:`append` on a log that may have been
        written by a crashed process; appending after a torn tail would
        otherwise bury the corruption mid-file where CRC recovery can no
        longer skip it.
        """
        with self._lock:
            self._close_locked()
            try:
                raw = self.path.read_bytes()
            except FileNotFoundError:
                return []
            records, clean_offset = scan_records(raw)
            if clean_offset < len(raw):
                with open(self.path, "r+b") as handle:
                    handle.truncate(clean_offset)
                    os.fsync(handle.fileno())
            return records

    def rewrite(self, records: "list[dict[str, Any]]") -> None:
        """Atomically replace the log's contents with ``records``.

        Used by checkpointing: after a snapshot is durably on disk, the
        log is rewritten to only the records the snapshot does not cover
        (usually none).  Write-to-scratch + ``os.replace`` means a crash
        mid-rewrite leaves the previous log intact; the directory fsync
        after the rename makes the new log the durable one.
        """
        frames = b"".join(_encode(record) for record in records)
        scratch = self.path.with_suffix(self.path.suffix + ".tmp")
        with self._lock:
            self._close_locked()
            with open(scratch, "wb") as handle:
                handle.write(frames)
                handle.flush()
                if self.fsync_policy != "never":
                    os.fsync(handle.fileno())
            os.replace(scratch, self.path)
            if self.fsync_policy != "never":
                fsync_directory(self.path.parent)
            self._unsynced = 0

    def close(self) -> None:
        """Flush, fsync (unless policy is "never") and close the handle."""
        with self._lock:
            if self._file is not None and self.fsync_policy != "never":
                self._file.flush()
                os.fsync(self._file.fileno())
            self._close_locked()

    def _close_locked(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def stats(self) -> "dict[str, Any]":
        """Counters for ``/stats``: appends, fsyncs, bytes on disk."""
        with self._lock:
            if self._file is not None:
                size = self._file.tell()
            else:
                try:
                    size = self.path.stat().st_size
                except FileNotFoundError:
                    size = 0
            return {
                "appends": self._appends,
                "syncs": self._syncs,
                "unsynced": self._unsynced,
                "bytes": size,
                "fsync_policy": self.fsync_policy,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WriteAheadLog({str(self.path)!r}, fsync={self.fsync_policy!r})"
