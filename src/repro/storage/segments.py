"""The append-only columnar segment log: CRC-framed observation chunks.

One ingest chunk becomes one *frame* in the active segment file.  An
8-byte big-endian ``(length, crc32)`` header sits in front of every
payload, so recovery can truncate a torn or corrupt tail back to the
last clean frame boundary; the payload is columnar binary::

    +--------------------------+------------------------------------+
    | length: u32 big-endian   |  kind:          u8                 |
    | crc32:  u32 big-endian   |  state_version: u64 big-endian     |
    +--------------------------+  n_rows:        u32 big-endian     |
                               |  new entities:  name block         |
                               |  new sources:   name block         |
                               |  entity_idx:    u32[n] little      |
                               |  source_idx:    u32[n] little      |
                               |  value:         f64[n] little      |
                               |  sequence:      i64[n] little      |
                               |  flags:         u8 [n] (bit0:      |
                               |    observation carried the         |
                               |    session attribute)              |
                               +------------------------------------+

A *name block* (:func:`encode_names`, which the checkpoint uses too) is
a little-endian ``u32`` count, that many ``u32`` byte lengths, then the
UTF-8 names back to back.  A frame's blocks hold the entity and source
names its chunk introduces, in first-seen order; they take the next
indices, so entity ``i`` of a session is the ``i``-th name its log (or
its checkpoint and the frames past it) introduces, and a frame is a
complete delta on its own.

``kind`` 0 is an observation chunk; ``kind`` 1 is a *seed* frame whose
payload after the fixed header is compact JSON (an aggregate baseline
adopted via ``from_sample``/``restore``, which has no per-observation
stream to log); its dicts carry the names in first-seen order.

Durability: :meth:`SegmentLog.append` writes a frame whole or not at
all, unbuffered, and the active segment follows the ``always`` /
``batch`` / ``never`` fsync policy (``--wal-fsync``); the first fsync
of a newly created ``active.seg`` also fsyncs the directory, so the
file survives with its contents.  Sealing (checkpoint) fsyncs the
active file, renames it to ``seg-<index>.seg`` (immutable from then
on), fsyncs the directory, and hands the sealed entry to the manifest.
The ``storage.before_seal`` / ``storage.after_seal`` fault points
bracket the rename; ``storage.after_frame`` fires after a frame is
written but before it is fsynced or the store absorbs it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.data.records import Observation
from repro.resilience.faults import fault_point
from repro.storage.layout import FSYNC_POLICIES, fsync_directory
from repro.utils.exceptions import ReproError, ValidationError

__all__ = [
    "BATCH_EVERY",
    "FRAME_OBSERVATIONS",
    "FRAME_SEED",
    "Frame",
    "SegmentCorruptionError",
    "SegmentLog",
    "decode_names",
    "encode_frame",
    "encode_names",
    "encode_seed_frame",
    "frame_observation",
    "scan_frames",
    "read_frames",
    "segment_name",
]

_HEADER = struct.Struct(">II")  # (payload length, payload crc32)
_FRAME_META = struct.Struct(">BQI")  # (kind, state_version, n_rows)

#: Appends between fsyncs under the "batch" policy.
BATCH_EVERY = 32

#: Frame kinds.
FRAME_OBSERVATIONS = 0
FRAME_SEED = 1

#: Refuse to parse absurd lengths (a corrupt header must not allocate
#: gigabytes).  Frames are one ingest chunk; 256 MiB is far beyond any
#: real chunk while still bounding the damage of a garbage header.  The
#: encoders refuse larger frames, so no acknowledged frame reads as a tail.
_MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Fixed-width little-endian column dtypes of an observation frame.
_DT_ENTITY = np.dtype("<u4")
_DT_SOURCE = np.dtype("<u4")
_DT_VALUE = np.dtype("<f8")
_DT_SEQUENCE = np.dtype("<i8")
_DT_FLAGS = np.dtype("u1")

#: The count and the byte lengths of a name block.
_DT_NAME_LENGTH = np.dtype("<u4")

#: flags bit0: the observation carried the session attribute.
FLAG_HAS_VALUE = 1

#: Per-row payload bytes (used to validate frame lengths).
_ROW_BYTES = (
    _DT_ENTITY.itemsize
    + _DT_SOURCE.itemsize
    + _DT_VALUE.itemsize
    + _DT_SEQUENCE.itemsize
    + _DT_FLAGS.itemsize
)


class SegmentCorruptionError(ReproError):
    """A sealed segment failed its CRC or framing check."""


def _framed(payload: bytes) -> bytes:
    if len(payload) > _MAX_FRAME_BYTES:
        raise ValidationError(
            f"segment frame of {len(payload)} bytes exceeds the "
            f"{_MAX_FRAME_BYTES}-byte frame bound"
        )
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclasses.dataclass(frozen=True)
class Frame:
    """One decoded frame of the segment log."""

    kind: int
    state_version: int
    entity_idx: np.ndarray
    source_idx: np.ndarray
    values: np.ndarray
    sequences: np.ndarray
    flags: np.ndarray
    seed: "dict[str, Any] | None" = None
    #: Names the frame introduces: they take the next first-seen indices.
    new_entities: "list[str]" = dataclasses.field(default_factory=list)
    new_sources: "list[str]" = dataclasses.field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return int(self.entity_idx.shape[0])


def frame_observation(
    frame: Frame,
    row: int,
    entity_names: "list[str]",
    source_names: "list[str]",
    attribute: str,
) -> Observation:
    """Row ``row`` of an observation frame, its indices resolved to names."""
    if frame.flags[row] & FLAG_HAS_VALUE:
        attributes = {attribute: float(frame.values[row])}
    else:
        attributes = {}
    return Observation(
        entity_names[int(frame.entity_idx[row])],
        attributes,
        source_names[int(frame.source_idx[row])],
        int(frame.sequences[row]),
    )


def encode_names(names: "Iterable[str]") -> bytes:
    """One name block: a ``u32`` count, the ``u32`` byte lengths, the UTF-8 bytes."""
    raw = [name.encode("utf-8") for name in names]
    return b"".join(
        (
            np.array([len(raw), *map(len, raw)], dtype=_DT_NAME_LENGTH).tobytes(),
            *raw,
        )
    )


def decode_names(buffer: bytes, offset: int) -> "tuple[list[str], int]":
    """The names of the block at ``offset``, and the offset just past it.

    Raises ``ValueError`` for a block that overruns ``buffer`` or holds
    a name that is not UTF-8.
    """
    (count,) = np.frombuffer(buffer, _DT_NAME_LENGTH, 1, offset).tolist()
    offset += _DT_NAME_LENGTH.itemsize
    lengths = np.frombuffer(buffer, _DT_NAME_LENGTH, count, offset).tolist()
    offset += _DT_NAME_LENGTH.itemsize * count
    names: list[str] = []
    for length in lengths:
        end = offset + length
        if end > len(buffer):
            raise ValueError("name block overruns its buffer")
        names.append(buffer[offset:end].decode("utf-8"))
        offset = end
    return names, offset


def encode_frame(
    state_version: int,
    entity_idx: np.ndarray,
    source_idx: np.ndarray,
    values: np.ndarray,
    sequences: np.ndarray,
    flags: np.ndarray,
    *,
    new_entities: "Iterable[str]" = (),
    new_sources: "Iterable[str]" = (),
) -> bytes:
    """Encode one observation chunk, and the names it introduces, as a frame."""
    n = int(entity_idx.shape[0])
    payload = b"".join(
        (
            _FRAME_META.pack(FRAME_OBSERVATIONS, state_version, n),
            encode_names(new_entities),
            encode_names(new_sources),
            np.ascontiguousarray(entity_idx, dtype=_DT_ENTITY).tobytes(),
            np.ascontiguousarray(source_idx, dtype=_DT_SOURCE).tobytes(),
            np.ascontiguousarray(values, dtype=_DT_VALUE).tobytes(),
            np.ascontiguousarray(sequences, dtype=_DT_SEQUENCE).tobytes(),
            np.ascontiguousarray(flags, dtype=_DT_FLAGS).tobytes(),
        )
    )
    return _framed(payload)


def encode_seed_frame(state_version: int, seed: "dict[str, Any]") -> bytes:
    """Encode an aggregate-baseline seed frame (compact JSON payload)."""
    body = json.dumps(seed, separators=(",", ":"), allow_nan=False).encode("utf-8")
    return _framed(_FRAME_META.pack(FRAME_SEED, state_version, 0) + body)


_EMPTY_U4 = np.empty(0, dtype=_DT_ENTITY)
_EMPTY_F8 = np.empty(0, dtype=_DT_VALUE)
_EMPTY_I8 = np.empty(0, dtype=_DT_SEQUENCE)
_EMPTY_U1 = np.empty(0, dtype=_DT_FLAGS)


def _decode_payload(payload: bytes) -> "Frame | None":
    """Decode one CRC-verified payload; None means malformed content."""
    if len(payload) < _FRAME_META.size:
        return None
    kind, version, n_rows = _FRAME_META.unpack_from(payload, 0)
    offset = _FRAME_META.size
    if kind == FRAME_SEED:
        try:
            seed = json.loads(payload[offset:].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return Frame(
            FRAME_SEED, version, _EMPTY_U4, _EMPTY_U4,
            _EMPTY_F8, _EMPTY_I8, _EMPTY_U1, seed=seed,
        )
    if kind != FRAME_OBSERVATIONS:
        return None
    try:
        new_entities, offset = decode_names(payload, offset)
        new_sources, offset = decode_names(payload, offset)
    except ValueError:
        return None
    if len(payload) - offset != n_rows * _ROW_BYTES:
        return None

    def column(dtype: np.dtype) -> np.ndarray:
        nonlocal offset
        array = np.frombuffer(payload, dtype=dtype, count=n_rows, offset=offset)
        offset += dtype.itemsize * n_rows
        return array

    return Frame(
        FRAME_OBSERVATIONS,
        version,
        column(_DT_ENTITY),
        column(_DT_SOURCE),
        column(_DT_VALUE),
        column(_DT_SEQUENCE),
        column(_DT_FLAGS),
        new_entities=new_entities,
        new_sources=new_sources,
    )


def scan_frames(raw: bytes) -> "tuple[list[Frame], int]":
    """Parse framed records from ``raw``; returns (frames, clean_offset).

    ``clean_offset`` is the byte offset just past the last frame that
    parsed *and* passed its CRC -- everything beyond it is a torn or
    corrupt tail.
    """
    frames: list[Frame] = []
    offset = 0
    total = len(raw)
    while offset + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(raw, offset)
        if length > _MAX_FRAME_BYTES:
            break  # corrupt header: treat as tail
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            break  # torn payload
        payload = raw[start:end]
        if zlib.crc32(payload) != crc:
            break  # corrupt payload
        frame = _decode_payload(payload)
        if frame is None:
            break  # CRC collision on garbage; vanishingly unlikely
        frames.append(frame)
        offset = end
    return frames, offset


def read_frames(path: "str | os.PathLike[str]", *, sealed: bool = False) -> list[Frame]:
    """All clean frames of the segment at ``path`` (missing file = none).

    ``sealed=True`` asserts the file is an immutable sealed segment: any
    trailing garbage is corruption, not a recoverable torn tail.
    """
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return []
    frames, clean_offset = scan_frames(raw)
    if sealed and clean_offset != len(raw):
        raise SegmentCorruptionError(
            f"sealed segment {Path(path).name} is corrupt at byte {clean_offset}"
        )
    return frames


def segment_name(index: int) -> str:
    """Canonical file name of sealed segment ``index`` (1-based)."""
    return f"seg-{index:08d}.seg"


class SegmentLog:
    """The active (appendable) segment plus the seal operation.

    Not thread-safe: callers serialize appends (the disk store appends
    under the session's exclusive write lock).
    """

    ACTIVE_NAME = "active.seg"

    def __init__(
        self,
        directory: "str | os.PathLike[str]",
        *,
        fsync: str = "batch",
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValidationError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{', '.join(FSYNC_POLICIES)}"
            )
        self.directory = Path(directory)
        self.fsync_policy = fsync
        self.active_path = self.directory / self.ACTIVE_NAME
        self._file: "Any | None" = None
        # True from creating active.seg until its directory entry is fsynced.
        self._new_entry = False
        self._appends = 0
        self._syncs = 0
        self._unsynced = 0
        # Running shape of the active segment, maintained across appends
        # so sealing can record (rows, bytes, crc) without re-reading.
        self._active_rows = 0
        self._active_frames = 0
        self._active_crc = 0
        self._active_bytes = 0

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    def _handle(self):
        if self._file is None:
            self._new_entry = not self.active_path.exists()
            # Unbuffered: no byte of a refused frame can reach the file later.
            self._file = open(self.active_path, "ab", buffering=0)
        return self._file

    def _fsync_active(self, handle) -> None:
        os.fsync(handle.fileno())
        if self._new_entry:
            fsync_directory(self.directory)
            self._new_entry = False

    def sync_due(self) -> bool:
        """Whether the policy fsyncs the next :meth:`append`."""
        return self.fsync_policy == "always" or (
            self.fsync_policy == "batch" and self._unsynced + 1 >= BATCH_EVERY
        )

    def append(self, frame_bytes: bytes, n_rows: int, *, sync: "bool | None" = None) -> None:
        """Append one encoded frame, all of it or nothing.

        The frame goes to the OS unconditionally, which is what makes a
        SIGKILL after ``append`` returns lose nothing; the fsync policy
        decides power-loss durability (``sync=None`` asks
        :meth:`sync_due`).  ``storage.after_frame`` fires once the frame
        is in the file but before it is fsynced or the store absorbs it.
        When anything after the write raises, the file is truncated back
        to its length before the append and every counter is left as it
        was, so a refused append leaves no frame behind.
        """
        if sync is None:
            sync = self.sync_due()
        sync = sync and self.fsync_policy != "never"
        handle = self._handle()
        try:
            if handle.write(frame_bytes) != len(frame_bytes):
                raise OSError(f"short write to {self.active_path}")
            fault_point("storage.after_frame")
            if sync:
                self._fsync_active(handle)
        except BaseException:
            os.ftruncate(handle.fileno(), self._active_bytes)
            raise
        self._appends += 1
        if sync:
            self._syncs += 1
            self._unsynced = 0
        else:
            self._unsynced += 1
        self._active_rows += int(n_rows)
        self._active_frames += 1
        self._active_crc = zlib.crc32(frame_bytes, self._active_crc)
        self._active_bytes += len(frame_bytes)

    def sync(self) -> None:
        """fsync whatever has been appended so far."""
        if self._file is not None and self.fsync_policy != "never":
            self._fsync_active(self._file)
            self._syncs += 1
            self._unsynced = 0

    # ------------------------------------------------------------------ #
    # Recovery and sealing
    # ------------------------------------------------------------------ #

    def recover_active(self) -> list[Frame]:
        """Read the active segment, truncating any torn/corrupt tail.

        Must run before :meth:`append` on a directory that may have been
        written by a crashed process: appending after a torn tail would
        bury the corruption mid-file.  Rebuilds the running (rows, crc,
        bytes) counters.
        """
        self.release()
        try:
            raw = self.active_path.read_bytes()
        except FileNotFoundError:
            raw = b""
        frames, clean_offset = scan_frames(raw)
        if clean_offset < len(raw):
            with open(self.active_path, "r+b") as handle:
                handle.truncate(clean_offset)
                os.fsync(handle.fileno())
        self._active_rows = sum(f.n_rows for f in frames)
        self._active_frames = len(frames)
        self._active_crc = zlib.crc32(raw[:clean_offset])
        self._active_bytes = clean_offset
        return frames

    def seal(self, index: int) -> "dict[str, Any] | None":
        """Seal the active segment as ``seg-<index>.seg``.

        Returns the manifest entry ``{"segment", "frames", "rows",
        "bytes", "crc"}`` or ``None`` when the active segment holds no
        frames (nothing to seal).  The caller writes the manifest; a
        crash between the rename and that write leaves an *orphan*
        sealed segment which attach adopts by scanning the directory.
        """
        if self._active_frames == 0:
            return None
        os.fsync(self._handle().fileno())
        self.release()
        fault_point("storage.before_seal")
        sealed_path = self.directory / segment_name(index)
        os.rename(self.active_path, sealed_path)
        entry = {
            "segment": sealed_path.name,
            "frames": self._active_frames,
            "rows": self._active_rows,
            "bytes": self._active_bytes,
            "crc": self._active_crc,
        }
        # From the rename on, the counters describe the next active.seg,
        # even when the rest of the seal fails.
        self._active_rows = 0
        self._active_frames = 0
        self._active_crc = 0
        self._active_bytes = 0
        self._unsynced = 0
        fsync_directory(self.directory)
        self._new_entry = False
        fault_point("storage.after_seal")
        return entry

    def sealed_segments(self) -> list[Path]:
        """Every sealed segment in the directory, in index order."""
        return sorted(self.directory.glob("seg-*.seg"))

    def close(self) -> None:
        """fsync (unless policy is "never") and close the handle."""
        self.sync()
        self.release()

    def release(self) -> None:
        """Close the handle without syncing it."""
        if self._file is not None:
            self._file.close()
            self._file = None

    @property
    def active_rows(self) -> int:
        """Rows currently in the active (unsealed) segment."""
        return self._active_rows

    @property
    def active_frames(self) -> int:
        """Frames currently in the active segment (a seed frame has no rows)."""
        return self._active_frames

    def stats(self) -> "dict[str, Any]":
        """Counters for ``/stats``: appends, fsyncs, active-segment shape."""
        return {
            "appends": self._appends,
            "syncs": self._syncs,
            "unsynced": self._unsynced,
            "active_frames": self._active_frames,
            "active_rows": self._active_rows,
            "active_bytes": self._active_bytes,
            "fsync_policy": self.fsync_policy,
        }
