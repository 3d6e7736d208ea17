"""Per-session disk storage: segment log and checkpoint.

The package behind ``OpenWorldSession(store=...)`` and every session of
``repro.cli serve --state-dir``: an append-only columnar segment log for
observations whose frames carry the names they introduce (the only file
an ingest writes), and a checkpoint of the aggregate state and its names
that each seal writes for O(1) restart.  See DESIGN.md ("Storage layer")
for the format specification and the crash-consistency argument.
"""

from repro.storage.layout import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    StorageError,
    StoreLayout,
    write_json_atomic,
)
from repro.storage.segments import (
    FRAME_OBSERVATIONS,
    FRAME_SEED,
    Frame,
    SegmentCorruptionError,
    SegmentLog,
    encode_frame,
    encode_seed_frame,
    read_frames,
    scan_frames,
    segment_name,
)
from repro.storage.store import DiskStore, MemoryStore
from repro.storage.transfer import (
    ARCHIVE_SCHEMA,
    archive_header,
    archive_length,
    iter_archive,
    unpack_archive,
)

__all__ = [
    "ARCHIVE_SCHEMA",
    "DiskStore",
    "FRAME_OBSERVATIONS",
    "FRAME_SEED",
    "Frame",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "MemoryStore",
    "SegmentCorruptionError",
    "SegmentLog",
    "StorageError",
    "StoreLayout",
    "archive_header",
    "archive_length",
    "encode_frame",
    "encode_seed_frame",
    "iter_archive",
    "read_frames",
    "scan_frames",
    "segment_name",
    "unpack_archive",
    "write_json_atomic",
]
