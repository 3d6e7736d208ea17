"""Pack/unpack a disk store as a single streamable archive.

Cluster migration and snapshot transfer ship a disk-backed session as
its sealed files instead of re-encoding the whole sample as one JSON
body.  The wire format is deliberately trivial -- it has to stream
through ``http.server`` with an exact ``Content-Length`` and unpack
without buffering:

    <header JSON line, "\\n"-terminated>
    <file 0 raw bytes><file 1 raw bytes>...

The header line is ``{"schema": "repro.store-archive/v1", "session":
..., "state_version": ..., "files": [{"path", "size"}, ...]}``; file
bytes follow concatenated in header order.  The store layout puts
``manifest.json`` last (:meth:`repro.storage.layout.StoreLayout.
transfer_files`), and the unpacker writes files in arrival order, so an
interrupted transfer never leaves a directory that *looks* like a
complete store -- attach treats a manifest-less directory as empty.

Paths are validated against traversal: each must be a normalized
relative path confined to the store directory.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable

from repro.storage.layout import StorageError, StoreLayout, fsync_directory

__all__ = [
    "ARCHIVE_SCHEMA",
    "archive_header",
    "archive_length",
    "iter_archive",
    "unpack_archive",
]

ARCHIVE_SCHEMA = "repro.store-archive/v1"

#: Refuse header lines beyond this (a garbage stream must not buffer
#: unboundedly while hunting for the newline).
_MAX_HEADER_BYTES = 8 * 1024 * 1024

_CHUNK = 64 * 1024


def archive_header(
    directory: "str | os.PathLike[str]",
    *,
    session: str,
    state_version: int,
) -> "tuple[bytes, list[tuple[Path, str, int]]]":
    """Build the header line for the store at ``directory``.

    Returns ``(header_bytes, files)`` where ``files`` is a list of
    ``(absolute_path, relative_path, size)`` in transfer order.  Sizes
    are captured here, so the caller must hold the session's write lock
    (or otherwise guarantee quiescence) from this call until the listed
    *mutable* files (checkpoint, manifest) have been read; sealed
    segments are immutable and may be streamed after the lock drops.
    """
    layout = StoreLayout(directory)
    root = layout.directory
    files: list[tuple[Path, str, int]] = []
    for path in layout.transfer_files():
        if not path.is_file():
            continue
        files.append((path, path.relative_to(root).as_posix(), path.stat().st_size))
    header = {
        "schema": ARCHIVE_SCHEMA,
        "session": session,
        "state_version": int(state_version),
        "files": [{"path": rel, "size": size} for _, rel, size in files],
    }
    line = json.dumps(header, separators=(",", ":"), allow_nan=False).encode("utf-8")
    return line + b"\n", files


def archive_length(header_bytes: bytes, files: "list[tuple[Path, str, int]]") -> int:
    """Exact body length: the ``Content-Length`` of the archive."""
    return len(header_bytes) + sum(size for _, _, size in files)


def iter_archive(
    header_bytes: bytes, files: "list[tuple[Path, str, int]]"
):
    """Yield the archive in bounded chunks (header first, then files)."""
    yield header_bytes
    for path, rel, size in files:
        remaining = size
        with open(path, "rb") as handle:
            while remaining > 0:
                block = handle.read(min(_CHUNK, remaining))
                if not block:
                    raise StorageError(
                        f"store file {rel} shrank to {size - remaining} bytes "
                        f"while streaming (expected {size})"
                    )
                remaining -= len(block)
                yield block


def _safe_relative(rel: str) -> "tuple[str, ...]":
    parts = Path(rel).parts
    if not parts or Path(rel).is_absolute() or any(p in ("..", "") for p in parts):
        raise StorageError(f"store archive names unsafe path {rel!r}")
    return parts


def unpack_archive(
    read: "Callable[[int], bytes]",
    directory: "str | os.PathLike[str]",
    *,
    max_bytes: "int | None" = None,
) -> "dict[str, Any]":
    """Stream an archive from ``read`` into ``directory``.

    ``read(n)`` must return at most ``n`` bytes, empty at EOF (a socket
    ``read`` or file ``read`` both qualify).  Returns the parsed header.
    Files are written in arrival order -- manifest last by construction
    -- and fsynced with their directories before returning, so a store
    that unpacks completely is attachable even across power loss.
    """
    header = _read_header(read)
    if header.get("schema") != ARCHIVE_SCHEMA:
        raise StorageError(
            f"store archive has schema {header.get('schema')!r}; "
            f"expected {ARCHIVE_SCHEMA!r}"
        )
    entries = header.get("files")
    if not isinstance(entries, list):
        raise StorageError("store archive header lacks a files list")
    total = 0
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    touched_dirs: set[Path] = set()
    for entry in entries:
        rel = entry["path"]
        size = int(entry["size"])
        if size < 0:
            raise StorageError(f"store archive names negative size for {rel!r}")
        total += size
        if max_bytes is not None and total > max_bytes:
            raise StorageError(
                f"store archive exceeds the {max_bytes}-byte transfer limit"
            )
        parts = _safe_relative(rel)
        target = root.joinpath(*parts)
        target.parent.mkdir(parents=True, exist_ok=True)
        remaining = size
        with open(target, "wb") as handle:
            while remaining > 0:
                block = read(min(_CHUNK, remaining))
                if not block:
                    raise StorageError(
                        f"store archive truncated inside {rel!r} "
                        f"({remaining} of {size} bytes missing)"
                    )
                handle.write(block)
                remaining -= len(block)
            handle.flush()
            os.fsync(handle.fileno())
        touched_dirs.add(target.parent)
    for parent in sorted(touched_dirs):
        fsync_directory(parent)
    fsync_directory(root)
    return header


def _read_header(read: "Callable[[int], bytes]") -> "dict[str, Any]":
    buffer = bytearray()
    while b"\n" not in buffer:
        if len(buffer) > _MAX_HEADER_BYTES:
            raise StorageError("store archive header exceeds the size limit")
        block = read(1)
        if not block:
            raise StorageError("store archive ended before its header line")
        buffer.extend(block)
    line = bytes(buffer[: buffer.index(b"\n")])
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError("store archive header is not valid JSON") from exc
    if not isinstance(header, dict):
        raise StorageError("store archive header is not an object")
    return header
