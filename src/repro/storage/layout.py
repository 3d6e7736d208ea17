"""On-disk layout of one session store, and the manifest that anchors it.

A disk-backed session lives in one flat directory::

    <store_dir>/
        manifest.json          # atomic (os.replace) anchor, see below
        active.seg             # appendable segment (repro.storage.segments)
        seg-00000001.seg       # sealed, immutable
        ...
        checkpoint.bin         # aggregate state and names at the last
                               #   seal (repro.storage.checkpoint)

No subdirectories: a new session creates its store on the serving
path, and a directory costs as much to create as a file.  An ingest
writes only ``active.seg``: each frame carries the names it introduces.

``manifest.json`` is the only file replaced atomically (scratch + fsync
+ ``os.replace`` + directory fsync) and is the session's checkpoint
record.  It records the session config (attribute, table name, default
estimator spec, count method), the seeded source sizes, the
sealed-segment list with per-file (frames, rows, bytes, crc32), the
counters at its write, and the checkpoint file the last seal wrote
(its bytes, crc32, state version, entity and source counts).
Everything past the checkpoint is recovered from the segments it does
not cover -- so a crash at *any* instruction between two manifest
writes loses nothing durable.

Sealed segments that a crash orphaned (renamed before the manifest
write -- the ``storage.after_seal`` window) are adopted by scanning the
store directory: names beyond the manifest's list are scanned frame by
frame and re-listed at the next manifest write.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.utils.exceptions import ReproError

__all__ = [
    "FSYNC_POLICIES",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "StorageError",
    "StoreLayout",
    "fsync_directory",
    "make_directories",
    "write_json_atomic",
]

#: Accepted values of the fsync policy (``--wal-fsync``).
FSYNC_POLICIES = ("always", "batch", "never")

MANIFEST_NAME = "manifest.json"
#: v1 kept segments, names and per-ack arrays in subdirectories, v2 kept
#: the per-ack arrays beside the log, v3 kept the names in two logs
#: beside it; their stores are refused rather than read.
MANIFEST_SCHEMA = "repro.storage/v4"


class StorageError(ReproError):
    """A store directory is malformed beyond what recovery can heal."""


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


def write_json_atomic(path: Path, payload: "dict[str, Any]") -> None:
    """Write JSON durably and atomically: scratch + fsync + os.replace."""
    scratch = path.with_suffix(path.suffix + ".tmp")
    raw = json.dumps(payload, indent=2, allow_nan=False).encode("utf-8")
    with open(scratch, "wb") as handle:
        handle.write(raw)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(scratch, path)
    fsync_directory(path.parent)


class StoreLayout:
    """Path arithmetic plus manifest read/write for one store directory."""

    def __init__(self, directory: "str | os.PathLike[str]") -> None:
        self.directory = Path(directory)

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def checkpoint_path(self) -> Path:
        return self.directory / "checkpoint.bin"

    def exists(self) -> bool:
        """True when the directory holds an initialized store (a manifest)."""
        return self.manifest_path.is_file()

    def read_manifest(self) -> "dict[str, Any] | None":
        """The manifest payload, or None for an uninitialized directory."""
        try:
            raw = self.manifest_path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StorageError(
                f"store manifest {self.manifest_path} is not valid JSON "
                "(the manifest is replaced atomically; this is not crash "
                "damage but external corruption)"
            ) from exc
        if payload.get("schema") != MANIFEST_SCHEMA:
            raise StorageError(
                f"store manifest {self.manifest_path} has schema "
                f"{payload.get('schema')!r}; expected {MANIFEST_SCHEMA!r} "
                "(move the session with GET .../snapshot on the version "
                "that wrote it and POST .../restore here)"
            )
        return payload

    def write_manifest(
        self,
        *,
        config: "dict[str, Any]",
        seed_source_sizes: "list[int]",
        sealed: "list[dict[str, Any]]",
        state_version: int,
        n: int,
        n_ingested: int,
        checkpoint: "dict[str, Any] | None",
    ) -> "dict[str, Any]":
        payload = {
            "schema": MANIFEST_SCHEMA,
            "config": dict(config),
            "seed_source_sizes": list(seed_source_sizes),
            "sealed": list(sealed),
            "state_version": int(state_version),
            "n": int(n),
            "n_ingested": int(n_ingested),
            "checkpoint": checkpoint,
        }
        write_json_atomic(self.manifest_path, payload)
        return payload

    def transfer_files(self) -> "list[Path]":
        """Every file a store transfer must ship: segments first, manifest last.

        The manifest is written last on the receiving side too, so an
        interrupted unpack never looks like a complete store: it leaves
        log data without a manifest, which attach refuses.
        """
        files = sorted(
            (
                path
                for path in self.directory.iterdir()
                if path.is_file()
                and path.name != MANIFEST_NAME
                and path.suffix != ".tmp"
            ),
            key=lambda path: (path.suffix != ".seg", path.name),
        )
        files.append(self.manifest_path)
        return files
