"""The checkpoint a seal writes: a disk store's aggregate state at one version.

The estimators read only aggregate statistics of the integrated sample:
per-entity counts and first-seen fused values, per-source contribution
sizes and the frequency histogram ``{j: f_j}``.
:meth:`~repro.storage.store.DiskStore.seal` writes them as one file,
``checkpoint.bin``, in fixed-width little-endian columns::

    magic "RPROCKP2" | entities: u64 | sources: u64 | frequencies: u64
    counts: u64[entities]       values: f64[entities]   (first-seen order)
    sizes:  u64[sources]                                (first-seen order)
    freq_j: u64[frequencies]    freq_n: u64[frequencies]   (ascending j)
    entity names: name block    source names: name block   (first-seen order)

The name blocks are the segment frames' own
(:func:`repro.storage.segments.encode_names`): entity and source ``i``
are their ``i``-th names, and the frames past the checkpoint introduce
the next ones.  The seal writes the file after the active segment is
sealed and before the manifest is replaced, and the manifest names it
with its size, CRC32 and state version, so a checkpoint never describes
a version the durable log lacks.  No ingest touches it.  A file that is
missing, or fails its size or CRC check, reads as ``None``: the caller
folds the segment log instead, which is authoritative.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from repro.data.progressive import IntegrationState
from repro.storage.segments import decode_names, encode_names

__all__ = ["read_checkpoint", "write_checkpoint"]

_MAGIC = b"RPROCKP2"
_HEADER = struct.Struct("<8sQQQ")  # magic, entities, sources, frequencies
_U8 = np.dtype("<u8")
_F8 = np.dtype("<f8")


def write_checkpoint(path: Path, state: IntegrationState, attribute: str) -> "dict[str, Any]":
    """Write ``state`` to ``path`` and fsync it.

    Returns the manifest entry's shape fields: ``bytes``, ``crc``,
    ``entities`` and ``sources``.
    """
    c = len(state.counts)
    s = len(state.per_source)
    frequencies = sorted(state.frequencies.items())
    raw = b"".join(
        (
            _HEADER.pack(_MAGIC, c, s, len(frequencies)),
            np.fromiter(state.counts.values(), _U8, c).tobytes(),
            np.fromiter(
                (state.values[name][attribute] for name in state.counts), _F8, c
            ).tobytes(),
            np.fromiter(state.per_source.values(), _U8, s).tobytes(),
            np.fromiter((j for j, _ in frequencies), _U8, len(frequencies)).tobytes(),
            np.fromiter((f for _, f in frequencies), _U8, len(frequencies)).tobytes(),
            encode_names(state.counts),
            encode_names(state.per_source),
        )
    )
    with open(path, "wb") as handle:
        handle.write(raw)
        handle.flush()
        os.fsync(handle.fileno())
    return {"bytes": len(raw), "crc": zlib.crc32(raw), "entities": c, "sources": s}


def read_checkpoint(
    path: Path, entry: "dict[str, Any]", attribute: str
) -> "IntegrationState | None":
    """The state the checkpoint at ``path`` holds, or None if it fails ``entry``.

    ``entry`` is the manifest's record of the file.
    """
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None
    if len(raw) != entry["bytes"] or zlib.crc32(raw) != entry["crc"]:
        return None
    magic, c, s, h = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        return None
    offset = _HEADER.size

    def column(dtype: np.dtype, count: int) -> list:
        nonlocal offset
        array = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
        offset += dtype.itemsize * count
        return array.tolist()

    counts = column(_U8, c)
    values = column(_F8, c)
    sizes = column(_U8, s)
    freq_j = column(_U8, h)
    freq_n = column(_U8, h)
    names, offset = decode_names(raw, offset)
    source_names, _ = decode_names(raw, offset)
    state = IntegrationState()
    state.counts = dict(zip(names, counts))
    state.values = {name: {attribute: value} for name, value in zip(names, values)}
    state.per_source = dict(zip(source_names, sizes))
    state.frequencies = dict(zip(freq_j, freq_n))
    state.n = sum(counts)
    return state
