"""Streaming observation reads over a disk store's segment log.

:class:`SegmentObservationReader` is a lazy ``Sequence[Observation]``
over every row persisted at construction time, in ingest order.  It is
what lets :class:`~repro.data.progressive.ProgressiveIntegrator` replay
*prefixes* of a stored session straight from disk: the integrator only
ever asks for ``len(reader)`` and ``reader[index]``, so a progressive
sweep touches one decoded segment at a time instead of materializing
the full observation list.  (:class:`~repro.evaluation.runner.
ProgressiveRunner` is not built on the integrator: it ingests each
prefix's new slice through an :class:`~repro.api.session.
OpenWorldSession`.)  Rows decode through the helper the disk store's
fold uses, :func:`~repro.storage.segments.frame_observation`.

The reader snapshots the store's shape (sealed segment list plus the
active segment's current byte length) when built; segments are
append-only, so rows ``[0, len(reader))`` stay valid even while the
session keeps ingesting.  Decoding is cached one segment at a time
(segments are read in ascending row order during progressive replay, so
an LRU of size one is the natural fit).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.storage.segments import (
    FRAME_OBSERVATIONS,
    Frame,
    frame_observation,
    read_frames,
    scan_frames,
)

__all__ = ["SegmentObservationReader"]


class SegmentObservationReader(Sequence):
    """Lazy, index-addressable view of a disk store's observation rows."""

    def __init__(self, store: Any) -> None:
        entries, entity_names, source_names, attribute = store.reader_inputs()
        self._entity_names = entity_names
        self._source_names = source_names
        self._attribute = attribute
        # Per segment: (path, byte_limit or None); row_starts[i] is the
        # global row index of segment i's first row.
        self._segments: list[tuple[Path, "int | None"]] = []
        self._row_starts: list[int] = []
        total = 0
        for path, byte_limit in entries:
            rows = _segment_rows(path, byte_limit)
            if rows == 0:
                continue
            self._segments.append((Path(path), byte_limit))
            self._row_starts.append(total)
            total += rows
        self._total = total
        self._cached_index = -1
        self._cached_frames: "list[Frame]" = []
        self._cached_offsets: "list[int]" = []

    def __len__(self) -> int:
        return self._total

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._total))]
        if index < 0:
            index += self._total
        if not 0 <= index < self._total:
            raise IndexError(index)
        segment = bisect_right(self._row_starts, index) - 1
        frames, offsets = self._frames_for(segment)
        local = index - self._row_starts[segment]
        frame_i = bisect_right(offsets, local) - 1
        return frame_observation(
            frames[frame_i],
            local - offsets[frame_i],
            self._entity_names,
            self._source_names,
            self._attribute,
        )

    def _frames_for(self, segment: int) -> "tuple[list[Frame], list[int]]":
        if segment == self._cached_index:
            return self._cached_frames, self._cached_offsets
        path, byte_limit = self._segments[segment]
        frames = _decode_segment(path, byte_limit)
        frames = [f for f in frames if f.kind == FRAME_OBSERVATIONS and f.n_rows]
        offsets: list[int] = []
        running = 0
        for frame in frames:
            offsets.append(running)
            running += frame.n_rows
        self._cached_index = segment
        self._cached_frames = frames
        self._cached_offsets = offsets
        return frames, offsets


def _decode_segment(path: Path, byte_limit: "int | None") -> "list[Frame]":
    if byte_limit is None:
        return read_frames(path, sealed=True)
    try:
        raw = path.read_bytes()[:byte_limit]
    except FileNotFoundError:
        return []
    frames, _ = scan_frames(raw)
    return frames


def _segment_rows(path: Path, byte_limit: "int | None") -> int:
    return sum(
        f.n_rows
        for f in _decode_segment(Path(path), byte_limit)
        if f.kind == FRAME_OBSERVATIONS
    )
