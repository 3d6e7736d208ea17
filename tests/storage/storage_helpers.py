"""Shared builders for the storage tests (imported, not a conftest)."""

from __future__ import annotations

import pytest

from repro.api.session import OpenWorldSession
from repro.data.records import Observation
from repro.serving.http import dumps_result
from repro.storage import store as store_module
from repro.storage.store import DiskStore

ATTRIBUTE = "value"
ESTIMATOR = "bucket/frequency"
SQL = "SELECT SUM(value) FROM data WHERE value > 15"

#: The ingest stream, chunk by chunk.  Entities recur across sources,
#: and one repeat observation omits the attribute entirely (allowed for
#: already-seen entities; it exercises the flags=0 column).
CHUNKS = [
    [("a", "s1", 10.0), ("b", "s1", 20.0), ("c", "s1", 30.0)],
    [("a", "s2", 10.0), ("d", "s2", 40.0), ("b", "s2", None)],
    [("e", "s3", 50.0), ("a", "s3", None), ("f", "s3", 60.0), ("b", "s3", 20.0)],
    [("g", "s1", 70.0), ("c", "s2", 30.0)],
]


@pytest.fixture
def early_seals(monkeypatch):
    """Stores seal themselves mid-stream: a checkpoint plus a tail on tiny streams.

    Every chunk of :data:`CHUNKS` after the first finds at least two rows
    in the active segment, so ingesting them all leaves the checkpoint
    at version 3 and the last chunk in ``active.seg``.
    """
    monkeypatch.setattr(store_module, "SEAL_ROWS", 2)


def observations(rows):
    return [
        Observation(
            entity,
            {} if value is None else {ATTRIBUTE: float(value)},
            source,
        )
        for entity, source, value in rows
    ]


def memory_session(chunks=()):
    session = OpenWorldSession(ATTRIBUTE, estimator=ESTIMATOR)
    for chunk in chunks:
        session.ingest(observations(chunk))
    return session


def disk_session(directory, chunks=(), *, fsync="never"):
    session = OpenWorldSession(
        ATTRIBUTE, estimator=ESTIMATOR, store=DiskStore(directory, fsync=fsync)
    )
    for chunk in chunks:
        session.ingest(observations(chunk))
    return session


def surface_bytes(session):
    """Every read surface of ``session``, serialized to exact bytes."""
    return {
        "estimate": dumps_result(session.estimate().to_dict()),
        "estimate_naive": dumps_result(session.estimate(spec="naive").to_dict()),
        "query": dumps_result(session.query(SQL).to_dict()),
        "snapshot": dumps_result(session.snapshot().to_dict()),
        "statistics": dumps_result(sorted(session.statistics().frequencies.items())),
    }


def assert_same_surfaces(session, oracle):
    """Byte-identity of every read surface against the oracle session."""
    actual = surface_bytes(session)
    expected = surface_bytes(oracle)
    for surface in expected:
        assert actual[surface] == expected[surface], surface
