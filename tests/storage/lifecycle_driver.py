"""Subprocess driver for the storage crash-lifecycle matrix.

Run as a script (the test arms ``REPRO_FAULTS`` in the environment)::

    python lifecycle_driver.py <state_dir> [<seal_rows>]

Boots a :class:`~repro.serving.registry.SessionRegistry` on
``state_dir``, creates one session, ingests ``N_CHUNKS`` deterministic
chunks (~10^5 observations total), and checkpoints via ``save_state``.
``seal_rows`` replaces the store's ``SEAL_ROWS``, so a low value makes
the store seal itself every few chunks.
An armed fault SIGKILLs the process somewhere along the way; the test
re-opens the registry, reconciles like a retrying client, and compares
every surface byte-for-byte against a never-crashed in-memory facade.

The stream generator lives here (not in the test) so the parent process
imports this module and replays the *same* chunks without duplication.
"""

from __future__ import annotations

import sys

N_CHUNKS = 100
ROWS_PER_CHUNK = 1000
ENTITY_POOL = 4096
SOURCE_POOL = 17

ATTRIBUTE = "value"
ESTIMATOR = "bucket/frequency"
SESSION = "s"


def chunk_rows(index):
    """Rows of the ``index``-th chunk (0-based), fully deterministic."""
    rows = []
    base = index * ROWS_PER_CHUNK
    for i in range(base, base + ROWS_PER_CHUNK):
        entity = f"e{(i * 7919) % ENTITY_POOL}"
        source = f"s{i % SOURCE_POOL}"
        value = float(10 + (i * 7919) % 97)
        rows.append((entity, source, value))
    return rows


def observations(index):
    from repro.data.records import Observation

    return [
        Observation(entity, {ATTRIBUTE: value}, source)
        for entity, source, value in chunk_rows(index)
    ]


def main() -> int:
    state_dir = sys.argv[1]
    from repro.serving.registry import SessionRegistry
    from repro.storage import store

    if len(sys.argv) > 2:
        store.SEAL_ROWS = int(sys.argv[2])

    registry = SessionRegistry(state_dir=state_dir, wal_fsync="batch")
    registry.load_state()
    served = registry.create(SESSION, ATTRIBUTE, estimator=ESTIMATOR)
    for index in range(N_CHUNKS):
        served.ingest(observations(index))
        print(f"INGESTED {index + 1}", flush=True)
    registry.save_state()
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
