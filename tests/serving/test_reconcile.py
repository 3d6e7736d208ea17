"""The reconcile rules of ``SessionRegistry.load_state``, case by case.

A state dir holds four kinds of per-session traces: journals
(``wal/<name>.wal``), store directories (``store/<name>/``), checkpoint
files (``sessions/<name>.json``) and tombstones
(``sessions/<name>.tombstone``).  Each case builds one combination with
a real registry and asserts the version it restores to, or the exact
error it refuses with; a tombstone over any of them deletes the session.
"""

from __future__ import annotations

import re
import shutil

import pytest

from serving_helpers import SIX_ROWS, make_observations
from repro.resilience.wal import WalCorruptionError, WriteAheadLog
from repro.serving.registry import SessionRegistry

CHUNKS = [SIX_ROWS[:2], SIX_ROWS[2:4], SIX_ROWS[4:]]


def _ingest(registry, count):
    served = registry.create("s", "value", estimator="bucket/frequency")
    for rows in CHUNKS[:count]:
        served.ingest(make_observations(rows))
    return served


def memory_checkpoint(state_dir):
    registry = SessionRegistry(state_dir=state_dir)
    _ingest(registry, 2)
    registry.save_state()  # the journal rotates down to nothing


def memory_checkpoint_with_tail(state_dir):
    registry = SessionRegistry(state_dir=state_dir)
    served = _ingest(registry, 2)
    registry.save_state()
    served.ingest(make_observations(CHUNKS[2]))  # journaled, not checkpointed


def create_head_alone(state_dir):
    _ingest(SessionRegistry(state_dir=state_dir), 3)


def disk_store_without_refs(state_dir):
    registry = SessionRegistry(state_dir=state_dir, store="disk")
    _ingest(registry, 2)
    registry.save_state()  # seals the store; the journal rotates down to nothing


def disk_store_with_refs(state_dir):
    _ingest(SessionRegistry(state_dir=state_dir, store="disk"), 3)


def ref_beyond_the_store(state_dir):
    _ingest(SessionRegistry(state_dir=state_dir, store="disk"), 2)
    journal = WriteAheadLog(state_dir / "wal" / "s.wal")
    journal.append({"op": "ingest", "v": 3, "rows": 2})
    journal.close()


def store_journal_without_store(state_dir):
    _ingest(SessionRegistry(state_dir=state_dir, store="disk"), 2)
    shutil.rmtree(state_dir / "store" / "s")


def disk_checkpoint_without_store(state_dir):
    disk_store_without_refs(state_dir)
    shutil.rmtree(state_dir / "store" / "s")


#: (builder, restored state_version or the exact refusal)
CASES = {
    "memory-checkpoint": (memory_checkpoint, 2),
    "memory-checkpoint+journal-tail": (memory_checkpoint_with_tail, 3),
    "journal-create-head": (create_head_alone, 3),
    "disk-store": (disk_store_without_refs, 2),
    "disk-store+slim-refs": (disk_store_with_refs, 3),
    "ref-beyond-store": (
        ref_beyond_the_store,
        "journal 's' references state_version 3 but the store recovered "
        "only 2; the store lost an acknowledged chunk",
    ),
    "create-store-journal-without-store": (
        store_journal_without_store,
        "journal 's' has no create record and no checkpoint entry; cannot "
        "reconstruct the session",
    ),
    "disk-checkpoint-without-store": (
        disk_checkpoint_without_store,
        "checkpoint for 's' references a disk store but {state_dir}/store/s "
        "holds none",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_load_state_reconciles(tmp_path, case):
    build, expected = CASES[case]
    build(tmp_path)
    registry = SessionRegistry(state_dir=tmp_path)
    if isinstance(expected, str):
        message = expected.format(state_dir=tmp_path)
        with pytest.raises(WalCorruptionError, match=f"^{re.escape(message)}$"):
            registry.load_state()
        return
    assert registry.load_state() == ["s"]
    assert registry.get("s").state_version == expected


@pytest.mark.parametrize("case", list(CASES))
def test_tombstone_deletes_every_trace(tmp_path, case):
    build, _ = CASES[case]
    build(tmp_path)
    (tmp_path / "sessions").mkdir(exist_ok=True)
    (tmp_path / "sessions" / "s.tombstone").write_text("{}\n")
    assert SessionRegistry(state_dir=tmp_path).load_state() == []
    assert not (tmp_path / "wal" / "s.wal").exists()
    assert not (tmp_path / "store" / "s").exists()
    assert not list((tmp_path / "sessions").iterdir())
