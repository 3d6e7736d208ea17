"""The reconcile rules of ``SessionRegistry.load_state``, case by case.

A state dir holds four kinds of per-session traces: journals
(``wal/<name>.wal``), store directories (``store/<name>/``), checkpoint
files (``sessions/<name>.json``) and tombstones
(``sessions/<name>.tombstone``).  Each case builds one combination with
a real registry -- or, for the retired memory-store format, writes the
traces that format left -- and asserts the version it restores to, or
the exact error it refuses with; a tombstone over any of them deletes
the session.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from serving_helpers import SIX_ROWS, make_observations
from repro.api.session import OpenWorldSession
from repro.resilience.wal import WalCorruptionError, WriteAheadLog
from repro.serving.registry import SESSION_STATE_SCHEMA, SessionRegistry
from repro.utils.exceptions import ValidationError

CHUNKS = [SIX_ROWS[:2], SIX_ROWS[2:4], SIX_ROWS[4:]]


def _ingest(registry, count):
    served = registry.create("s", "value", estimator="bucket/frequency")
    for rows in CHUNKS[:count]:
        served.ingest(make_observations(rows))
    return served


def _snapshot(count):
    session = OpenWorldSession("value", estimator="bucket/frequency")
    for rows in CHUNKS[:count]:
        session.ingest(make_observations(rows))
    return session.snapshot().to_dict()


def _memory_journal(state_dir, records):
    """A journal of the retired memory-store format."""
    journal = WriteAheadLog(state_dir / "wal" / "s.wal")
    journal.rewrite(records)
    journal.close()


def _observations_record(version):
    """A full-observation ingest record of chunk ``version``."""
    return {
        "op": "ingest",
        "v": version,
        "observations": [
            [entity, source, {"value": value}, -1]
            for entity, source, value in CHUNKS[version - 1]
        ],
    }


def memory_checkpoint(state_dir):
    (state_dir / "sessions").mkdir(parents=True)
    (state_dir / "sessions" / "s.json").write_text(
        json.dumps(
            {"schema": SESSION_STATE_SCHEMA, "store": "memory", "snapshot": _snapshot(2)}
        )
    )
    _memory_journal(state_dir, [])  # the journal rotated down to nothing


def memory_checkpoint_with_tail(state_dir):
    memory_checkpoint(state_dir)
    _memory_journal(state_dir, [_observations_record(3)])


def create_head_alone(state_dir):
    _memory_journal(
        state_dir,
        [{"op": "create", "snapshot": _snapshot(0)}]
        + [_observations_record(version) for version in (1, 2, 3)],
    )


def disk_store_without_refs(state_dir):
    registry = SessionRegistry(state_dir=state_dir)
    _ingest(registry, 2)
    registry.save_state()  # seals the store; the journal rotates down to nothing


def disk_store_with_refs(state_dir):
    _ingest(SessionRegistry(state_dir=state_dir), 3)


def ref_beyond_the_store(state_dir):
    _ingest(SessionRegistry(state_dir=state_dir), 2)
    journal = WriteAheadLog(state_dir / "wal" / "s.wal")
    journal.append({"op": "ingest", "v": 3, "rows": 2})
    journal.close()


def store_journal_without_store(state_dir):
    _ingest(SessionRegistry(state_dir=state_dir), 2)
    shutil.rmtree(state_dir / "store" / "s")


def disk_checkpoint_without_store(state_dir):
    disk_store_without_refs(state_dir)
    shutil.rmtree(state_dir / "store" / "s")


#: The refusal of every trace of the retired memory-store format.
MEMORY_FORMAT = (
    ValidationError,
    "state dir {state_dir} holds session 's' in the memory-store format "
    "(JSON snapshot checkpoints and full-observation journal records), which "
    "this version no longer reads; move it with GET .../snapshot on the "
    "version that wrote it and POST .../restore here",
)

#: (builder, restored state_version or the exact refusal)
CASES = {
    "memory-checkpoint": (memory_checkpoint, MEMORY_FORMAT),
    "memory-checkpoint+journal-tail": (memory_checkpoint_with_tail, MEMORY_FORMAT),
    "journal-create-head": (create_head_alone, MEMORY_FORMAT),
    "disk-store": (disk_store_without_refs, 2),
    "disk-store+slim-refs": (disk_store_with_refs, 3),
    "ref-beyond-store": (
        ref_beyond_the_store,
        (
            WalCorruptionError,
            "journal 's' references state_version 3 but the store recovered "
            "only 2; the store lost an acknowledged chunk",
        ),
    ),
    "create-store-journal-without-store": (
        store_journal_without_store,
        (
            WalCorruptionError,
            "journal for 's' references a disk store but {state_dir}/store/s "
            "holds none",
        ),
    ),
    "disk-checkpoint-without-store": (
        disk_checkpoint_without_store,
        (
            WalCorruptionError,
            "checkpoint for 's' references a disk store but {state_dir}/store/s "
            "holds none",
        ),
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_load_state_reconciles(tmp_path, case):
    build, expected = CASES[case]
    build(tmp_path)
    registry = SessionRegistry(state_dir=tmp_path)
    if isinstance(expected, tuple):
        error, message = expected
        message = message.format(state_dir=tmp_path)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
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


def test_serve_refuses_a_memory_format_state_dir_and_keeps_it(tmp_path):
    memory_checkpoint_with_tail(tmp_path)
    before = sorted(path for path in tmp_path.rglob("*"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--state-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "READY" not in proc.stdout
    assert "in the memory-store format" in proc.stderr
    assert sorted(path for path in tmp_path.rglob("*")) == before
