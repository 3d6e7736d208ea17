"""The one recovery rule of ``SessionRegistry.load_state``, case by case.

A state dir holds one directory per session, ``store/<name>/``, plus
``store/.incoming-<name>/`` (a create or transfer that was never
acknowledged), ``store/.dead-<name>/`` (an acknowledged delete) and
``store/.old-<name>/`` (a copy being replaced) that a crash left
behind.  Load discards the first two, puts an ``.old-<name>`` back when
``<name>`` is missing and discards it otherwise, and attaches every
store.  Earlier versions kept journals (``wal/<name>.wal``), checkpoint
files and tombstones (``sessions/``) next to the stores; each case of
that layout is written as the raw bytes those versions left, and load
must refuse it, naming the layout, without touching a byte.

The lifecycle calls are checked against the rule too: a delete leaves
nothing behind whatever the store held, and a call cut short at each
of its filesystem steps boots to one side of that step -- the session
exists exactly when its rename into (or out of) ``store/<name>`` was
reached.  The cut is simulated in process: the broken step raises a
:class:`Crash`, which no cleanup handler catches, so the files are left
as a SIGKILL there would leave them.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from serving_helpers import SIX_ROWS, make_observations
from repro.api.session import OpenWorldSession
from repro.serving.http import dumps_result
from repro.serving.registry import SessionRegistry, UnknownSessionError
from repro.storage.transfer import iter_archive
from repro.utils.exceptions import ValidationError

CHUNKS = [SIX_ROWS[:2], SIX_ROWS[2:4], SIX_ROWS[4:]]


def _ingest(registry, count, name="s"):
    served = registry.create(name, "value", estimator="bucket/frequency")
    for rows in CHUNKS[:count]:
        served.ingest(make_observations(rows))
    return served


def _snapshot(count):
    session = OpenWorldSession("value", estimator="bucket/frequency")
    for rows in CHUNKS[:count]:
        session.ingest(make_observations(rows))
    return session.snapshot().to_dict()


def _journal(state_dir, records):
    """``wal/s.wal`` as earlier versions framed it: ``>II`` (length,
    crc32) ahead of each compact-JSON record."""
    frames = b""
    for record in records:
        payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        frames += struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
    (state_dir / "wal").mkdir(parents=True, exist_ok=True)
    (state_dir / "wal" / "s.wal").write_bytes(frames)


def _sessions_file(state_dir, filename, payload):
    (state_dir / "sessions").mkdir(parents=True, exist_ok=True)
    (state_dir / "sessions" / filename).write_bytes(payload)


def _checkpoint(state_dir, payload):
    raw = json.dumps({"schema": "repro.serving-session/v1", **payload}, indent=2)
    _sessions_file(state_dir, "s.json", raw.encode("utf-8") + b"\n")


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
    _checkpoint(state_dir, {"store": "memory", "snapshot": _snapshot(2)})
    _journal(state_dir, [])  # the journal rotated down to nothing


def memory_checkpoint_with_tail(state_dir):
    memory_checkpoint(state_dir)
    _journal(state_dir, [_observations_record(3)])


def create_head_alone(state_dir):
    _journal(
        state_dir,
        [{"op": "create", "snapshot": _snapshot(0)}]
        + [_observations_record(version) for version in (1, 2, 3)],
    )


def disk_store_with_checkpoint(state_dir):
    registry = SessionRegistry(state_dir=state_dir)
    _ingest(registry, 2)
    registry.save_state()
    _checkpoint(state_dir, {"store": "disk", "state_version": 2})
    _journal(state_dir, [])


def disk_store_with_refs(state_dir):
    _ingest(SessionRegistry(state_dir=state_dir), 3)
    _journal(
        state_dir,
        [{"op": "create_store"}]
        + [{"op": "ingest", "v": v, "rows": len(CHUNKS[v - 1])} for v in (1, 2, 3)],
    )


def ref_beyond_the_store(state_dir):
    _ingest(SessionRegistry(state_dir=state_dir), 2)
    _journal(state_dir, [{"op": "ingest", "v": 3, "rows": 2}])


def store_journal_without_store(state_dir):
    _journal(state_dir, [{"op": "create_store"}, {"op": "ingest", "v": 1, "rows": 2}])


def disk_checkpoint_without_store(state_dir):
    _checkpoint(state_dir, {"store": "disk", "state_version": 2})
    _journal(state_dir, [])


def tombstone_over_a_store(state_dir):
    _ingest(SessionRegistry(state_dir=state_dir), 2)
    _sessions_file(state_dir, "s.tombstone", b"{}\n")


def _refusal(*dirnames):
    return (
        "state dir {state_dir} holds "
        + " and ".join(f"{dirname}/" for dirname in dirnames)
        + " of an earlier version's layout (per-session journals and checkpoint "
        "files), which this version no longer reads; move each session with "
        "GET .../snapshot on the version that wrote it and POST .../restore here"
    )


#: builder -> the exact refusal of its state dir
EARLIER_LAYOUTS = {
    "memory-checkpoint": (memory_checkpoint, _refusal("wal", "sessions")),
    "memory-checkpoint+journal-tail": (
        memory_checkpoint_with_tail,
        _refusal("wal", "sessions"),
    ),
    "journal-create-head": (create_head_alone, _refusal("wal")),
    "disk-store+checkpoint": (disk_store_with_checkpoint, _refusal("wal", "sessions")),
    "disk-store+slim-refs": (disk_store_with_refs, _refusal("wal")),
    "ref-beyond-store": (ref_beyond_the_store, _refusal("wal")),
    "create-store-journal-without-store": (
        store_journal_without_store,
        _refusal("wal"),
    ),
    "disk-checkpoint-without-store": (
        disk_checkpoint_without_store,
        _refusal("wal", "sessions"),
    ),
    "tombstone": (tombstone_over_a_store, _refusal("sessions")),
}


def _tree(state_dir):
    return {
        str(path.relative_to(state_dir)): path.read_bytes() if path.is_file() else None
        for path in sorted(state_dir.rglob("*"))
    }


@pytest.mark.parametrize("case", list(EARLIER_LAYOUTS))
def test_earlier_layout_is_refused_and_kept(tmp_path, case):
    build, message = EARLIER_LAYOUTS[case]
    build(tmp_path)
    before = _tree(tmp_path)
    message = message.format(state_dir=tmp_path)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        SessionRegistry(state_dir=tmp_path).load_state()
    assert _tree(tmp_path) == before


@pytest.mark.parametrize(("sealed", "version"), [(True, 2), (False, 3)])
def test_every_store_is_attached(tmp_path, sealed, version):
    registry = SessionRegistry(state_dir=tmp_path)
    _ingest(registry, version)
    if sealed:
        registry.save_state()
    reloaded = SessionRegistry(state_dir=tmp_path)
    assert reloaded.load_state() == ["s"]
    assert reloaded.get("s").state_version == version


def test_boot_discards_incoming_and_dead_stores_and_keeps_the_live_ones(tmp_path):
    registry = SessionRegistry(state_dir=tmp_path)
    live = [_ingest(registry, 2, name).snapshot_payload() for name in ("a", "b")]
    _ingest(registry, 1, "gone")
    _ingest(registry, 3, "half")
    store = tmp_path / "store"
    # A delete that was acknowledged (renamed away) and a create or
    # transfer that never was (not yet renamed into place).
    os.rename(store / "gone", store / ".dead-gone")
    os.rename(store / "half", store / ".incoming-half")
    shutil.copytree(store / "a", store / ".incoming-a")

    reloaded = SessionRegistry(state_dir=tmp_path)
    assert reloaded.load_state() == ["a", "b"]
    assert sorted(path.name for path in store.iterdir()) == ["a", "b"]
    assert [reloaded.get(name).snapshot_payload() for name in ("a", "b")] == live


def test_boot_puts_an_old_copy_back_only_when_its_name_is_missing(tmp_path):
    registry = SessionRegistry(state_dir=tmp_path)
    kept = _ingest(registry, 3, "a").snapshot_payload()
    old = _ingest(registry, 1, "b").snapshot_payload()
    store = tmp_path / "store"
    # "a" was replaced and its successor renamed in; "b" was moved aside
    # but its successor never got in place.
    shutil.copytree(store / "b", store / ".old-a")
    os.rename(store / "b", store / ".old-b")

    reloaded = SessionRegistry(state_dir=tmp_path)
    assert reloaded.load_state() == ["a", "b"]
    assert sorted(path.name for path in store.iterdir()) == ["a", "b"]
    assert [reloaded.get(name).snapshot_payload() for name in ("a", "b")] == [kept, old]


def _archive(state_dir, count):
    """The store archive a migration source streams for ``count`` chunks."""
    served = _ingest(SessionRegistry(state_dir=state_dir), count)
    with served.store_archive() as (header, files, _):
        return b"".join(iter_archive(header, files))


def _expected_snapshot(count):
    """Exact snapshot bytes of a never-persisted ``s`` after ``count`` chunks."""
    return dumps_result(_ingest(SessionRegistry(), count).snapshot_payload())


def _store_entries(state_dir):
    return sorted(path.name for path in (state_dir / "store").iterdir())


def created(registry, tmp_path):
    registry.create("s", "value", estimator="bucket/frequency")
    return registry


def ingested(registry, tmp_path):
    _ingest(registry, 3)
    return registry


def sealed(registry, tmp_path):
    _ingest(registry, 3)
    registry.save_state()
    return registry


def sealed_with_tail(registry, tmp_path):
    served = _ingest(registry, 2)
    registry.save_state()
    served.ingest(make_observations(CHUNKS[2]))
    return registry


def pushed(registry, tmp_path):
    registry.restore_session("s", _snapshot(3))
    return registry


def migrated(registry, tmp_path):
    registry.restore_store("s", io.BytesIO(_archive(tmp_path / "source", 3)).read)
    return registry


def replaced(registry, tmp_path):
    _ingest(registry, 1)
    registry.restore_session("s", _snapshot(3))
    return registry


def reloaded(registry, tmp_path):
    sealed_with_tail(registry, tmp_path)
    fresh = SessionRegistry(state_dir=tmp_path / "state")
    assert fresh.load_state() == ["s"]
    return fresh


#: how the session to delete came to be -> a builder returning its registry
ORIGINS = {
    "created": created,
    "ingested": ingested,
    "sealed": sealed,
    "sealed+tail": sealed_with_tail,
    "pushed": pushed,
    "migrated": migrated,
    "replaced": replaced,
    "reloaded": reloaded,
}


@pytest.mark.parametrize("origin", list(ORIGINS))
def test_delete_leaves_no_trace(tmp_path, origin):
    state = tmp_path / "state"
    registry = ORIGINS[origin](SessionRegistry(state_dir=state), tmp_path)
    registry.remove("s")
    assert sorted(path.name for path in state.iterdir()) == ["store"]
    assert _store_entries(state) == []
    assert SessionRegistry(state_dir=state).load_state() == []

    # A session created under the same name inherits nothing.
    created(registry, tmp_path)
    rebooted = SessionRegistry(state_dir=state)
    assert rebooted.load_state() == ["s"]
    assert dumps_result(rebooted.get("s").snapshot_payload()) == _expected_snapshot(0)


@pytest.mark.parametrize("origin", ["replaced", "deleted"])
def test_an_ingest_through_a_retired_session_is_refused(tmp_path, origin):
    registry = SessionRegistry(state_dir=tmp_path)
    stale = _ingest(registry, 1)
    if origin == "replaced":
        registry.restore_session("s", _snapshot(3))
    else:
        registry.remove("s")
    with pytest.raises(UnknownSessionError):
        stale.ingest(make_observations(CHUNKS[1]))

    rebooted = SessionRegistry(state_dir=tmp_path)
    if origin == "replaced":
        assert rebooted.load_state() == ["s"]
        snapshot = dumps_result(rebooted.get("s").snapshot_payload())
        assert snapshot == _expected_snapshot(3)
    else:
        assert rebooted.load_state() == []


class Crash(BaseException):
    """Stands in for a SIGKILL at the broken step (no handler catches it)."""


def crash_at_rename(target, *, done):
    """Break the rename whose destination is ``store/<target>``.

    ``done=False`` dies before the rename, ``done=True`` right after it.
    """

    def install(monkeypatch):
        real = os.rename

        def rename(src, dst):
            if Path(dst).name != target:
                return real(src, dst)
            if done:
                real(src, dst)
            raise Crash(f"rename to {target}")

        monkeypatch.setattr(os, "rename", rename)

    return install


def crash_at_rmtree(target, *, unlink_first=()):
    """Break the removal of ``store/<target>``, after unlinking some files."""

    def install(monkeypatch):
        real = shutil.rmtree

        def rmtree(path, *args, **kwargs):
            if Path(path).name != target:
                return real(path, *args, **kwargs)
            for filename in unlink_first:
                os.unlink(Path(path) / filename)
            raise Crash(f"rmtree of {target}")

        monkeypatch.setattr(shutil, "rmtree", rmtree)

    return install


def create_call(registry, tmp_path):
    return lambda: registry.create("s", "value", estimator="bucket/frequency")


def push_call(registry, tmp_path):
    payload = _snapshot(3)
    return lambda: registry.restore_session("s", payload)


def migrate_call(registry, tmp_path):
    body = _archive(tmp_path / "source", 3)
    return lambda: registry.restore_store("s", io.BytesIO(body).read)


def replace_call(registry, tmp_path):
    _ingest(registry, 1)
    return push_call(registry, tmp_path)


def replace_by_migration_call(registry, tmp_path):
    _ingest(registry, 1)
    return migrate_call(registry, tmp_path)


def delete_call(registry, tmp_path):
    _ingest(registry, 3)
    return lambda: registry.remove("s")


#: window -> (the call to cut, where it is cut, chunks of ``s`` at boot or None)
WINDOWS = {
    "create-before-rename": (create_call, crash_at_rename("s", done=False), None),
    "create-after-rename": (create_call, crash_at_rename("s", done=True), 0),
    "push-before-rename": (push_call, crash_at_rename("s", done=False), None),
    "push-after-rename": (push_call, crash_at_rename("s", done=True), 3),
    "migrate-before-rename": (migrate_call, crash_at_rename("s", done=False), None),
    "migrate-after-rename": (migrate_call, crash_at_rename("s", done=True), 3),
    # A replaced copy waits in store/.old-s until its successor is in place.
    "replace-before-set-aside": (
        replace_call,
        crash_at_rename(".old-s", done=False),
        1,
    ),
    "replace-before-rename": (replace_call, crash_at_rename("s", done=False), 1),
    "replace-after-rename": (replace_call, crash_at_rename("s", done=True), 3),
    "replace-before-rmtree": (replace_call, crash_at_rmtree(".old-s"), 3),
    "migrate-replace-before-rename": (
        replace_by_migration_call,
        crash_at_rename("s", done=False),
        1,
    ),
    "migrate-replace-after-rename": (
        replace_by_migration_call,
        crash_at_rename("s", done=True),
        3,
    ),
    "delete-before-rename": (delete_call, crash_at_rename(".dead-s", done=False), 3),
    "delete-before-rmtree": (delete_call, crash_at_rmtree(".dead-s"), None),
    "delete-mid-rmtree": (
        delete_call,
        crash_at_rmtree(".dead-s", unlink_first=("manifest.json", "active.seg")),
        None,
    ),
}


@pytest.mark.parametrize("window", list(WINDOWS))
def test_a_cut_lifecycle_call_boots_to_one_side_of_its_rename(
    tmp_path, monkeypatch, window
):
    setup, cut, chunks = WINDOWS[window]
    state = tmp_path / "state"
    call = setup(SessionRegistry(state_dir=state), tmp_path)
    cut(monkeypatch)
    with pytest.raises(Crash):
        call()
    monkeypatch.undo()

    rebooted = SessionRegistry(state_dir=state)
    expected = [] if chunks is None else ["s"]
    assert rebooted.load_state() == expected
    assert _store_entries(state) == expected
    if chunks is not None:
        snapshot = dumps_result(rebooted.get("s").snapshot_payload())
        assert snapshot == _expected_snapshot(chunks)


def test_serve_refuses_a_memory_format_state_dir_and_keeps_it(tmp_path):
    memory_checkpoint_with_tail(tmp_path)
    before = _tree(tmp_path)
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
    assert "of an earlier version's layout" in proc.stderr
    assert _tree(tmp_path) == before
