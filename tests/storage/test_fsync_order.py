"""The fsyncs the ``batch`` and ``always`` guarantees depend on, in order.

An ``os.fsync`` spy records the inode of every synced file or directory.
A created or renamed file or directory is only durable once its parent
directory is fsynced, and a durable segment frame must never reference
a name a power loss can still drop, so the name logs are fsynced before
every segment fsync.
"""

from __future__ import annotations

import os

import pytest

from storage_helpers import ATTRIBUTE, ESTIMATOR, observations
from repro.api.session import OpenWorldSession
from repro.resilience.wal import WriteAheadLog
from repro.serving.registry import SessionRegistry
from repro.storage.layout import StoreLayout
from repro.storage.names import NameLog
from repro.storage.segments import SegmentLog, encode_seed_frame
from repro.storage.store import DiskStore


@pytest.fixture
def synced(monkeypatch):
    """The inodes passed to ``os.fsync``, in call order."""
    inodes: list[int] = []
    real_fsync = os.fsync

    def spy(fd):
        inodes.append(os.fstat(fd).st_ino)
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    return inodes


def inode(path) -> int:
    return os.stat(path).st_ino


class TestDirectoryEntries:
    @pytest.mark.parametrize("policy", ["always", "batch"])
    def test_wal_rewrite_fsyncs_the_directory_after_the_rename(
        self, tmp_path, synced, policy
    ):
        log = WriteAheadLog(tmp_path / "wal" / "s.wal", fsync=policy)
        log.rewrite([{"op": "create_store"}])
        assert synced == [inode(log.path), inode(tmp_path / "wal")]

    def test_wal_rewrite_under_never_fsyncs_nothing(self, tmp_path, synced):
        WriteAheadLog(tmp_path / "s.wal", fsync="never").rewrite([{"op": "x"}])
        assert synced == []

    @pytest.mark.parametrize("policy", ["always", "batch"])
    def test_active_segment_recreated_after_a_seal(self, tmp_path, synced, policy):
        log = SegmentLog(tmp_path, fsync=policy, batch_every=1)
        log.append(encode_seed_frame(1, {}), 0)
        log.seal(1)
        synced.clear()
        log.append(encode_seed_frame(2, {}), 0)
        assert synced == [inode(log.active_path), inode(tmp_path)]

    def test_name_logs_created_under_always(self, tmp_path, synced):
        store = DiskStore(tmp_path, fsync="always")
        session = OpenWorldSession(ATTRIBUTE, estimator=ESTIMATOR, store=store)
        synced.clear()
        session.ingest(observations([("a", "s1", 1.0)]))
        layout = StoreLayout(tmp_path)
        active = tmp_path / SegmentLog.ACTIVE_NAME
        # Each new file, then its directory entry; the names before the frame.
        assert synced[:6] == [
            inode(layout.entities_path),
            inode(tmp_path),
            inode(layout.sources_path),
            inode(tmp_path),
            inode(active),
            inode(tmp_path),
        ]
        session.close()


class TestNameLogsBeforeSegments:
    @pytest.mark.parametrize("policy,batch_every", [("batch", 3), ("always", 1)])
    def test_no_segment_fsync_while_names_are_unsynced(
        self, tmp_path, monkeypatch, policy, batch_every
    ):
        events: list[tuple[str, int]] = []

        def fsync(fd, real=os.fsync):
            events.append(("fsync", os.fstat(fd).st_ino))
            real(fd)

        def append(log, entries, real=NameLog.append):
            real(log, entries)
            events.append(("append", inode(log.path)))

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(NameLog, "append", append)
        store = DiskStore(tmp_path, fsync=policy, batch_every=batch_every)
        session = OpenWorldSession(ATTRIBUTE, estimator=ESTIMATOR, store=store)
        for i in range(10):  # every chunk brings a new entity and source
            session.ingest(observations([(f"e{i}", f"s{i}", float(i))]))
        active = inode(tmp_path / SegmentLog.ACTIVE_NAME)
        session.close()
        unsynced: set[int] = set()
        segment_syncs = 0
        for kind, ino in events:
            if kind == "append":
                unsynced.add(ino)
            elif ino == active:
                assert not unsynced, "segment fsynced before the names it references"
                segment_syncs += 1
            else:
                unsynced.discard(ino)
        assert segment_syncs == 10 // batch_every + 1  # the last one at close


class TestStateDirEntries:
    """Directories a persisted registry creates or renames into place."""

    @pytest.mark.parametrize("policy", ["always", "batch"])
    def test_create_fsyncs_each_new_directory_into_its_parent(
        self, tmp_path, synced, policy
    ):
        state = tmp_path / "state"
        registry = SessionRegistry(state_dir=state, wal_fsync=policy)
        registry.create("s", ATTRIBUTE, estimator=ESTIMATOR)
        store = state / "store"
        manifest = store / "s" / "manifest.json"
        assert synced == [
            inode(tmp_path),  # state/
            inode(state),  # store/
            inode(store),  # store/s/
            inode(manifest),
            inode(store / "s"),  # the manifest
            inode(state),  # wal/
            inode(state / "wal" / "s.wal"),
            inode(state / "wal"),
        ]
        synced.clear()
        registry.save_state()
        assert synced[0] == inode(state)  # sessions/

    def test_never_fsyncs_no_new_directory(self, tmp_path, synced):
        state = tmp_path / "state"
        registry = SessionRegistry(state_dir=state, wal_fsync="never")
        registry.create("s", ATTRIBUTE, estimator=ESTIMATOR)
        registry.save_state()
        for directory in (tmp_path, state, state / "store"):
            assert inode(directory) not in synced

    @pytest.mark.parametrize("policy", ["always", "batch", "never"])
    def test_promoted_store_is_fsynced_into_store_after_the_rename(
        self, tmp_path, monkeypatch, policy
    ):
        source = OpenWorldSession(ATTRIBUTE, estimator=ESTIMATOR)
        source.ingest(observations([("a", "s1", 1.0), ("b", "s2", 2.0)]))
        events: list[tuple[str, object]] = []

        def fsync(fd, real=os.fsync):
            events.append(("fsync", os.fstat(fd).st_ino))
            real(fd)

        def rename(src, dst, real=os.rename):
            real(src, dst)
            events.append(("rename", str(dst)))

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "rename", rename)
        registry = SessionRegistry(state_dir=tmp_path, wal_fsync=policy)
        registry.restore_session("s", source.snapshot().to_dict())
        after = events[events.index(("rename", str(tmp_path / "store" / "s"))) + 1 :]
        store_synced = ("fsync", inode(tmp_path / "store")) in after[:1]
        assert store_synced == (policy != "never")

    @pytest.mark.parametrize("policy", ["always", "batch", "never"])
    @pytest.mark.parametrize("clear", ["save_state", "recreate"])
    def test_traces_are_durably_gone_before_the_tombstone(
        self, tmp_path, monkeypatch, policy, clear
    ):
        registry = SessionRegistry(state_dir=tmp_path, wal_fsync=policy)
        registry.create("s", ATTRIBUTE, estimator=ESTIMATOR)
        registry.save_state()  # a checkpoint file joins the traces
        registry.remove("s")
        events: list[object] = []

        def fsync(fd, real=os.fsync):
            events.append(os.fstat(fd).st_ino)
            real(fd)

        def unlink(path, *args, real=os.unlink, **kwargs):
            real(path, *args, **kwargs)
            if str(path).endswith(".tombstone"):
                events.append("tombstone")

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "unlink", unlink)
        if clear == "save_state":
            registry.save_state()
        else:
            registry.create("s", ATTRIBUTE, estimator=ESTIMATOR)
        before = events[: events.index("tombstone")]
        for dirname in ("wal", "store", "sessions"):
            synced_before = inode(tmp_path / dirname) in before
            assert synced_before == (policy != "never"), dirname

    @pytest.mark.parametrize("policy", ["always", "batch", "never"])
    def test_recreate_clears_the_tombstone_durably(self, tmp_path, synced, policy):
        registry = SessionRegistry(state_dir=tmp_path, wal_fsync=policy)
        registry.create("s", ATTRIBUTE, estimator=ESTIMATOR)
        registry.remove("s")
        synced.clear()
        registry.create("s", ATTRIBUTE, estimator=ESTIMATOR)
        assert not (tmp_path / "sessions" / "s.tombstone").exists()
        sessions_synced = inode(tmp_path / "sessions") in synced
        assert sessions_synced == (policy != "never")
