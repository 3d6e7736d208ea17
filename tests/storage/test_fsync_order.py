"""The fsyncs the ``batch`` and ``always`` guarantees depend on, in order.

An ``os.fsync`` spy records the inode of every synced file or directory.
A created or renamed file is only durable once its directory is fsynced,
and a durable segment frame must never reference a name a power loss can
still drop, so the name logs are fsynced before every segment fsync.
"""

from __future__ import annotations

import os

import pytest

from storage_helpers import ATTRIBUTE, ESTIMATOR, observations
from repro.api.session import OpenWorldSession
from repro.resilience.wal import WriteAheadLog
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
        active = layout.segments_dir / SegmentLog.ACTIVE_NAME
        # Each new file, then its directory entry; the names before the frame.
        assert synced[:6] == [
            inode(layout.entities_path),
            inode(layout.names_dir),
            inode(layout.sources_path),
            inode(layout.names_dir),
            inode(active),
            inode(layout.segments_dir),
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
        active = inode(StoreLayout(tmp_path).segments_dir / SegmentLog.ACTIVE_NAME)
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
