"""The fsyncs the ``batch`` and ``always`` guarantees depend on, in order.

An ``os.fsync`` spy records the inode of every synced file or directory.
A created or renamed file or directory is only durable once its parent
directory is fsynced.  A segment frame carries the names it introduces,
so an ingest fsyncs nothing but ``active.seg`` (and, once, its
directory entry).  A seal makes the same fsyncs under every policy.  A
store on its way out (deleted, or replaced by a newer copy) is closed
without any fsync of its own files.
"""

from __future__ import annotations

import io
import os

import pytest

from storage_helpers import ATTRIBUTE, CHUNKS, ESTIMATOR, observations
from storage_helpers import early_seals  # noqa: F401 - a fixture
from repro.api.session import OpenWorldSession
from repro.serving.registry import SessionRegistry
from repro.storage import segments
from repro.storage.layout import StoreLayout
from repro.storage.transfer import iter_archive
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
    def test_active_segment_recreated_after_a_seal(
        self, tmp_path, synced, monkeypatch, policy
    ):
        monkeypatch.setattr(segments, "BATCH_EVERY", 1)
        log = SegmentLog(tmp_path, fsync=policy)
        log.append(encode_seed_frame(1, {}), 0)
        log.seal(1)
        synced.clear()
        log.append(encode_seed_frame(2, {}), 0)
        assert synced == [inode(log.active_path), inode(tmp_path)]

    def test_first_ack_under_always_syncs_only_the_new_active_segment(
        self, tmp_path, synced
    ):
        store = DiskStore(tmp_path, fsync="always")
        session = OpenWorldSession(ATTRIBUTE, estimator=ESTIMATOR, store=store)
        synced.clear()
        session.ingest(observations([("a", "s1", 1.0)]))
        # The new file, then its directory entry; the names ride in the frame.
        assert synced == [inode(tmp_path / SegmentLog.ACTIVE_NAME), inode(tmp_path)]
        session.close()


class TestSealOrder:
    # The policy governs appends only: a seal is the checkpoint, and it
    # makes the same fsyncs under ``never`` as under ``always``.
    @pytest.mark.parametrize("policy", ["always", "batch", "never"])
    def test_checkpoint_is_durable_after_the_segment_and_before_the_manifest(
        self, tmp_path, synced, policy
    ):
        store = DiskStore(tmp_path, fsync=policy)
        session = OpenWorldSession(ATTRIBUTE, estimator=ESTIMATOR, store=store)
        for chunk in CHUNKS:
            session.ingest(observations(chunk))
        synced.clear()
        assert store.seal()
        layout = StoreLayout(tmp_path)
        assert synced == [
            inode(tmp_path / "seg-00000001.seg"),
            inode(tmp_path),  # the rename
            inode(layout.checkpoint_path),
            inode(layout.manifest_path),
            inode(tmp_path),  # the manifest's replace
        ]
        session.close()


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
        # store/.incoming-s/ is made without a sync of store/: boot
        # discards it unless the rename to store/s/ became durable.
        assert synced == [
            inode(tmp_path),  # state/
            inode(state),  # store/
            inode(manifest),
            inode(store / "s"),  # the manifest
            inode(store),  # the rename to store/s/
        ]
        synced.clear()
        registry.save_state()
        assert synced == []  # nothing to seal

    @pytest.mark.parametrize("policy", ["always", "batch", "never"])
    def test_recreate_after_delete_fsyncs_only_the_new_store(
        self, tmp_path, synced, policy
    ):
        registry = SessionRegistry(state_dir=tmp_path, wal_fsync=policy)
        registry.create("s", ATTRIBUTE, estimator=ESTIMATOR)
        registry.save_state()
        registry.remove("s")
        synced.clear()
        registry.create("s", ATTRIBUTE, estimator=ESTIMATOR)
        store = tmp_path / "store"
        # The manifest's atomic write syncs under every policy; store/
        # is synced once, for the rename, unless "never".
        manifest = [inode(store / "s" / "manifest.json"), inode(store / "s")]
        if policy == "never":
            assert synced == manifest
        else:
            assert synced == [*manifest, inode(store)]

    def test_never_fsyncs_no_new_directory(self, tmp_path, synced):
        state = tmp_path / "state"
        registry = SessionRegistry(state_dir=state, wal_fsync="never")
        registry.create("s", ATTRIBUTE, estimator=ESTIMATOR)
        registry.save_state()
        for directory in (tmp_path, state, state / "store"):
            assert inode(directory) not in synced

    @pytest.mark.parametrize("policy", ["always", "batch", "never"])
    def test_same_version_push_fsyncs_and_makes_nothing(
        self, tmp_path, synced, monkeypatch, policy
    ):
        source = OpenWorldSession(ATTRIBUTE, estimator=ESTIMATOR)
        for chunk in CHUNKS:
            source.ingest(observations(chunk))
        registry = SessionRegistry(state_dir=tmp_path, wal_fsync=policy)
        registry.restore_session("s", source.snapshot().to_dict())
        made: list[str] = []

        def mkdir(path, *args, real=os.mkdir, **kwargs):
            made.append(os.fspath(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(os, "mkdir", mkdir)
        synced.clear()
        # Replace-if-newer keeps the copy at the envelope's version, and
        # decides so before seeding anything.
        kept = registry.restore_session("s", source.snapshot().to_dict())
        assert kept.state_version == len(CHUNKS)
        assert synced == []
        assert made == []
        assert [path.name for path in (tmp_path / "store").iterdir()] == ["s"]

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

    @pytest.mark.usefixtures("early_seals")
    @pytest.mark.parametrize("policy", ["always", "batch", "never"])
    def test_delete_fsyncs_only_store_before_it_returns(
        self, tmp_path, synced, policy
    ):
        registry = SessionRegistry(state_dir=tmp_path, wal_fsync=policy)
        served = registry.create("s", ATTRIBUTE, estimator=ESTIMATOR)
        for chunk in CHUNKS:  # leaves unsynced appends under batch
            served.ingest(observations(chunk))
        synced.clear()
        registry.remove("s")
        expected = [inode(tmp_path / "store")] if policy != "never" else []
        assert synced == expected
        assert list((tmp_path / "store").iterdir()) == []

    @pytest.mark.usefixtures("early_seals")
    @pytest.mark.parametrize("policy", ["always", "batch"])
    def test_replace_fsyncs_no_file_of_the_discarded_copy(
        self, tmp_path, synced, policy
    ):
        newer = OpenWorldSession(ATTRIBUTE, estimator=ESTIMATOR)
        for chunk in CHUNKS:
            newer.ingest(observations(chunk))
        registry = SessionRegistry(state_dir=tmp_path, wal_fsync=policy)
        served = registry.create("s", ATTRIBUTE, estimator=ESTIMATOR)
        for chunk in CHUNKS[:2]:
            served.ingest(observations(chunk))
        old = tmp_path / "store" / "s"
        discarded = {inode(old)} | {inode(path) for path in old.iterdir()}
        synced.clear()
        replaced = registry.restore_session("s", newer.snapshot().to_dict())
        assert replaced.state_version == len(CHUNKS)
        assert synced, "the incoming copy is made durable"
        assert not discarded & set(synced)

    @pytest.mark.usefixtures("early_seals")
    @pytest.mark.parametrize("policy", ["always", "batch"])
    def test_migration_fsyncs_no_file_of_the_discarded_copy(
        self, tmp_path, synced, policy
    ):
        source = SessionRegistry(state_dir=tmp_path / "source")
        newer = source.create("s", ATTRIBUTE, estimator=ESTIMATOR)
        for chunk in CHUNKS:
            newer.ingest(observations(chunk))
        with newer.store_archive() as (header, files, _):
            body = b"".join(iter_archive(header, files))
        state = tmp_path / "state"
        registry = SessionRegistry(state_dir=state, wal_fsync=policy)
        served = registry.create("s", ATTRIBUTE, estimator=ESTIMATOR)
        for chunk in CHUNKS[:2]:
            served.ingest(observations(chunk))
        old = state / "store" / "s"
        discarded = {inode(old)} | {inode(path) for path in old.iterdir()}
        synced.clear()
        migrated = registry.restore_store("s", io.BytesIO(body).read)
        assert migrated.state_version == len(CHUNKS)
        assert inode(state / "store") in synced  # both renames are durable
        assert not discarded & set(synced)
