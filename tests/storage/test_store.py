"""Disk-store parity and recovery against the in-memory oracle.

The contract under test: a :class:`~repro.storage.store.DiskStore`
session serves **byte-identical** payloads to a
:class:`~repro.storage.store.MemoryStore` session fed the same stream
-- including dict iteration order, which the JSON serializations
inherit -- and re-attaching the directory after a close (clean or not)
recovers exactly the durable prefix.
"""

from __future__ import annotations

import json
import os
import zlib
from unittest import mock

import pytest

from repro.api.session import OpenWorldSession
from repro.resilience.faults import InjectedFaultError, arm, disarm
from repro.storage import store as store_module
from repro.storage.store import DiskStore
from repro.storage.layout import StorageError, StoreLayout
from repro.utils.exceptions import ValidationError
from storage_helpers import (
    ATTRIBUTE,
    CHUNKS,
    ESTIMATOR,
    assert_same_surfaces,
    disk_session,
    early_seals,  # noqa: F401 - a fixture
    memory_session,
    observations,
)


@pytest.fixture(autouse=True)
def _no_armed_faults():
    disarm()
    yield
    disarm()


class TestParity:
    def test_every_surface_byte_identical(self, tmp_path):
        disk = disk_session(tmp_path / "store", CHUNKS)
        assert_same_surfaces(disk, memory_session(CHUNKS))

    def test_parity_holds_after_each_chunk(self, tmp_path):
        disk = disk_session(tmp_path / "store")
        memory = memory_session()
        for chunk in CHUNKS:
            disk.ingest(observations(chunk))
            memory.ingest(observations(chunk))
            assert_same_surfaces(disk, memory)

    def test_dict_materialization_preserves_first_seen_order(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        session.store.seal()
        session.close()
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        oracle = memory_session(CHUNKS)
        state = attached.store.state
        assert list(state.counts) == list(oracle.store.state.counts)
        assert list(state.per_source) == list(oracle.store.state.per_source)
        assert state.frequencies == oracle.store.state.frequencies

    @pytest.mark.parametrize("sealed", [True, False], ids=["checkpoint", "log"])
    def test_counters_match_without_materializing(self, tmp_path, sealed):
        session = disk_session(tmp_path / "store", CHUNKS)
        if sealed:
            session.store.seal()
        session.close()
        store = DiskStore(tmp_path / "store")
        oracle = memory_session(CHUNKS)
        assert not store.materialized
        assert store.n == oracle.n
        assert store.c == oracle.c
        assert store.n_sources == oracle.n_sources
        assert store.recovered_counters() == {
            "state_version": len(CHUNKS),
            "n_ingested": oracle.n,
        }
        assert not store.materialized  # counters came from the manifest and frames
        store.close()


class TestAttach:
    def test_attach_restores_counters_and_surfaces(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        session.store.seal()
        session.close()
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        assert attached.state_version == len(CHUNKS)
        assert attached.n_ingested == sum(len(c) for c in CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))

    def test_attach_replays_unsealed_tail(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        session.close()  # never sealed: every frame sits in active.seg
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        assert attached.state_version == len(CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))

    def test_attach_replays_tail_past_a_seal(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS[:2])
        session.store.seal()
        for chunk in CHUNKS[2:]:
            session.ingest(observations(chunk))
        session.close()  # chunks 3..4 are an unsealed tail
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        assert attached.state_version == len(CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))

    def test_attach_can_keep_ingesting(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS[:2])
        session.store.seal()
        session.close()
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        for chunk in CHUNKS[2:]:
            attached.ingest(observations(chunk))
        assert_same_surfaces(attached, memory_session(CHUNKS))

    def test_empty_store_refuses_attach(self, tmp_path):
        store = DiskStore(tmp_path / "store")
        with pytest.raises(ValidationError, match="no session state"):
            OpenWorldSession.attach(store)

    def test_nested_layout_store_is_refused_untouched(self, tmp_path):
        # repro.storage/v1 kept segments, names and invariants in
        # subdirectories; such a store is refused, not misread.
        directory = tmp_path / "store"
        (directory / "segments").mkdir(parents=True)
        (directory / "segments" / "active.seg").write_bytes(b"\0" * 7)
        (directory / "manifest.json").write_text(
            json.dumps({"schema": "repro.storage/v1", "config": {}})
        )
        before = sorted(p.name for p in directory.rglob("*"))
        with pytest.raises(StorageError, match="repro.storage/v1"):
            DiskStore(directory)
        assert sorted(p.name for p in directory.rglob("*")) == before

    def test_per_ack_array_store_is_refused_untouched(self, tmp_path):
        # repro.storage/v2 kept meta.bin and four arrays beside the log.
        session = disk_session(tmp_path / "store", CHUNKS)
        session.store.seal()
        session.close()
        directory = tmp_path / "store"
        manifest = json.loads((directory / "manifest.json").read_bytes())
        manifest["schema"] = "repro.storage/v2"
        del manifest["checkpoint"]
        (directory / "manifest.json").write_text(json.dumps(manifest))
        (directory / "checkpoint.bin").unlink()
        for name in ("meta.bin", "counts.u64", "values.f64", "sources.u64", "freq.u64"):
            (directory / name).write_bytes(b"\0" * 64)

        def files():
            return {
                path.name: (path.read_bytes(), path.stat().st_mtime_ns)
                for path in directory.iterdir()
            }

        before = files()
        with pytest.raises(StorageError, match="repro.storage/v2"):
            DiskStore(directory)
        assert files() == before

    def test_name_log_store_is_refused_untouched(self, tmp_path):
        # repro.storage/v3 kept the names in two logs beside the segments.
        session = disk_session(tmp_path / "store", CHUNKS)
        session.store.seal()
        session.close()
        directory = tmp_path / "store"
        manifest = json.loads((directory / "manifest.json").read_bytes())
        manifest["schema"] = "repro.storage/v3"
        (directory / "manifest.json").write_text(json.dumps(manifest))
        for name in ("entities.dat", "sources.dat"):
            (directory / name).write_bytes(b"\0\0\0\1a")

        def files():
            return {
                path.name: (path.read_bytes(), path.stat().st_mtime_ns)
                for path in directory.iterdir()
            }

        before = files()
        with pytest.raises(StorageError, match="repro.storage/v3"):
            DiskStore(directory)
        assert files() == before


def flip_byte(path, offset=32):
    """Flip a byte of ``path``; at 32, the first count of a checkpoint."""
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0xFF
    path.write_bytes(bytes(raw))


@pytest.mark.usefixtures("early_seals")
class TestRecovery:
    def test_torn_active_tail_loses_exactly_the_torn_chunk(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        session.close()
        active = tmp_path / "store" / "active.seg"
        active.write_bytes(active.read_bytes()[:-5])
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        assert attached.state_version == len(CHUNKS) - 1
        assert_same_surfaces(attached, memory_session(CHUNKS[:-1]))
        attached.ingest(observations(CHUNKS[-1]))  # the client resends it
        attached.close()
        # A fold of the whole log agrees with what was served.
        flip_byte(tmp_path / "store" / "checkpoint.bin")
        rebuilt = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        assert rebuilt.state_version == len(CHUNKS)
        assert_same_surfaces(rebuilt, memory_session(CHUNKS))

    def test_orphan_sealed_segment_is_adopted(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        arm("storage.after_seal:raise")
        with pytest.raises(InjectedFaultError):
            session.store.seal()  # renamed, but the manifest write was lost
        disarm()
        session.close()
        sealed = tmp_path / "store" / "seg-00000004.seg"
        assert sealed.is_file()

        store = DiskStore(tmp_path / "store")
        attached = OpenWorldSession.attach(store)
        assert attached.state_version == len(CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))
        # The next seal writes the manifest that now lists the orphan.
        assert store.seal()
        attached.close()
        final = DiskStore(tmp_path / "store")
        manifest = final._layout.read_manifest()
        assert [e["segment"] for e in manifest["sealed"]][-1] == sealed.name
        assert manifest["checkpoint"]["state_version"] == len(CHUNKS)
        final.close()

    def test_crash_before_seal_keeps_the_active_segment(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        arm("storage.before_seal:raise")
        with pytest.raises(InjectedFaultError):
            session.store.seal()
        disarm()
        session.close()
        assert (tmp_path / "store" / "active.seg").is_file()
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        assert attached.state_version == len(CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))

    def test_data_without_manifest_fails_loudly(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        session.close()
        os.unlink(tmp_path / "store" / "manifest.json")
        with pytest.raises(StorageError, match="no manifest"):
            DiskStore(tmp_path / "store")


def _refuse_after_frame(session, directory):
    arm("storage.after_frame:raise")
    with pytest.raises(InjectedFaultError):
        session.ingest(observations(CHUNKS[-1]))  # refused: its frame goes
    disarm()
    session.ingest(observations(CHUNKS[-1]))  # the client resends it


def _fail_between_checkpoint_and_manifest(session, directory):
    lost = OSError("manifest replace lost")
    with mock.patch.object(StoreLayout, "write_manifest", side_effect=lost):
        with pytest.raises(OSError, match="manifest replace lost"):
            session.store.seal()
    # The checkpoint on disk is the new one; the manifest names the old.
    manifest = json.loads((directory / "manifest.json").read_bytes())
    checkpoint = (directory / "checkpoint.bin").read_bytes()
    assert manifest["checkpoint"]["bytes"] != len(checkpoint) or (
        manifest["checkpoint"]["crc"] != zlib.crc32(checkpoint)
    )


def _flip_checkpoint_bytes(session, directory):
    session.close()
    flip_byte(directory / "checkpoint.bin")


def _name_checkpoint_at_an_older_version(session, directory):
    path = directory / "manifest.json"
    older = json.loads(path.read_bytes())["checkpoint"]
    stale = (directory / "checkpoint.bin").read_bytes()
    session.store.seal()
    session.close()
    # The new manifest lists the segment holding the last chunk, but
    # names the checkpoint of the version before it.
    manifest = json.loads(path.read_bytes())
    assert older["state_version"] < manifest["state_version"]
    manifest["checkpoint"] = older
    path.write_text(json.dumps(manifest))
    (directory / "checkpoint.bin").write_bytes(stale)


def _seal_mid_stream(session, directory):
    assert (directory / "seg-00000002.seg").is_file()
    assert json.loads((directory / "manifest.json").read_bytes())["checkpoint"][
        "state_version"
    ] == len(CHUNKS) - 1


#: Cuts past a checkpoint; TestRecovery covers the two seal fault points.
CUTS = {
    "refuse-after-frame": _refuse_after_frame,
    "fail-between-checkpoint-and-manifest": _fail_between_checkpoint_and_manifest,
    "flipped-checkpoint": _flip_checkpoint_bytes,
    "checkpoint-at-an-older-version": _name_checkpoint_at_an_older_version,
    "auto-seal-mid-stream": _seal_mid_stream,
}


@pytest.mark.usefixtures("early_seals")
class TestCheckpoint:
    """Only a seal writes the checkpoint; every cut attaches to the acked state."""

    def test_an_ingest_writes_only_the_active_segment(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "SEAL_ROWS", 1_000)
        directory = tmp_path / "store"
        session = disk_session(directory, CHUNKS)
        session.store.seal()

        def files():
            return {
                path.name: (path.stat().st_size, path.stat().st_mtime_ns)
                for path in directory.iterdir()
            }

        before = files()
        assert "checkpoint.bin" in before
        for i in range(100):  # each brings a new entity and a new source
            session.ingest(observations([(f"n{i}", f"t{i}", float(i))]))
        after = files()
        assert set(after) == set(before) | {"active.seg"}
        changed = {name for name in after if after[name] != before.get(name)}
        assert changed == {"active.seg"}
        session.close()

    @pytest.mark.parametrize("cut", sorted(CUTS))
    def test_cut_attaches_to_the_acknowledged_state(self, tmp_path, cut):
        directory = tmp_path / "store"
        session = disk_session(
            directory, CHUNKS if cut != "refuse-after-frame" else CHUNKS[:-1]
        )
        CUTS[cut](session, directory)
        session.close()
        attached = OpenWorldSession.attach(DiskStore(directory))
        assert attached.state_version == len(CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))
        # The attached store keeps ingesting and checkpoints again.
        extra = [("h", "s4", 80.0), ("a", "s4", None)]
        attached.ingest(observations(extra))
        attached.store.seal()
        attached.close()
        reattached = OpenWorldSession.attach(DiskStore(directory))
        assert not reattached.store.materialized
        assert_same_surfaces(reattached, memory_session([*CHUNKS, extra]))

    def test_unsealed_store_folds_its_log_at_first_read(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "SEAL_ROWS", 1_000)
        session = disk_session(tmp_path / "store", CHUNKS)
        session.close()
        assert not (tmp_path / "store" / "checkpoint.bin").exists()
        store = DiskStore(tmp_path / "store")
        assert not store.materialized
        attached = OpenWorldSession.attach(store)
        assert attached.state_version == len(CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))
        manifest = store._layout.read_manifest()
        assert manifest["checkpoint"] is None
        # The first seal writes the checkpoint even with nothing new to seal.
        attached.store.seal()
        manifest = store._layout.read_manifest()
        assert manifest["checkpoint"]["state_version"] == len(CHUNKS)
        assert manifest["n"] == memory_session(CHUNKS).n

    def test_store_seals_itself_at_the_threshold(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "SEAL_ROWS", 6)
        directory = tmp_path / "store"
        session = disk_session(directory, CHUNKS[:2])  # 6 rows, still active
        assert not (directory / "checkpoint.bin").exists()
        session.ingest(observations(CHUNKS[2]))  # finds 6 rows: seals first
        assert (directory / "seg-00000001.seg").is_file()
        manifest = json.loads((directory / "manifest.json").read_bytes())
        assert manifest["checkpoint"]["state_version"] == 2
        assert manifest["sealed"][0]["rows"] == 6
        session.ingest(observations(CHUNKS[3]))
        session.close()
        store = DiskStore(directory)
        assert not store.materialized  # O(1) attach on the checkpoint
        attached = OpenWorldSession.attach(store)
        assert_same_surfaces(attached, memory_session(CHUNKS))


def _fsync_fails_once(monkeypatch):
    """The next ``os.fsync`` raises; the ones after it succeed."""
    real_fsync = os.fsync
    calls = []

    def fsync(fd):
        calls.append(fd)
        if len(calls) == 1:
            raise OSError(5, "injected fsync error")
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)


#: Ways an append fails after its frame reached the file.
REFUSALS = {
    "after-frame-raise": (
        "batch",
        lambda monkeypatch: arm("storage.after_frame:raise"),
        InjectedFaultError,
    ),
    "fsync-error-under-always": ("always", _fsync_fails_once, OSError),
}


class TestRefusedAppend:
    """A refused ingest leaves no frame and no name behind."""

    @pytest.mark.parametrize("checkpoint", ["valid", "flipped"])
    @pytest.mark.parametrize("refusal", sorted(REFUSALS))
    def test_restart_serves_the_acknowledged_chunks_only(
        self, tmp_path, monkeypatch, refusal, checkpoint
    ):
        policy, fail, error = REFUSALS[refusal]
        directory = tmp_path / "store"
        session = disk_session(directory, CHUNKS[:2], fsync=policy)
        fail(monkeypatch)
        with pytest.raises(error):
            session.ingest(observations(CHUNKS[2]))
        disarm()
        monkeypatch.undo()
        session.ingest(observations(CHUNKS[3]))
        acknowledged = [CHUNKS[0], CHUNKS[1], CHUNKS[3]]
        oracle = memory_session(acknowledged)
        assert session.state_version == oracle.state_version == 3
        assert_same_surfaces(session, oracle)
        session.store.seal()
        session.close()
        if checkpoint == "flipped":
            flip_byte(directory / "checkpoint.bin")
        attached = OpenWorldSession.attach(DiskStore(directory))
        assert attached.state_version == 3
        assert_same_surfaces(attached, oracle)


class TestFailedSeal:
    @pytest.mark.parametrize("checkpoint", ["valid", "flipped"])
    def test_a_seal_failed_after_its_rename_keeps_its_segment(
        self, tmp_path, checkpoint
    ):
        directory = tmp_path / "store"
        session = disk_session(directory, CHUNKS[:2])
        session.store.seal()
        session.ingest(observations(CHUNKS[2]))
        arm("storage.after_seal:raise")
        with pytest.raises(InjectedFaultError):
            session.store.seal()  # seg-00000002.seg is renamed, not listed
        disarm()
        session.ingest(observations(CHUNKS[3]))
        session.store.seal()  # adopts it, then seals seg-00000003.seg
        assert_same_surfaces(session, memory_session(CHUNKS))
        session.close()
        manifest = json.loads((directory / "manifest.json").read_bytes())
        assert [entry["segment"] for entry in manifest["sealed"]] == [
            "seg-00000001.seg",
            "seg-00000002.seg",
            "seg-00000003.seg",
        ]
        if checkpoint == "flipped":
            flip_byte(directory / "checkpoint.bin")
        attached = OpenWorldSession.attach(DiskStore(directory))
        assert attached.state_version == len(CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))


class TestLogAlone:
    """Frames carry every name: the log rebuilds a session without a checkpoint."""

    @pytest.mark.usefixtures("early_seals")
    def test_ingested_session_rebuilds_from_its_segments(self, tmp_path):
        directory = tmp_path / "store"
        session = disk_session(directory, CHUNKS)
        session.store.seal()
        session.close()
        (directory / "checkpoint.bin").unlink()
        attached = OpenWorldSession.attach(DiskStore(directory))
        assert attached.state_version == len(CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))

    def test_restored_session_rebuilds_from_its_segments(self, tmp_path):
        directory = tmp_path / "store"
        snapshot = memory_session(CHUNKS[:2]).snapshot().to_dict()
        restored = OpenWorldSession.restore(snapshot, store=DiskStore(directory))
        assert sorted(path.name for path in directory.iterdir()) == [
            "active.seg",
            "manifest.json",
        ]
        for chunk in CHUNKS[2:]:
            restored.ingest(observations(chunk))
        restored.store.seal()
        restored.close()
        (directory / "checkpoint.bin").unlink()
        attached = OpenWorldSession.attach(DiskStore(directory))
        oracle = OpenWorldSession.restore(snapshot)
        for chunk in CHUNKS[2:]:
            oracle.ingest(observations(chunk))
        assert attached.state_version == oracle.state_version
        assert_same_surfaces(attached, oracle)


class TestSeedAdoption:
    def test_restore_into_disk_store_matches_memory(self, tmp_path):
        snapshot = memory_session(CHUNKS[:2]).snapshot().to_dict()
        restored = OpenWorldSession.restore(
            snapshot, store=DiskStore(tmp_path / "store")
        )
        oracle = OpenWorldSession.restore(snapshot)
        assert_same_surfaces(restored, oracle)
        for chunk in CHUNKS[2:]:
            restored.ingest(observations(chunk))
            oracle.ingest(observations(chunk))
        assert_same_surfaces(restored, oracle)

    def test_seed_frame_survives_reattach(self, tmp_path):
        snapshot = memory_session(CHUNKS[:2]).snapshot().to_dict()
        restored = OpenWorldSession.restore(
            snapshot, store=DiskStore(tmp_path / "store")
        )
        for chunk in CHUNKS[2:]:
            restored.ingest(observations(chunk))
        restored.store.seal()
        restored.close()
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        oracle = OpenWorldSession.restore(snapshot)
        for chunk in CHUNKS[2:]:
            oracle.ingest(observations(chunk))
        assert attached.state_version == restored.state_version
        assert_same_surfaces(attached, oracle)

    def test_load_state_refuses_a_nonempty_store(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS[:1])
        snapshot = memory_session(CHUNKS[:2]).snapshot().to_dict()
        with pytest.raises(StorageError, match="already holds state"):
            OpenWorldSession.restore(snapshot, store=session.store)

    def test_load_state_rejects_multi_attribute_samples(self, tmp_path):
        store = DiskStore(tmp_path / "store")
        store.bind_config(
            {
                "attribute": ATTRIBUTE,
                "table_name": "data",
                "estimator": ESTIMATOR,
                "count_method": "chao92",
            }
        )
        with pytest.raises(StorageError, match="exactly the session attribute"):
            store.load_state(
                counts={"a": 1},
                values={"a": {ATTRIBUTE: 1.0, "other": 2.0}},
                per_source={"s1": 1},
                frequencies={1: 1},
                n=1,
                seed_source_sizes=(),
                n_ingested=1,
                state_version=1,
            )


class TestConfigBinding:
    def test_rebinding_a_different_config_is_rejected(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS[:1])
        session.store.seal()
        session.close()
        with pytest.raises(StorageError, match="cannot re-bind"):
            OpenWorldSession(
                "other", estimator=ESTIMATOR, store=DiskStore(tmp_path / "store")
            )

    def test_estimator_instances_cannot_be_persisted(self, tmp_path):
        store = DiskStore(tmp_path / "store")
        with pytest.raises(StorageError, match="spec-string estimator"):
            store.bind_config(
                {
                    "attribute": ATTRIBUTE,
                    "table_name": "data",
                    "estimator": object(),
                    "count_method": "chao92",
                }
            )
