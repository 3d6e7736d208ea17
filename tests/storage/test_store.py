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

import pytest

from repro.api.session import OpenWorldSession
from repro.resilience.faults import InjectedFaultError, arm, disarm
from repro.storage import store as store_module
from repro.storage.store import DiskStore
from repro.storage.layout import StorageError
from repro.utils.exceptions import ValidationError
from storage_helpers import (
    ATTRIBUTE,
    CHUNKS,
    ESTIMATOR,
    assert_same_surfaces,
    disk_session,
    eager_invariants,  # noqa: F401 - a fixture
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

    @pytest.mark.usefixtures("eager_invariants")
    def test_counters_match_without_materializing(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        session.store.seal()
        session.close()
        store = DiskStore(tmp_path / "store")
        oracle = memory_session(CHUNKS)
        assert not store.materialized
        assert store.n == oracle.n
        assert store.c == oracle.c
        assert store.n_sources == oracle.n_sources
        assert not store.materialized  # counters came from the mmap meta
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


@pytest.mark.usefixtures("eager_invariants")
class TestRecovery:
    def test_torn_active_tail_loses_exactly_the_torn_chunk(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        session.close()
        active = tmp_path / "store" / "active.seg"
        active.write_bytes(active.read_bytes()[:-5])
        # Simulate power loss: the invariant meta that absorbed the torn
        # chunk did not survive either, so the segments are authoritative.
        os.unlink(tmp_path / "store" / "meta.bin")
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        assert attached.state_version == len(CHUNKS) - 1
        assert_same_surfaces(attached, memory_session(CHUNKS[:-1]))

    def test_meta_ahead_of_a_torn_tail_is_rebuilt_from_the_log(self, tmp_path):
        # A power loss can keep the meta page of a chunk whose frame it
        # tore.  Trusting the arrays would serve the chunk, log the next
        # one after a gap, and lose it at any later rebuild; the log is
        # authoritative, so attach loses exactly the torn chunk.
        session = disk_session(tmp_path / "store", CHUNKS)
        session.close()
        active = tmp_path / "store" / "active.seg"
        active.write_bytes(active.read_bytes()[:-5])
        store = DiskStore(tmp_path / "store")
        assert store.materialized  # rebuilt at attach
        attached = OpenWorldSession.attach(store)
        assert attached.state_version == len(CHUNKS) - 1
        assert_same_surfaces(attached, memory_session(CHUNKS[:-1]))
        attached.ingest(observations(CHUNKS[-1]))  # the client resends it
        attached.close()
        # A forced rebuild from the log agrees with what was served.
        meta = tmp_path / "store" / "meta.bin"
        raw = bytearray(meta.read_bytes())
        raw[3] ^= 0xFF
        meta.write_bytes(bytes(raw))
        rebuilt = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        assert rebuilt.state_version == len(CHUNKS)
        assert rebuilt.n == memory_session(CHUNKS).n
        assert_same_surfaces(rebuilt, memory_session(CHUNKS))

    def test_applying_flag_forces_rebuild_from_segments(self, tmp_path):
        from repro.storage.invariants import InvariantStore

        session = disk_session(tmp_path / "store", CHUNKS)
        session.close()
        # A crash between begin_apply and commit leaves the flag raised.
        invariants = InvariantStore(tmp_path / "store")
        invariants.begin_apply()
        invariants.close()
        store = DiskStore(tmp_path / "store")
        attached = OpenWorldSession.attach(store)
        assert attached.state_version == len(CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))
        # The rebuild rewrote the arrays and cleared the flag: a second
        # attach takes the fast path again.
        attached.close()
        fresh = DiskStore(tmp_path / "store")
        assert not fresh.materialized
        fresh.close()

    def test_corrupt_meta_forces_rebuild_from_segments(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        session.close()
        meta = tmp_path / "store" / "meta.bin"
        raw = bytearray(meta.read_bytes())
        raw[3] ^= 0xFF  # fails the CRC check
        meta.write_bytes(bytes(raw))
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        assert attached.state_version == len(CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))

    def test_orphan_sealed_segment_is_adopted(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        arm("storage.after_seal:raise")
        with pytest.raises(InjectedFaultError):
            session.store.seal()  # renamed, but the manifest write was lost
        disarm()
        session.close()
        sealed = tmp_path / "store" / "seg-00000001.seg"
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
        assert [e["segment"] for e in manifest["sealed"]] == [sealed.name]
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

    def test_data_without_manifest_or_invariants_fails_loudly(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        session.close()
        os.unlink(tmp_path / "store" / "manifest.json")
        os.unlink(tmp_path / "store" / "meta.bin")
        with pytest.raises(StorageError, match="no manifest"):
            DiskStore(tmp_path / "store")


class TestInvariantFiles:
    """A store writes invariant files only once its log is large."""

    def test_small_store_keeps_none_and_rebuilds_at_attach(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        session.store.seal()
        session.close()
        assert not (tmp_path / "store" / "meta.bin").exists()
        store = DiskStore(tmp_path / "store")
        assert store.materialized  # rebuilt from the log at attach
        attached = OpenWorldSession.attach(store)
        assert attached.state_version == len(CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))
        manifest = store._layout.read_manifest()
        assert manifest["state_version"] == len(CHUNKS)
        assert manifest["n"] == memory_session(CHUNKS).n

    def test_files_appear_at_the_threshold_and_are_then_trusted(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(store_module, "_INVARIANT_ROWS", 6)
        session = disk_session(tmp_path / "store", CHUNKS[:1])  # 3 rows
        assert not (tmp_path / "store" / "meta.bin").exists()
        for chunk in CHUNKS[1:]:
            session.ingest(observations(chunk))
        session.close()
        store = DiskStore(tmp_path / "store")
        assert store._invariants.meta["state_version"] == len(CHUNKS)
        assert not store.materialized  # O(1) attach on the arrays
        attached = OpenWorldSession.attach(store)
        assert_same_surfaces(attached, memory_session(CHUNKS))


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
