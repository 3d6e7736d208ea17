"""Unit tests of the columnar segment log: framing, torn tails, sealing."""

from __future__ import annotations

import os
import zlib

import numpy as np
import pytest

from repro.resilience.faults import InjectedFaultError, arm, disarm
from repro.storage import segments as segments_module
from repro.storage.segments import (
    FRAME_OBSERVATIONS,
    FRAME_SEED,
    SegmentCorruptionError,
    SegmentLog,
    decode_names,
    encode_frame,
    encode_names,
    encode_seed_frame,
    read_frames,
    scan_frames,
    segment_name,
)
from repro.utils.exceptions import ValidationError


def make_frame(version, n, offset=0, **names):
    """A deterministic observation frame with ``n`` rows."""
    entity = np.arange(offset, offset + n, dtype="<u4")
    source = np.arange(n, dtype="<u4") % 3
    values = np.linspace(0.5, 9.5, n)
    sequences = np.arange(n, dtype="<i8") - 1
    flags = (np.arange(n) % 2).astype("u1")
    return encode_frame(version, entity, source, values, sequences, flags, **names)


#: Names with multi-byte UTF-8, an empty-looking one and separators.
NAMES = {
    "new_entities": ["a", "ünïcödé", "x\ny", "名前", " "],
    "new_sources": ["s1", "s\x002"],
}


def payload_of(frame: bytes) -> bytes:
    return frame[8:]


def reframe(payload: bytes) -> bytes:
    """``payload`` behind a header whose length and CRC match it."""
    return len(payload).to_bytes(4, "big") + zlib.crc32(payload).to_bytes(4, "big") + payload


class TestFraming:
    def test_roundtrip_preserves_every_column(self):
        raw = make_frame(7, 5, offset=10)
        frames, clean = scan_frames(raw)
        assert clean == len(raw)
        (frame,) = frames
        assert frame.kind == FRAME_OBSERVATIONS
        assert frame.state_version == 7
        assert frame.n_rows == 5
        assert frame.entity_idx.tolist() == [10, 11, 12, 13, 14]
        assert frame.source_idx.tolist() == [0, 1, 2, 0, 1]
        assert frame.values.tolist() == pytest.approx(
            np.linspace(0.5, 9.5, 5).tolist()
        )
        assert frame.sequences.tolist() == [-1, 0, 1, 2, 3]
        assert frame.flags.tolist() == [0, 1, 0, 1, 0]

    def test_column_dtypes_are_fixed_width_little_endian(self):
        frames, _ = scan_frames(make_frame(1, 3))
        (frame,) = frames
        assert frame.entity_idx.dtype == np.dtype("<u4")
        assert frame.source_idx.dtype == np.dtype("<u4")
        assert frame.values.dtype == np.dtype("<f8")
        assert frame.sequences.dtype == np.dtype("<i8")
        assert frame.flags.dtype == np.dtype("u1")

    def test_seed_frame_roundtrip(self):
        seed = {"counts": {"a": 2}, "n": 2}
        frames, clean = scan_frames(encode_seed_frame(4, seed))
        (frame,) = frames
        assert clean > 0
        assert frame.kind == FRAME_SEED
        assert frame.state_version == 4
        assert frame.n_rows == 0
        assert frame.seed == seed

    def test_name_blocks_roundtrip_with_the_rows(self):
        raw = make_frame(3, 4, **NAMES)
        frames, clean = scan_frames(raw)
        assert clean == len(raw)
        (frame,) = frames
        assert frame.new_entities == NAMES["new_entities"]
        assert frame.new_sources == NAMES["new_sources"]
        assert frame.entity_idx.tolist() == [0, 1, 2, 3]
        assert frame.sequences.tolist() == [-1, 0, 1, 2]

    def test_a_frame_without_new_names_has_empty_blocks(self):
        (frame,), _ = scan_frames(make_frame(1, 2))
        assert frame.new_entities == [] and frame.new_sources == []

    def test_name_codec_roundtrip_at_an_offset(self):
        block = encode_names(NAMES["new_entities"])
        names, end = decode_names(b"pad" + block + b"rest", 3)
        assert names == NAMES["new_entities"]
        assert end == 3 + len(block)
        assert decode_names(encode_names([]), 0) == ([], 4)

    def test_concatenated_frames_parse_in_order(self):
        raw = make_frame(1, 2) + make_frame(2, 3) + make_frame(3, 1)
        frames, clean = scan_frames(raw)
        assert clean == len(raw)
        assert [f.state_version for f in frames] == [1, 2, 3]
        assert [f.n_rows for f in frames] == [2, 3, 1]


class TestTornTails:
    def test_torn_payload_stops_at_last_clean_boundary(self):
        good = make_frame(1, 4)
        raw = good + make_frame(2, 4)[:-3]
        frames, clean = scan_frames(raw)
        assert [f.state_version for f in frames] == [1]
        assert clean == len(good)

    def test_torn_header_stops_at_last_clean_boundary(self):
        good = make_frame(1, 4)
        frames, clean = scan_frames(good + b"\x00\x01\x02")
        assert len(frames) == 1
        assert clean == len(good)

    def test_corrupt_crc_stops_the_scan(self):
        good = make_frame(1, 4)
        bad = bytearray(make_frame(2, 4))
        bad[-1] ^= 0xFF  # flip one payload byte; the CRC no longer matches
        frames, clean = scan_frames(good + bytes(bad))
        assert [f.state_version for f in frames] == [1]
        assert clean == len(good)

    def test_absurd_length_header_is_treated_as_tail(self):
        good = make_frame(1, 2)
        garbage = b"\xff\xff\xff\xff" + b"\x00" * 10
        frames, clean = scan_frames(good + garbage)
        assert len(frames) == 1
        assert clean == len(good)

    def test_torn_name_block_is_a_tail(self):
        good = make_frame(1, 2, **NAMES)
        torn = make_frame(2, 2, **NAMES)[:8 + 13 + 10]  # inside the names
        frames, clean = scan_frames(good + torn)
        assert [f.state_version for f in frames] == [1]
        assert clean == len(good)

    @pytest.mark.parametrize(
        "damage",
        ["count-overruns", "length-overruns", "not-utf8", "length-shrinks"],
    )
    def test_corrupt_name_block_under_a_valid_crc_is_a_tail(self, damage):
        good = make_frame(1, 2, **NAMES)
        payload = bytearray(payload_of(make_frame(2, 1, new_entities=["ab"])))
        # meta (13 bytes), then the entity block: count, length, "ab".
        if damage == "count-overruns":
            payload[13:17] = (1 << 30).to_bytes(4, "little")
        elif damage == "length-overruns":
            payload[17:21] = (1 << 20).to_bytes(4, "little")
        elif damage == "not-utf8":
            payload[21:23] = b"\xff\xfe"
        else:
            # "b" then starts the source block, whose count overruns.
            payload[17:21] = (1).to_bytes(4, "little")
        frames, clean = scan_frames(good + reframe(bytes(payload)))
        assert [f.state_version for f in frames] == [1]
        assert clean == len(good)

    def test_empty_input_is_no_frames(self):
        assert scan_frames(b"") == ([], 0)

    def test_garbage_without_a_frame_has_clean_offset_zero(self):
        assert scan_frames(b"garbage that is no header") == ([], 0)

    def test_corruption_mid_stream_drops_everything_after_it(self):
        first, second, third = make_frame(1, 2), make_frame(2, 2), make_frame(3, 2)
        raw = bytearray(first + second + third)
        raw[len(first) + 12] ^= 0xFF  # inside the second frame's payload
        frames, clean = scan_frames(bytes(raw))
        # The clean third frame is indistinguishable from a torn tail.
        assert [f.state_version for f in frames] == [1]
        assert clean == len(first)


class TestFrameBound:
    def test_writer_and_reader_agree_at_the_bound(self, monkeypatch):
        seed = {"pad": "x" * 40}
        at_bound = len(encode_seed_frame(1, seed)) - 8  # less the header
        monkeypatch.setattr(segments_module, "_MAX_FRAME_BYTES", at_bound)
        raw = encode_seed_frame(1, seed)
        frames, clean = scan_frames(raw)
        assert [f.seed for f in frames] == [seed]
        assert clean == len(raw)

    def test_a_frame_over_the_bound_is_never_encoded(self, monkeypatch):
        monkeypatch.setattr(segments_module, "_MAX_FRAME_BYTES", 64)
        with pytest.raises(ValidationError, match="64-byte frame bound"):
            encode_seed_frame(1, {"pad": "x" * 64})
        with pytest.raises(ValidationError, match="64-byte frame bound"):
            make_frame(1, 3)  # 13 + 3 * 25 payload bytes


class TestSegmentLog:
    def test_recover_active_truncates_torn_tail(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="never")
        log.append(make_frame(1, 3), 3)
        log.append(make_frame(2, 2), 2)
        log.close()
        raw = log.active_path.read_bytes()
        log.active_path.write_bytes(raw + make_frame(3, 2)[:-5])

        recovered = SegmentLog(tmp_path, fsync="never")
        frames = recovered.recover_active()
        assert [f.state_version for f in frames] == [1, 2]
        assert recovered.active_rows == 5
        assert recovered.active_path.read_bytes() == raw  # tail gone

    def test_recover_active_keeps_a_clean_segment_as_it_is(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="never")
        for version in (1, 2, 3):
            log.append(make_frame(version, 2), 2)
        log.close()
        raw = log.active_path.read_bytes()

        recovered = SegmentLog(tmp_path, fsync="never")
        assert [f.state_version for f in recovered.recover_active()] == [1, 2, 3]
        assert recovered.active_rows == 6
        assert recovered.active_path.read_bytes() == raw

    def test_recover_active_without_an_active_segment_is_empty(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="never")
        assert log.recover_active() == []
        assert log.active_rows == 0
        assert not log.active_path.exists()
        assert log.seal(1) is None

    @pytest.mark.parametrize(
        "tail",
        [
            pytest.param(lambda frame: frame[:5], id="torn-header"),
            pytest.param(
                lambda frame: frame[:-1] + bytes([frame[-1] ^ 0xFF]),
                id="corrupt-crc",
            ),
            pytest.param(
                lambda frame: b"\xff\xff\xff\xff" + frame[4:], id="absurd-length"
            ),
        ],
    )
    def test_recover_active_truncates_a_bad_last_frame(self, tmp_path, tail):
        log = SegmentLog(tmp_path, fsync="never")
        log.append(make_frame(1, 3), 3)
        log.close()
        raw = log.active_path.read_bytes()
        log.active_path.write_bytes(raw + tail(make_frame(2, 2)))

        recovered = SegmentLog(tmp_path, fsync="never")
        assert [f.state_version for f in recovered.recover_active()] == [1]
        assert recovered.active_path.read_bytes() == raw

    def test_mid_segment_corruption_truncates_the_rest(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="never")
        first = make_frame(1, 2)
        log.append(first, 2)
        log.append(make_frame(2, 2), 2)
        log.append(make_frame(3, 2), 2)
        log.close()
        raw = bytearray(log.active_path.read_bytes())
        raw[len(first) + 12] ^= 0xFF  # inside the second frame
        log.active_path.write_bytes(bytes(raw))

        recovered = SegmentLog(tmp_path, fsync="never")
        assert [f.state_version for f in recovered.recover_active()] == [1]
        # The next append lands right after the clean prefix.
        recovered.append(make_frame(4, 1), 1)
        recovered.close()
        assert [f.state_version for f in read_frames(recovered.active_path)] == [1, 4]

    def test_seal_after_recovery_reports_the_clean_prefix(self, tmp_path):
        first, second = make_frame(1, 3), make_frame(2, 2)
        log = SegmentLog(tmp_path, fsync="never")
        log.append(first, 3)
        log.append(second, 2)
        log.close()
        log.active_path.write_bytes(first + second + make_frame(3, 4)[:-2])

        recovered = SegmentLog(tmp_path, fsync="never")
        recovered.recover_active()
        assert recovered.seal(1) == {
            "segment": segment_name(1),
            "frames": 2,
            "rows": 5,
            "bytes": len(first) + len(second),
            "crc": zlib.crc32(first + second),
        }

    def test_recover_active_reads_only_frames_after_the_last_seal(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="never")
        log.append(make_frame(1, 2), 2)
        log.seal(1)
        log.append(make_frame(2, 3), 3)
        log.close()

        recovered = SegmentLog(tmp_path, fsync="never")
        assert [f.state_version for f in recovered.recover_active()] == [2]
        assert recovered.active_rows == 3

    def test_append_after_recovery_extends_cleanly(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="never")
        log.append(make_frame(1, 3), 3)
        log.close()
        raw = log.active_path.read_bytes()
        log.active_path.write_bytes(raw + b"\x01\x02\x03")

        recovered = SegmentLog(tmp_path, fsync="never")
        recovered.recover_active()
        recovered.append(make_frame(2, 1), 1)
        recovered.close()
        frames, clean = scan_frames(recovered.active_path.read_bytes())
        assert [f.state_version for f in frames] == [1, 2]
        assert clean == recovered.active_path.stat().st_size

    def test_a_refused_append_leaves_the_file_and_counters_as_they_were(
        self, tmp_path
    ):
        log = SegmentLog(tmp_path, fsync="never")
        first = make_frame(1, 2, new_entities=["a", "b"])
        log.append(first, 2)
        before = log.stats()
        arm("storage.after_frame:raise")
        try:
            with pytest.raises(InjectedFaultError):
                log.append(make_frame(2, 3, new_entities=["c"]), 3)
        finally:
            disarm()
        assert log.active_path.read_bytes() == first
        assert log.stats() == before
        log.append(make_frame(2, 1), 1)
        entry = log.seal(1)
        frames = read_frames(tmp_path / segment_name(1), sealed=True)
        assert [f.state_version for f in frames] == [1, 2]
        assert [f.new_entities for f in frames] == [["a", "b"], []]
        assert entry["frames"] == 2 and entry["rows"] == 3

    def test_seal_renames_and_reports_exact_entry(self, tmp_path):
        import zlib

        log = SegmentLog(tmp_path, fsync="never")
        first, second = make_frame(1, 3), make_frame(2, 2)
        log.append(first, 3)
        log.append(second, 2)
        entry = log.seal(1)
        assert entry == {
            "segment": segment_name(1),
            "frames": 2,
            "rows": 5,
            "bytes": len(first) + len(second),
            "crc": zlib.crc32(first + second),
        }
        sealed = tmp_path / segment_name(1)
        assert sealed.is_file()
        assert not log.active_path.exists()
        assert log.active_rows == 0
        assert [f.state_version for f in read_frames(sealed, sealed=True)] == [1, 2]

    def test_seal_with_empty_active_returns_none(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="never")
        assert log.seal(1) is None
        assert not (tmp_path / segment_name(1)).exists()

    def test_sealed_segments_sort_by_index(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="never")
        for index in (1, 2, 10):
            log.append(make_frame(index, 1), 1)
            log.seal(index)
        names = [p.name for p in log.sealed_segments()]
        assert names == [segment_name(1), segment_name(2), segment_name(10)]

    def test_sealed_read_rejects_trailing_garbage(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="never")
        log.append(make_frame(1, 2), 2)
        log.seal(1)
        sealed = tmp_path / segment_name(1)
        sealed.write_bytes(sealed.read_bytes() + b"\x00garbage")
        with pytest.raises(SegmentCorruptionError, match="corrupt at byte"):
            read_frames(sealed, sealed=True)

    def test_read_frames_missing_file_is_empty(self, tmp_path):
        assert read_frames(tmp_path / "nope.seg") == []

    def test_batch_policy_counts_syncs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(segments_module, "BATCH_EVERY", 2)
        log = SegmentLog(tmp_path, fsync="batch")
        log.append(make_frame(1, 1), 1)
        assert log.stats()["syncs"] == 0
        log.append(make_frame(2, 1), 1)
        stats = log.stats()
        assert stats["syncs"] == 1
        assert stats["unsynced"] == 0
        assert stats["appends"] == 2
        log.close()

    def test_always_policy_syncs_every_append(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="always")
        log.append(make_frame(1, 1), 1)
        log.append(make_frame(2, 1), 1)
        assert log.stats()["syncs"] == 2
        log.close()

    @pytest.mark.parametrize(
        ("policy", "due"),
        [
            pytest.param("always", [True, True, True], id="always"),
            pytest.param("batch", [False, True, False], id="batch"),
            pytest.param("never", [False, False, False], id="never"),
        ],
    )
    def test_sync_due_follows_the_policy(self, tmp_path, monkeypatch, policy, due):
        monkeypatch.setattr(segments_module, "BATCH_EVERY", 2)
        log = SegmentLog(tmp_path, fsync=policy)
        seen = []
        for version in (1, 2, 3):
            seen.append(log.sync_due())
            log.append(make_frame(version, 1), 1)
        assert seen == due
        log.release()

    def test_release_closes_without_any_fsync(self, tmp_path, monkeypatch):
        log = SegmentLog(tmp_path, fsync="batch")
        log.append(make_frame(1, 2), 2)
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        log.release()
        assert synced == []
        # Flushed to the OS at append, so the frame is there regardless.
        assert [frame.n_rows for frame in read_frames(log.active_path)] == [2]

    def test_close_fsyncs_the_unsynced_tail_and_its_new_entry(
        self, tmp_path, monkeypatch
    ):
        log = SegmentLog(tmp_path, fsync="batch")
        log.append(make_frame(1, 2), 2)
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        log.close()
        assert synced == [log.active_path.stat().st_ino, tmp_path.stat().st_ino]

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown fsync policy"):
            SegmentLog(tmp_path, fsync="sometimes")

    def test_default_policy_is_batch(self, tmp_path):
        log = SegmentLog(tmp_path)
        assert log.fsync_policy == "batch"

    def test_never_still_flushes_to_the_os(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="never")
        log.append(make_frame(1, 2), 2)
        # Bytes are in the page cache with the handle still open: another
        # reader sees the whole frame (this is what makes the policy
        # SIGKILL-safe, if not power-loss-safe).
        assert [frame.n_rows for frame in read_frames(log.active_path)] == [2]
        assert log.stats()["syncs"] == 0
        log.close()

    def test_forced_sync_overrides_batching(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="batch")
        log.append(encode_seed_frame(1, {}), 0, sync=True)
        assert log.stats()["syncs"] == 1
        log.close()

    def test_stats_surface(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="never")
        frame = make_frame(1, 3)
        log.append(frame, 3)
        assert log.stats() == {
            "appends": 1,
            "syncs": 0,
            "unsynced": 1,
            "active_frames": 1,
            "active_rows": 3,
            "active_bytes": len(frame),
            "fsync_policy": "never",
        }
        log.close()
