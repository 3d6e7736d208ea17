"""Writers refuse what their readers would drop as a corrupt tail.

The segment frame bounds the length its reader accepts, and a frame
holds the names its chunk introduces.  A longer length prefix reads as
a torn or corrupt tail and is truncated, together with everything after
it.  These tests scale the bound down and check that an ingest crossing
it, by its rows or by a long new name, fails with a client error before
anything is written, so every acknowledged version survives a restart.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from serving_helpers import make_observations
from repro.api.session import OpenWorldSession
from repro.serving.http import make_server
from repro.serving.registry import SessionRegistry
from repro.storage import segments
from repro.utils.exceptions import ValidationError

ESTIMATOR = "bucket/frequency"

#: Acknowledged chunks, ingested around the refused one.
ACKED = [
    [("a", "s1", 1.0), ("b", "s1", 2.0)],
    [("c", "s2", 3.0), ("a", "s2", 1.0)],
    [("d", "s3", 4.0)],
]


def _reference():
    session = OpenWorldSession("value", estimator=ESTIMATOR)
    for rows in ACKED:
        session.ingest(make_observations(rows))
    return session


def _refuse_between_acks(tmp_path, refused_rows):
    """Ack ACKED[0], refuse ``refused_rows``, ack the rest; then restart."""
    registry = SessionRegistry(state_dir=tmp_path)
    served = registry.create("s", "value", estimator=ESTIMATOR)
    served.ingest(make_observations(ACKED[0]))
    with pytest.raises(ValidationError, match="bound"):
        served.ingest(make_observations(refused_rows))
    assert served.state_version == 1
    for rows in ACKED[1:]:
        served.ingest(make_observations(rows))
    restarted = SessionRegistry(state_dir=tmp_path)
    assert restarted.load_state() == ["s"]
    recovered = restarted.get("s")
    reference = _reference()
    assert recovered.state_version == reference.state_version == len(ACKED)
    assert recovered.snapshot_payload() == reference.snapshot().to_dict()


#: Below a frame holding a 300-byte name; above every acknowledged frame.
SMALL_FRAME_BOUND = 256


def test_long_entity_name_overflows_the_frame(tmp_path, monkeypatch):
    monkeypatch.setattr(segments, "_MAX_FRAME_BYTES", SMALL_FRAME_BOUND)
    # A new short name rides along: the refusal must not leave it indexed.
    rows = [("x", "s9", 9.0), ("e" * 300, "s1", 5.0)]
    _refuse_between_acks(tmp_path, rows)


def test_long_source_name_overflows_the_frame(tmp_path, monkeypatch):
    monkeypatch.setattr(segments, "_MAX_FRAME_BYTES", SMALL_FRAME_BOUND)
    # The new short entity must not stay indexed either.
    _refuse_between_acks(tmp_path, [("x", "s" * 300, 9.0)])


def test_segment_frame_over_the_bound_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(segments, "_MAX_FRAME_BYTES", 1024)
    # 60 rows x 25 bytes + the frame header word exceed 1 KiB.
    big = [("a", f"src-{i}", 1.0) for i in range(60)]
    _refuse_between_acks(tmp_path, big)


def test_refused_ingest_is_a_client_error_over_http(tmp_path, monkeypatch):
    monkeypatch.setattr(segments, "_MAX_FRAME_BYTES", SMALL_FRAME_BOUND)
    server = make_server(state_dir=str(tmp_path))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]

    def post(path, payload):
        request = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=json.dumps(payload).encode("utf-8"),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    try:
        status, _ = post("/sessions", {"name": "s", "attribute": "value"})
        assert status == 201
        rows = [
            {"entity_id": "x", "source_id": "s1", "attributes": {"value": 1}},
            {"entity_id": "e" * 300, "source_id": "s1", "attributes": {"value": 2}},
        ]
        status, body = post("/sessions/s/ingest", {"observations": rows})
        assert status == 400
        assert "frame bound" in body["error"]
        assert server.registry.get("s").state_version == 0
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
