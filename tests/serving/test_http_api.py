"""End-to-end tests of the HTTP JSON API against a live server."""

from __future__ import annotations

import gzip
import json
import re
import socket
import threading

import pytest

from serving_helpers import (
    SIX_ROWS,
    exchange,
    http_hops,
    make_observations,
    same_answer,
)
from repro.api.session import OpenWorldSession
from repro.data.records import Observation
from repro.serving.http import dumps_result, make_server


@pytest.fixture
def server():
    server = make_server()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()


@pytest.fixture
def hops(tmp_path):
    """A lone server and a one-worker router, which must answer alike."""
    with http_hops(tmp_path) as both:
        yield both


def call(server, method, path, body=None, headers=None):
    """One HTTP round-trip; returns (status, raw bytes).

    ``body`` is sent as JSON unless it is bytes already.  Given the
    ``hops`` list, the request goes to every hop, and all must answer
    alike (see ``same_answer``).
    """
    if body is not None and not isinstance(body, bytes):
        body = json.dumps(body).encode()
    if body is not None:
        headers = {"Content-Type": "application/json", **(headers or {})}
    targets = server if isinstance(server, list) else [server]
    status, _, raw = same_answer(
        [exchange(target, method, path, body, headers) for target in targets]
    )
    return status, raw


def observation_bodies(rows, attribute="value"):
    return [
        {"entity_id": entity, "source_id": source, "attributes": {attribute: value}}
        for entity, source, value in rows
    ]


def create_and_fill(server, name="s", estimator="bucket/frequency"):
    status, _ = call(
        server,
        "POST",
        "/sessions",
        {"name": name, "attribute": "value", "estimator": estimator},
    )
    assert status == 201
    status, body = call(
        server,
        "POST",
        f"/sessions/{name}/ingest",
        {"observations": observation_bodies(SIX_ROWS)},
    )
    assert status == 200
    return json.loads(body)


class TestRoutes:
    def test_healthz(self, server):
        status, body = call(server, "GET", "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok", "sessions": 0}

    def test_session_lifecycle_over_http(self, server):
        info = create_and_fill(server)
        assert info["state_version"] == 1 and info["n"] == 6 and info["c"] == 4
        status, body = call(server, "GET", "/sessions")
        listing = json.loads(body)["sessions"]
        assert [s["session"] for s in listing] == ["s"]
        status, _ = call(server, "DELETE", "/sessions/s")
        assert status == 200
        assert json.loads(call(server, "GET", "/healthz")[1])["sessions"] == 0

    def test_estimate_query_snapshot_envelopes(self, server):
        create_and_fill(server)
        for path, method, body in [
            ("/sessions/s/estimate", "GET", None),
            ("/sessions/s/query", "POST", {"sql": "SELECT SUM(value) FROM data"}),
            ("/sessions/s/snapshot", "GET", None),
        ]:
            status, raw = call(server, method, path, body)
            assert status == 200
            payload = json.loads(raw)
            assert payload["schema"] == "repro.result/v1"
        assert json.loads(call(server, "GET", "/sessions/s/snapshot")[1])[
            "state_version"
        ] == 1

    def test_stats_block(self, server):
        create_and_fill(server)
        call(server, "GET", "/sessions/s/estimate")
        call(server, "GET", "/sessions/s/estimate")
        stats = json.loads(call(server, "GET", "/stats")[1])
        assert stats["answer_cache"]["hits"] == 1
        assert stats["answer_cache"]["misses"] == 1
        assert stats["sessions"][0]["estimator_cache"]["max_entries"] > 0

    def test_multi_spec_estimate_returns_array(self, server):
        create_and_fill(server)
        status, raw = call(
            server, "GET", "/sessions/s/estimate?spec=naive&spec=bucket/frequency"
        )
        assert status == 200
        payloads = json.loads(raw)
        assert isinstance(payloads, list) and len(payloads) == 2
        assert [p["kind"] for p in payloads] == ["estimate", "estimate"]
        assert payloads[0]["estimator"] != payloads[1]["estimator"]


class TestByteIdentity:
    """HTTP answers must equal the in-process facade byte for byte."""

    def in_process_session(self):
        session = OpenWorldSession("value", estimator="bucket/frequency")
        session.ingest(make_observations(SIX_ROWS))
        return session

    def test_estimate_bytes(self, server):
        create_and_fill(server)
        _, raw = call(server, "GET", "/sessions/s/estimate")
        assert raw == dumps_result(self.in_process_session().estimate().to_dict())

    def test_estimate_with_spec_bytes(self, server):
        create_and_fill(server)
        _, raw = call(server, "GET", "/sessions/s/estimate?spec=naive")
        assert raw == dumps_result(
            self.in_process_session().estimate(spec="naive").to_dict()
        )

    def test_query_bytes(self, server):
        create_and_fill(server)
        sql = "SELECT AVG(value) FROM data WHERE value > 15"
        _, raw = call(server, "POST", "/sessions/s/query", {"sql": sql})
        assert raw == dumps_result(self.in_process_session().query(sql).to_dict())

    def test_snapshot_bytes(self, server):
        create_and_fill(server)
        _, raw = call(server, "GET", "/sessions/s/snapshot")
        assert raw == dumps_result(self.in_process_session().snapshot().to_dict())

    def test_cache_hit_bytes_equal_miss_bytes(self, server):
        create_and_fill(server)
        _, cold = call(server, "GET", "/sessions/s/estimate")
        _, warm = call(server, "GET", "/sessions/s/estimate")
        assert cold == warm


class TestErrors:
    def test_unknown_route_is_404(self, hops):
        assert call(hops, "GET", "/nope")[0] == 404
        assert call(hops, "POST", "/sessions/s/nope")[0] == 404

    def test_unknown_session_is_404(self, hops):
        status, body = call(hops, "GET", "/sessions/ghost/estimate")
        assert status == 404
        assert "ghost" in json.loads(body)["error"]

    def test_duplicate_session_is_409(self, hops):
        create_and_fill(hops)
        status, _ = call(
            hops, "POST", "/sessions", {"name": "s", "attribute": "value"}
        )
        assert status == 409

    def test_validation_errors_are_400(self, hops):
        create_and_fill(hops)
        cases = [
            ("POST", "/sessions", {"attribute": "value"}),  # missing name
            ("POST", "/sessions", {"name": "t", "attribute": "value", "x": 1}),
            ("POST", "/sessions/s/ingest", {"rows": []}),  # wrong field
            ("POST", "/sessions/s/ingest", {"observations": [{"bogus": 1}]}),
            ("POST", "/sessions/s/query", {"sql": ""}),
            ("POST", "/sessions/s/query", {"sql": "SELECT SUM(value) FROM data", "closed_world": "yes"}),
            ("GET", "/sessions/s/estimate?spec=not-an-estimator", None),
            ("GET", "/sessions/s/estimate?bogus=1", None),
            ("GET", "/sessions/s/subscribe?max_events=0", None),
            ("GET", "/sessions/s/subscribe?timeout_ms=0", None),
            ("GET", "/sessions/s/subscribe?timeout_ms=-5", None),
        ]
        for method, path, body in cases:
            status, raw = call(hops, method, path, body)
            assert status == 400, (method, path, raw)
            assert "error" in json.loads(raw)

    def test_malformed_json_body_is_400(self, hops):
        assert call(hops, "POST", "/sessions", b"{not json")[0] == 400

    def test_gzip_encoded_create_is_inflated_not_a_500(self, hops):
        body = gzip.compress(json.dumps({"name": "z", "attribute": "value"}).encode())
        status, raw = call(
            hops, "POST", "/sessions", body, {"Content-Encoding": "gzip"}
        )
        assert status == 201, raw
        assert json.loads(raw)["session"] == "z"

    def test_estimate_of_empty_session_is_404(self, hops):
        call(hops, "POST", "/sessions", {"name": "empty", "attribute": "value"})
        status, _ = call(hops, "GET", "/sessions/empty/estimate")
        assert status == 404  # InsufficientDataError: nothing ingested yet

    def test_failed_request_leaves_server_serving(self, hops):
        create_and_fill(hops)
        call(hops, "GET", "/sessions/s/estimate?spec=not-an-estimator")
        for hop in hops:  # the health bodies differ by design
            assert call(hop, "GET", "/healthz")[0] == 200
        assert call(hops, "GET", "/sessions/s/estimate")[0] == 200


class TestIngestValidation:
    def test_bad_observation_does_not_change_state(self, server):
        create_and_fill(server)
        before = json.loads(call(server, "GET", "/sessions/s/snapshot")[1])
        status, _ = call(
            server,
            "POST",
            "/sessions/s/ingest",
            {
                "observations": observation_bodies([("x", "s9", 1.0)])
                + [{"entity_id": "y", "source_id": "s9", "attributes": {}}]
            },
        )
        assert status == 400  # entity y carries no 'value' attribute
        after = json.loads(call(server, "GET", "/sessions/s/snapshot")[1])
        assert after == before  # atomic chunk: nothing was committed

    def test_sequence_field_round_trips(self):
        from repro.serving.http import observations_from_json

        (obs,) = observations_from_json(
            [
                {
                    "entity_id": "a",
                    "source_id": "s",
                    "attributes": {"value": 1.0},
                    "sequence": 7,
                }
            ]
        )
        assert obs == Observation("a", {"value": 1.0}, "s", 7)


#: Ingest fields that are valid JSON but no valid observation: an id that
#: is not a string, and a sequence the segment log's int64 cannot hold.
MALFORMED_FIELDS = {
    "int-entity-id": {"entity_id": 5},
    "list-entity-id": {"entity_id": ["x"]},
    "int-source-id": {"source_id": 5},
    "sequence-past-int64": {"sequence": 2**70},
    "float-sequence": {"sequence": 3.7},
    "integral-float-sequence": {"sequence": 2.0},
    "string-sequence": {"sequence": "7"},
    "bool-sequence": {"sequence": True},
}


class TestMalformedIds:
    """Malformed ids and sequences are a 400 on both hops, whichever store
    holds the session."""

    @pytest.mark.parametrize("store", ["memory", "disk"])
    @pytest.mark.parametrize("field", sorted(MALFORMED_FIELDS))
    def test_refused_before_the_state_changes(self, tmp_path, store, field):
        item = {"entity_id": "x", "source_id": "s9", "attributes": {"value": 1.0}}
        item.update(MALFORMED_FIELDS[field])
        with http_hops(tmp_path, persisted=store == "disk") as hops:
            create_and_fill(hops)
            before = call(hops, "GET", "/sessions/s/snapshot")[1]
            status, raw = call(
                hops, "POST", "/sessions/s/ingest", {"observations": [item]}
            )
            assert status == 400, raw
            assert json.loads(raw)["error"].startswith("observation #0 is malformed")
            assert call(hops, "GET", "/sessions/s/snapshot")[1] == before


def _first_entity(body):
    return next(iter(body["counts"]))


#: Snapshot envelopes no session writes, each made from a real one.
MALFORMED_SNAPSHOTS = {
    "missing-counts": lambda body: body.pop("counts"),
    "unknown-field": lambda body: body.update(extra=1),
    "string-count": lambda body: body["counts"].update({_first_entity(body): "x"}),
    "negative-count": lambda body: body["counts"].update({_first_entity(body): -1}),
    "values-lack-a-counted-entity": lambda body: body["values"].pop(
        _first_entity(body)
    ),
    "value-not-a-number": lambda body: body["values"].update(
        {_first_entity(body): {"value": "x"}}
    ),
    "sizes-do-not-sum-to-counts": lambda body: body["source_sizes"].update(
        extra_source=1
    ),
    "negative-seed-size": lambda body: body.update(seed_source_sizes=[-1, 1]),
    "missing-state-version": lambda body: body.pop("state_version"),
}


class TestMalformedSnapshots:
    """A restore body no snapshot writes is a 400 that registers nothing."""

    @pytest.mark.parametrize("store", ["memory", "disk"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_SNAPSHOTS))
    def test_refused_and_not_registered(self, tmp_path, store, case):
        with http_hops(tmp_path, persisted=store == "disk") as hops:
            create_and_fill(hops)
            body = json.loads(call(hops, "GET", "/sessions/s/snapshot")[1])
            MALFORMED_SNAPSHOTS[case](body)
            status, raw = call(hops, "POST", "/sessions/r/restore", body)
            assert status == 400, raw
            assert call(hops, "GET", "/sessions/r")[0] == 404


class TestKeepAliveSafety:
    """Responses must not leave request-body bytes on the connection."""

    def raw_exchange(self, hops, payload: bytes) -> bytes:
        """Send ``payload`` on a fresh socket to each hop; the replies must match.

        Returns the reply without its ``Date`` and ``Server`` headers,
        the only lines in which the hops may differ.
        """
        replies = []
        for hop in hops:
            with socket.create_connection(hop.server_address[:2], timeout=10) as sock:
                sock.sendall(payload)
                chunks = []
                try:
                    while True:
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        chunks.append(chunk)
                except TimeoutError:  # pragma: no cover - server kept it open
                    pass
            replies.append(re.sub(rb"(Date|Server): [^\r]*\r\n", b"", b"".join(chunks)))
        assert replies[1:] == replies[:-1], replies
        return replies[0]

    def test_unrouted_post_with_body_closes_the_connection(self, hops):
        body = b'{"observations": []}'
        raw = (
            b"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        response = self.raw_exchange(hops, raw)
        # The 404 must close the connection (body bytes were never read),
        # so the pipelined GET is not parsed -- and in particular the
        # unread body must never be misread as a request line.
        assert response.startswith(b"HTTP/1.1 404")
        assert b"Connection: close" in response
        assert b"Bad request" not in response

    def test_malformed_content_length_is_400_not_500(self, hops):
        raw = (
            b"POST /sessions HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: abc\r\n\r\n"
        )
        response = self.raw_exchange(hops, raw)
        assert response.startswith(b"HTTP/1.1 400")

    def test_successful_responses_keep_the_connection_alive(self, hops):
        raw = (
            b"GET /sessions HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /sessions HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        response = self.raw_exchange(hops, raw)
        # Both pipelined requests answered on one connection.
        assert response.count(b"HTTP/1.1 200") == 2

    def test_oversized_bodies_are_413_before_any_byte_is_read(self, hops):
        for path, length in [
            ("/sessions", 64 * 1024 * 1024 + 1),
            ("/sessions/s/restore-store", 4 * 1024 * 1024 * 1024 + 1),
        ]:
            raw = b"POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % (
                path.encode(),
                length,
            )
            response = self.raw_exchange(hops, raw)
            assert response.startswith(b"HTTP/1.1 413"), response
            assert b"Connection: close" in response

    def test_unread_body_closes_the_connection(self, hops):
        call(hops, "POST", "/sessions", {"name": "s", "attribute": "value"})
        for request in (
            b"GET /sessions HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
            b"DELETE /sessions/s HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
        ):
            response = self.raw_exchange(
                hops, request + b"GET /sessions HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            # The route never read the body, so the connection closes
            # after the 200 instead of parsing "helloGET" as a method.
            assert response.startswith(b"HTTP/1.1 200"), response
            assert response.count(b"HTTP/1.1") == 1
            assert b"Connection: close" in response
