"""The versioned wait/notify primitive and the subscription (SSE) route.

Covers the three layers of the push path:

* :class:`~repro.serving.versions.VersionGate` -- the one documented
  freshness primitive (publish / wait / retire),
* ``ServedSession.wait_for_version`` and the subscriber ledger,
* the HTTP surfaces: ``?wait_version=`` long-polls on ``GET
  .../estimate`` and the ``GET .../subscribe`` Server-Sent-Events
  stream, including abandoned-subscriber cleanup and pushes under
  concurrent multi-writer ingest.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from serving_helpers import SIX_ROWS, make_observations
from repro.serving.registry import SessionRegistry
from repro.serving.http import dumps_result, make_server
from repro.serving.versions import VersionGate


def wait_until_parked(gate, count=1):
    """Block until ``count`` waiters are parked on ``gate`` (state, not time)."""
    deadline = time.monotonic() + 5
    while gate.waiters < count and time.monotonic() < deadline:
        time.sleep(0.005)
    assert gate.waiters == count


# --------------------------------------------------------------------- #
# VersionGate
# --------------------------------------------------------------------- #


class TestVersionGate:
    def test_wait_returns_immediately_when_already_published(self):
        gate = VersionGate(3)
        assert gate.wait_for(2, timeout=0.0) == 3
        assert gate.wait_for(3, timeout=0.0) == 3

    def test_wait_times_out_below_target(self):
        gate = VersionGate(1)
        assert gate.wait_for(2, timeout=0.05) is None
        assert gate.version == 1

    def test_advance_wakes_parked_waiter(self):
        gate = VersionGate(0)
        seen = []
        thread = threading.Thread(target=lambda: seen.append(gate.wait_for(2, timeout=10)))
        thread.start()
        wait_until_parked(gate)
        gate.advance(2)
        thread.join(timeout=5)
        assert seen == [2]
        assert gate.waiters == 0

    def test_advance_is_monotonic(self):
        gate = VersionGate(5)
        gate.advance(3)  # stale publish must not move the gate backwards
        assert gate.version == 5

    def test_close_wakes_waiters_below_target(self):
        gate = VersionGate(1)
        seen = []
        thread = threading.Thread(target=lambda: seen.append(gate.wait_for(9, timeout=10)))
        thread.start()
        wait_until_parked(gate)
        gate.close()
        thread.join(timeout=5)
        # Woken by retirement: the reached version is below the target,
        # which is how callers distinguish "retired" from "published".
        assert seen == [1]
        assert gate.closed


# --------------------------------------------------------------------- #
# ServedSession.wait_for_version
# --------------------------------------------------------------------- #


class TestServedSessionWait:
    def test_ingest_releases_parked_waiter(self):
        registry = SessionRegistry()
        served = registry.create("s", "value", estimator="naive")
        served.ingest(make_observations(SIX_ROWS[:3]))
        results = []
        thread = threading.Thread(
            target=lambda: results.append(served.wait_for_version(2, timeout=10))
        )
        thread.start()
        wait_until_parked(served._gate)
        served.ingest(make_observations(SIX_ROWS[3:]))
        thread.join(timeout=5)
        assert results == [2]

    def test_remove_retires_the_gate(self):
        registry = SessionRegistry()
        served = registry.create("s", "value", estimator="naive")
        served.ingest(make_observations(SIX_ROWS))
        results = []
        thread = threading.Thread(
            target=lambda: results.append(served.wait_for_version(99, timeout=10))
        )
        thread.start()
        wait_until_parked(served._gate)
        registry.remove("s")
        thread.join(timeout=5)
        assert served.retired
        assert results == [1]  # woken below target: retired, not published


# --------------------------------------------------------------------- #
# HTTP surfaces
# --------------------------------------------------------------------- #


@pytest.fixture
def server():
    server = make_server()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()


def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def call(server, method, path, body=None, timeout=30):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        base_url(server) + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data is not None else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def create_session(server, name="s"):
    status, _, _ = call(
        server,
        "POST",
        "/sessions",
        {"name": name, "attribute": "value", "estimator": "bucket/frequency"},
    )
    assert status == 201


def ingest(server, rows, name="s"):
    bodies = [
        {"entity_id": entity, "source_id": source, "attributes": {"value": value}}
        for entity, source, value in rows
    ]
    status, _, body = call(
        server, "POST", f"/sessions/{name}/ingest", {"observations": bodies}
    )
    assert status == 200
    return json.loads(body)


def read_sse_events(response, events, done):
    """Collect (id, body_bytes) pairs until the stream ends."""
    try:
        event_id, data = None, []
        for raw in response:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("id: "):
                event_id = int(line[4:])
            elif line.startswith("data: "):
                data.append(line[6:])
            elif line.startswith("data:"):
                data.append(line[5:])
            elif line == "" and event_id is not None:
                events.append((event_id, "\n".join(data).encode("utf-8")))
                event_id, data = None, []
    finally:
        done.set()


def open_subscription(server, path, events, done):
    request = urllib.request.Request(base_url(server) + path)
    response = urllib.request.urlopen(request, timeout=60)
    assert response.headers["Content-Type"].startswith("text/event-stream")
    thread = threading.Thread(
        target=read_sse_events, args=(response, events, done), daemon=True
    )
    thread.start()
    return response, thread


def wait_for(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


def subscriber_stats(server):
    _, _, body = call(server, "GET", "/stats")
    return json.loads(body)["sessions"][0]["subscribers"]


class TestWaitVersion:
    def test_long_poll_released_by_ingest(self, server):
        create_session(server)
        ingest(server, SIX_ROWS[:3])
        results = []

        def poll():
            results.append(
                call(server, "GET", "/sessions/s/estimate?wait_version=2&timeout_ms=30000")
            )

        thread = threading.Thread(target=poll, daemon=True)
        thread.start()
        time.sleep(0.05)
        ingest(server, SIX_ROWS[3:])
        thread.join(timeout=10)
        status, headers, parked_body = results[0]
        assert status == 200
        assert headers["X-Repro-State-Version"] == "2"
        _, _, polled = call(server, "GET", "/sessions/s/estimate")
        assert parked_body == polled

    def test_timeout_returns_304_with_version_header(self, server):
        create_session(server)
        ingest(server, SIX_ROWS)
        status, headers, body = call(
            server, "GET", "/sessions/s/estimate?wait_version=5&timeout_ms=50"
        )
        assert status == 304
        assert body == b""
        assert headers["X-Repro-State-Version"] == "1"

    def test_already_published_answers_immediately(self, server):
        create_session(server)
        ingest(server, SIX_ROWS)
        status, headers, body = call(
            server, "GET", "/sessions/s/estimate?wait_version=1"
        )
        assert status == 200
        assert headers["X-Repro-State-Version"] == "1"

    def test_session_deleted_while_parked_is_404(self, server):
        create_session(server)
        ingest(server, SIX_ROWS)
        results = []

        def poll():
            results.append(
                call(server, "GET", "/sessions/s/estimate?wait_version=9&timeout_ms=30000")
            )

        thread = threading.Thread(target=poll, daemon=True)
        thread.start()
        time.sleep(0.05)
        status, _, _ = call(server, "DELETE", "/sessions/s")
        assert status == 200
        thread.join(timeout=10)
        assert results[0][0] == 404


class TestSubscribe:
    def test_pushed_envelopes_byte_identical_to_polled(self, server):
        create_session(server)
        ingest(server, SIX_ROWS[:2])
        events, done = [], threading.Event()
        open_subscription(
            server, "/sessions/s/subscribe?max_events=3&heartbeat_ms=500", events, done
        )
        wait_for(lambda: len(events) == 1, message="connect push")
        assert events[0][0] == 1  # current state pushed on connect
        _, _, polled = call(server, "GET", "/sessions/s/estimate")
        assert events[0][1] == polled
        for index, rows in enumerate((SIX_ROWS[2:4], SIX_ROWS[4:]), start=2):
            ingest(server, rows)
            wait_for(lambda: len(events) >= index, message=f"push #{index}")
            version, pushed = events[index - 1]
            assert version == index
            _, _, polled = call(server, "GET", "/sessions/s/estimate")
            assert pushed == polled
        done.wait(timeout=10)
        ids = [event_id for event_id, _ in events]
        assert ids == sorted(set(ids))  # strictly increasing, no duplicates

    def test_push_warms_the_estimate_cache(self, server):
        create_session(server)
        ingest(server, SIX_ROWS[:3])
        events, done = [], threading.Event()
        open_subscription(
            server, "/sessions/s/subscribe?max_events=2&heartbeat_ms=500", events, done
        )
        wait_for(lambda: len(events) == 1, message="connect push")
        ingest(server, SIX_ROWS[3:])
        done.wait(timeout=10)
        _, _, stats_body = call(server, "GET", "/stats")
        before = json.loads(stats_body)["coalescer"]["computed"]
        # A follower polling the same version must hit the cache the push
        # already warmed, not compute again.
        call(server, "GET", "/sessions/s/estimate")
        _, _, stats_body = call(server, "GET", "/stats")
        assert json.loads(stats_body)["coalescer"]["computed"] == before

    def test_from_version_skips_already_seen_versions(self, server):
        create_session(server)
        ingest(server, SIX_ROWS[:2])
        ingest(server, SIX_ROWS[2:4])
        events, done = [], threading.Event()
        open_subscription(
            server,
            "/sessions/s/subscribe?from_version=3&max_events=1&heartbeat_ms=500",
            events,
            done,
        )
        time.sleep(0.1)
        assert events == []  # parked: current version 2 is below from_version
        ingest(server, SIX_ROWS[4:])
        done.wait(timeout=10)
        assert [event_id for event_id, _ in events] == [3]

    def test_delta_mode_stream_matches_batch_oracle(self, server):
        create_session(server)
        ingest(server, SIX_ROWS[:3])
        events, done = [], threading.Event()
        open_subscription(
            server,
            "/sessions/s/subscribe?mode=delta&max_events=2&heartbeat_ms=500",
            events,
            done,
        )
        wait_for(lambda: len(events) == 1, message="connect push")
        ingest(server, SIX_ROWS[3:])
        done.wait(timeout=10)
        _, _, batch = call(server, "GET", "/sessions/s/estimate?mode=batch")
        assert events[-1][1] == batch

    def test_delta_mode_on_batch_only_estimator_is_400(self, server):
        create_session(server)
        ingest(server, SIX_ROWS)
        status, _, body = call(
            server, "GET", "/sessions/s/subscribe?spec=monte-carlo&mode=delta"
        )
        assert status == 400
        message = json.loads(body)["error"]
        assert "naive" in message  # lists the update-capable estimators

    def test_subscribe_to_unknown_session_is_404(self, server):
        status, _, _ = call(server, "GET", "/sessions/nope/subscribe")
        assert status == 404

    def test_abandoned_subscriber_releases_slot_and_ledger(self, server):
        create_session(server)
        ingest(server, SIX_ROWS[:3])
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        connection.request("GET", "/sessions/s/subscribe?heartbeat_ms=100")
        response = connection.getresponse()
        assert response.status == 200
        response.read(64)  # consume part of the first event, then vanish
        wait_for(lambda: subscriber_stats(server)["active"] == 1, message="subscriber up")
        # Close the response too: it holds the socket via makefile, so
        # closing only the connection would leave the TCP stream open.
        response.close()
        connection.close()
        # The heartbeat doubles as the dead-client probe: the server must
        # notice the broken pipe, decrement `active`, and count the drop.
        wait_for(
            lambda: subscriber_stats(server)["active"] == 0,
            message="abandoned subscriber reaped",
        )
        block = subscriber_stats(server)
        assert block["disconnects"] == 1
        assert block["waiters"] == 0
        # And nothing is left pinning the session's write path.
        info = ingest(server, SIX_ROWS[3:])
        assert info["state_version"] == 2

    def test_multi_writer_pushes_reach_head_with_strictly_increasing_ids(self, server):
        create_session(server)
        ingest(server, SIX_ROWS[:1])
        writers, per_writer = 3, 5
        final_version = 1 + writers * per_writer
        events, done = [], threading.Event()
        open_subscription(
            server,
            f"/sessions/s/subscribe?heartbeat_ms=200&timeout_ms=30000",
            events,
            done,
        )
        wait_for(lambda: len(events) == 1, message="connect push")

        def writer(offset):
            for index in range(per_writer):
                row = SIX_ROWS[(offset + index) % len(SIX_ROWS)]
                ingest(server, [row])

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        # Concurrent commits may coalesce into fewer pushes, but the ids
        # must be strictly increasing (no duplicates, no reordering) and
        # the stream must reach the final version: nothing is missed.
        wait_for(
            lambda: events and events[-1][0] == final_version,
            message="stream reaches the final version",
        )
        ids = [event_id for event_id, _ in events]
        assert ids == sorted(set(ids))
        assert ids[-1] == final_version
        _, _, polled = call(server, "GET", "/sessions/s/estimate")
        assert events[-1][1] == polled
