"""Subscriptions through the consistent-hash router.

The router relays ``GET .../subscribe`` to the session's primary and
keeps the client's stream alive across worker churn: when the upstream
leg dies (migration, rolling restart) the router re-resolves the
primary and reconnects with ``from_version=<last id + 1>``, deduping by
event id -- the client sees one monotonic, duplicate-free stream that
ends at the latest state.
"""

from __future__ import annotations

import threading
import urllib.request

from cluster_helpers import (
    create_session,
    http_call,
    ingest,
    observation_bodies,
    retrying_call,
    thread_cluster,
    wait_for,
)

ROWS = [
    ("a", "s1", 10.0),
    ("b", "s1", 20.0),
    ("c", "s2", 30.0),
    ("a", "s2", 10.0),
    ("d", "s3", 40.0),
    ("b", "s3", 20.0),
]


def read_sse_events(response, events, done):
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


def open_subscription(base, path, events, done):
    response = urllib.request.urlopen(urllib.request.Request(base + path), timeout=120)
    assert response.headers["Content-Type"].startswith("text/event-stream")
    thread = threading.Thread(
        target=read_sse_events, args=(response, events, done), daemon=True
    )
    thread.start()
    return response


def test_relayed_stream_matches_routed_polls(tmp_path):
    with thread_cluster(tmp_path, workers=3, replicas=2) as (base, router, fleet):
        create_session(base, "sub")
        ingest(base, "sub", observation_bodies(ROWS[:2]))
        events, done = [], threading.Event()
        open_subscription(
            base, "/sessions/sub/subscribe?max_events=3&heartbeat_ms=500", events, done
        )
        wait_for(lambda: len(events) == 1, message="connect push through the router")
        assert events[0][0] == 1
        for index, rows in enumerate((ROWS[2:4], ROWS[4:]), start=2):
            ingest(base, "sub", observation_bodies(rows))
            wait_for(lambda: len(events) >= index, message=f"relayed push #{index}")
        assert done.wait(timeout=30)
        ids = [event_id for event_id, _ in events]
        assert ids == [1, 2, 3]
        status, polled, _ = retrying_call(base, "GET", "/sessions/sub/estimate")
        assert status == 200
        assert events[-1][1] == polled


def test_stream_survives_rolling_restart(tmp_path):
    with thread_cluster(tmp_path, workers=3, replicas=2) as (base, router, fleet):
        create_session(base, "sub")
        ingest(base, "sub", observation_bodies(ROWS[:3]))
        events, done = [], threading.Event()
        open_subscription(
            base, "/sessions/sub/subscribe?max_events=2&heartbeat_ms=200", events, done
        )
        wait_for(lambda: len(events) == 1, message="connect push")
        # Cycle every worker under the live stream: the upstream leg to
        # the primary dies and the router must transparently re-subscribe.
        status, payload, _ = http_call(base, "POST", "/cluster/restart", timeout=300)
        assert status == 200, payload
        ingest(base, "sub", observation_bodies(ROWS[3:]))
        assert done.wait(timeout=60)
        ids = [event_id for event_id, _ in events]
        assert ids == [1, 2]  # monotonic and deduplicated across the reconnect
        status, polled, _ = retrying_call(base, "GET", "/sessions/sub/estimate")
        assert status == 200
        assert events[-1][1] == polled


def test_stream_survives_scale_out_rebalance(tmp_path):
    with thread_cluster(tmp_path, workers=2, replicas=1) as (base, router, fleet):
        create_session(base, "sub")
        ingest(base, "sub", observation_bodies(ROWS[:3]))
        events, done = [], threading.Event()
        open_subscription(
            base, "/sessions/sub/subscribe?max_events=2&heartbeat_ms=200", events, done
        )
        wait_for(lambda: len(events) == 1, message="connect push")
        # Scale out by one worker: the ring rebalances and some sessions
        # migrate; whether or not "sub" moves, the stream must continue.
        status, payload, _ = http_call(base, "POST", "/cluster/workers", timeout=120)
        assert status == 200, payload
        ingest(base, "sub", observation_bodies(ROWS[3:]))
        assert done.wait(timeout=60)
        assert [event_id for event_id, _ in events] == [1, 2]
        status, polled, _ = retrying_call(base, "GET", "/sessions/sub/estimate")
        assert status == 200
        assert events[-1][1] == polled
