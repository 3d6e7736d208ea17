"""SIGKILL the server mid-subscription; the resumed stream must reconcile.

A streaming client is attached to ``GET .../subscribe`` when an armed
fault kills the serving process during an ingest.  The client follows
the documented reconnect protocol -- restart, resend whatever the
recovered ``state_version`` does not cover, re-subscribe with
``from_version=<last id + 1>`` -- and the resumed stream must push an
envelope byte-identical to both a polled GET and a never-crashed
in-process facade.  Across the crash the stream is monotonic,
duplicate-free and ends at the latest state: versions committed in a
burst may coalesce into one event, so ids are strictly increasing but
not necessarily dense.
"""

from __future__ import annotations

import json
import threading
import urllib.request

from test_crash_recovery import (
    CHUNKS,
    ESTIMATOR,
    ServerDied,
    ServerProcess,
    observation_bodies,
    observations,
)
from repro.api.session import OpenWorldSession
from repro.serving.http import dumps_result


class EventLog:
    """SSE events received so far; readers wait on a condition, not a clock."""

    def __init__(self) -> None:
        self.events: list[tuple[int, bytes]] = []
        self._changed = threading.Condition()

    def append(self, event: "tuple[int, bytes]") -> None:
        with self._changed:
            self.events.append(event)
            self._changed.notify_all()

    def wait_for_id(self, event_id: int, timeout: float = 30.0) -> None:
        """Block until an event with ``event_id`` (or a later one) arrived."""
        with self._changed:
            arrived = self._changed.wait_for(
                lambda: bool(self.events) and self.events[-1][0] >= event_id,
                timeout=timeout,
            )
        assert arrived, f"wanted event id {event_id}, got {self.ids()}"

    def ids(self) -> list[int]:
        return [event_id for event_id, _ in self.events]


def subscribe(server, path, events, done):
    """Read SSE events into ``events`` until the stream (or the server) dies."""

    def run():
        try:
            request = urllib.request.Request(f"{server.url}{path}")
            with urllib.request.urlopen(request, timeout=60) as response:
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
        except OSError:
            pass  # the crash severs the stream; the client reconnects
        finally:
            done.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def test_sigkill_mid_subscription_resumes_gapless(tmp_path):
    state = tmp_path / "state"
    # Crash inside SegmentLog.append of the 2nd ingest: the subscriber
    # is live when the process dies, and the crashed commit was never
    # acked (nor pushed).
    server = ServerProcess(state, faults="storage.after_frame:crash@2")
    status, _ = server.request(
        "POST",
        "/sessions",
        {"name": "s", "attribute": "value", "estimator": ESTIMATOR},
    )
    assert status == 201
    status, _ = server.request(
        "POST", "/sessions/s/ingest", {"observations": observation_bodies(CHUNKS[0])}
    )
    assert status == 200

    events, done = EventLog(), threading.Event()
    subscribe(server, "/sessions/s/subscribe?heartbeat_ms=200", events, done)
    events.wait_for_id(1)
    assert events.ids()[0] == 1  # current state pushed on connect

    try:
        server.request(
            "POST",
            "/sessions/s/ingest",
            {"observations": observation_bodies(CHUNKS[1])},
        )
    except ServerDied:
        pass
    server.wait_killed()
    assert done.wait(timeout=30)  # the stream died with the server

    # --- reconcile: restart, resend unacked chunks, re-subscribe -------- #
    server = ServerProcess(state)
    try:
        status, body = server.request("GET", "/sessions/s/estimate")
        assert status == 200
        version = json.loads(server.request("GET", "/sessions")[1])["sessions"][0][
            "state_version"
        ]
        assert version >= 1
        resume_from = events.ids()[-1] + 1
        resumed, resumed_done = EventLog(), threading.Event()
        subscribe(
            server,
            f"/sessions/s/subscribe?from_version={resume_from}"
            "&max_events=2&heartbeat_ms=200",
            resumed,
            resumed_done,
        )
        # Resend everything past the recovered version, exactly as a
        # retrying ingest client would.
        for chunk in CHUNKS[version:]:
            status, _ = server.request(
                "POST", "/sessions/s/ingest", {"observations": observation_bodies(chunk)}
            )
            assert status == 200
        # Wait for the final version, not an event count: the resent
        # commits may coalesce into a single event.
        resumed.wait_for_id(len(CHUNKS))

        all_ids = events.ids() + resumed.ids()
        # Monotonic and duplicate-free across the crash, ending at the
        # latest state: the resumed stream picks up after the severed one.
        assert all_ids == sorted(set(all_ids))
        assert all_ids[0] == 1 and all_ids[-1] == len(CHUNKS)

        facade = OpenWorldSession("value", estimator=ESTIMATOR)
        for chunk in CHUNKS:
            facade.ingest(observations(chunk))
        _, polled = server.request("GET", "/sessions/s/estimate")
        assert resumed.events[-1][1] == polled
        assert polled == dumps_result(facade.estimate().to_dict())
    finally:
        server.kill()
