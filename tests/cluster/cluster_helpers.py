"""Shared helpers for the cluster test suite (thread-mode fleets)."""

from __future__ import annotations

import contextlib
import json
import threading
import time
import urllib.error
import urllib.request

from repro.cluster.run import make_cluster
from repro.serving.http import make_server

ESTIMATOR = "bucket/frequency"


def http_call(base, method, path, body=None, timeout=30):
    """One HTTP round-trip; returns ``(status, raw bytes, headers)``."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data is not None else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


def observation_bodies(rows, attribute="value"):
    """JSON observation bodies from (entity_id, source_id, value) triples."""
    return [
        {"entity_id": entity, "source_id": source, "attributes": {attribute: value}}
        for entity, source, value in rows
    ]


def create_session(base, name, estimator=ESTIMATOR):
    status, payload, _ = http_call(
        base, "POST", "/sessions", {"name": name, "attribute": "value", "estimator": estimator}
    )
    assert status == 201, (status, payload)
    return json.loads(payload)


def ingest(base, name, bodies):
    """Ingest one chunk; returns the acked info block (state_version etc.)."""
    status, payload, _ = http_call(
        base, "POST", f"/sessions/{name}/ingest", {"observations": bodies}
    )
    assert status == 200, (status, payload)
    return json.loads(payload)


def retrying_call(base, method, path, body=None, deadline=60.0):
    """``http_call`` that retries 503s and refused connections.

    This is the client contract the router's degraded windows are
    designed against: shed requests carry ``Retry-After`` and a later
    retry succeeds once the migration/restart completes.
    """
    end = time.monotonic() + deadline
    while True:
        try:
            status, payload, headers = http_call(base, method, path, body, timeout=30)
        except (ConnectionError, OSError):
            status, payload, headers = 503, b"", {}
        if status != 503:
            return status, payload, headers
        if time.monotonic() > end:
            raise AssertionError(f"{method} {path} still 503 after {deadline}s")
        pause_for_retry(headers)


def pause_for_retry(headers):
    """Wait as a 503's ``Retry-After`` asks, at most 0.2 s."""
    time.sleep(min(0.2, float(headers.get("Retry-After", 0.2) or 0.2)))


@contextlib.contextmanager
def thread_cluster(state_dir, *, workers=3, replicas=1, mode="thread", **kwargs):
    """A serving cluster (thread-mode default); yields ``(base, router, fleet)``."""
    server, router, fleet = make_cluster(
        workers=workers,
        replicas=replicas,
        state_dir=str(state_dir),
        mode=mode,
        **kwargs,
    )
    serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
    serve_thread.start()
    router.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", router, fleet
    finally:
        router.stop()
        server.shutdown()
        serve_thread.join(timeout=10)
        server.server_close()
        fleet.stop(graceful=True)


@contextlib.contextmanager
def facade_server():
    """A plain single server (the byte-identity oracle); yields its base."""
    server = make_server()
    serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
    serve_thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        serve_thread.join(timeout=10)
        server.server_close()


def wait_for(predicate, timeout=30.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")
