"""A served answer names the ``state_version`` its bytes were computed at.

Every read of a served session returns a ``(state_version, payload)``
pair: a cache hit names the version of its key, a miss the version its
computation read under the session's shared lock.  These tests land an
ingest between a read's cache lookup and its computation -- the one
window where the version looked up and the version computed differ --
and require the long-poll's ``X-Repro-State-Version`` and the SSE
event's ``id`` to name the version of the bytes they carry, the cache
to hold those bytes under that version only, and duplicate reads to
still fold into one computation.
"""

from __future__ import annotations

import threading
import time
import urllib.request

import pytest

from serving_helpers import SIX_ROWS, CountingEstimator, exchange, make_observations
from repro.api.session import OpenWorldSession
from repro.serving.cache import request_key
from repro.serving.http import dumps_result, make_server
from repro.serving.registry import SessionRegistry

CHUNKS = [SIX_ROWS[:2], SIX_ROWS[2:4], SIX_ROWS[4:]]
ESTIMATOR = "bucket/frequency"


def facade_bytes(chunks, estimator=ESTIMATOR):
    """The in-process estimate bytes after the first ``chunks`` chunks."""
    session = OpenWorldSession("value", estimator=estimator)
    for rows in CHUNKS[:chunks]:
        session.ingest(make_observations(rows))
    return dumps_result(session.estimate().to_dict())


def cached(served, lookup):
    """``{version: payload}`` of the default estimate ``lookup`` finds cached."""
    spec = served._canonical_spec(None)
    found = {
        version: lookup(request_key(served._cache_name, version, "estimate", spec, "value"))
        for version in range(len(CHUNKS) + 1)
    }
    return {version: payload for version, payload in found.items() if payload is not None}


def ingest_during_next_lookup(served):
    """Land the next chunk on another thread while the next lookup runs.

    The lookup then reports a miss, so the read computes after the
    ingest.  Returns the cache's own ``get``, which sees the real entries.
    """
    cache = served._cache
    real_get = cache.get

    def get(key):
        del cache.get  # only this one lookup is cut
        writer = threading.Thread(
            target=served.ingest,
            args=(make_observations(CHUNKS[served.state_version]),),
        )
        writer.start()
        writer.join(timeout=10)
        assert not writer.is_alive()
        return None

    cache.get = get
    return real_get


@pytest.fixture
def server():
    server = make_server()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()


@pytest.fixture
def served(server):
    served = server.registry.create("s", "value", estimator=ESTIMATOR)
    served.ingest(make_observations(CHUNKS[0]))
    assert facade_bytes(1) != facade_bytes(2)
    return served


def test_long_poll_names_the_version_of_its_bytes(server, served):
    real_get = ingest_during_next_lookup(served)
    status, headers, body = exchange(server, "GET", "/sessions/s/estimate?wait_version=1")
    assert status == 200
    assert headers["X-Repro-State-Version"] == "2"
    assert body == facade_bytes(2)
    assert {v: dumps_result(p) for v, p in cached(served, real_get).items()} == {2: body}


def test_subscription_event_names_the_version_of_its_bytes(server, served):
    real_get = ingest_during_next_lookup(served)
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}/sessions/s/subscribe?max_events=1"
    with urllib.request.urlopen(url, timeout=30) as response:
        assert response.headers["X-Repro-State-Version"] == "2"
        lines = response.read().decode("utf-8").split("\n")
    [event_id] = [int(line[4:]) for line in lines if line.startswith("id: ")]
    data = "\n".join(line[6:] for line in lines if line.startswith("data: "))
    assert (event_id, data.encode("utf-8")) == (2, facade_bytes(2))
    assert {v: dumps_result(p) for v, p in cached(served, real_get).items()} == {
        2: facade_bytes(2)
    }


def test_duplicate_reads_fold_into_one_computation_at_the_version_it_read(server):
    readers = 4
    gate = threading.Event()
    estimator = CountingEstimator(gate)
    session = OpenWorldSession("value", estimator=estimator)
    session.ingest(make_observations(CHUNKS[0]))
    served = server.registry.adopt("s", session)
    cache = server.registry.cache
    real_get = cache.get
    # Every reader looks up version 1 and misses; the ingest to version
    # 2 lands after the last of those lookups, before any computation.
    landed = threading.Barrier(
        readers,
        action=lambda: served.ingest(make_observations(CHUNKS[1])),
        timeout=10,
    )

    def get(key):
        _, version, *_ = key
        if version == 1:
            landed.wait()
        return real_get(key)

    cache.get = get
    answers = []
    threads = [
        threading.Thread(
            target=lambda: answers.append(
                exchange(server, "GET", "/sessions/s/estimate?wait_version=1")
            )
        )
        for _ in range(readers)
    ]
    for thread in threads:
        thread.start()
    assert estimator.started.wait(timeout=10)
    deadline = time.monotonic() + 10
    while server.registry.batcher.stats()["coalesced"] < readers - 1:
        assert time.monotonic() < deadline, server.registry.batcher.stats()
        time.sleep(0.005)
    gate.set()
    for thread in threads:
        thread.join(timeout=10)
    expected = facade_bytes(2, CountingEstimator())
    labelled = [(status, head["X-Repro-State-Version"], body) for status, head, body in answers]
    assert labelled == [(200, "2", expected)] * readers
    assert estimator.calls == 1
    assert server.registry.batcher.stats()["computed"] == 1
    cached_bytes = {v: dumps_result(p) for v, p in cached(served, real_get).items()}
    assert cached_bytes == {2: expected}
