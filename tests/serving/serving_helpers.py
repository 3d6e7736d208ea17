"""Shared helpers for the serving tests (imported, not a conftest)."""

from __future__ import annotations

import contextlib
import threading
import time
import urllib.error
import urllib.request

from repro.cluster.run import make_cluster
from repro.core.estimator import Estimate, SumEstimator
from repro.data.records import Observation
from repro.serving.http import make_server


def make_observations(rows, attribute="value"):
    """Observations from (entity_id, source_id, value) triples."""
    return [
        Observation(entity, {attribute: float(value)}, source)
        for entity, source, value in rows
    ]


def wait_until(predicate, timeout=5.0):
    """Poll ``predicate``, a check of some state, until it holds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "the state was never reached"
        time.sleep(0.001)


SIX_ROWS = [
    ("a", "s1", 10.0),
    ("b", "s1", 20.0),
    ("a", "s2", 10.0),
    ("c", "s2", 30.0),
    ("b", "s3", 20.0),
    ("d", "s3", 40.0),
]


class CountingEstimator(SumEstimator):
    """A deterministic estimator that counts (and can block) its calls.

    ``gate`` lets the coalescing test hold the first computation open
    while duplicate requests pile up behind it.
    """

    name = "counting"

    def __init__(self, gate: "threading.Event | None" = None) -> None:
        self.calls = 0
        self.started = threading.Event()
        self._gate = gate
        self._lock = threading.Lock()

    def estimate(self, sample, attribute):
        with self._lock:
            self.calls += 1
        self.started.set()
        if self._gate is not None:
            assert self._gate.wait(timeout=10)
        observed = sample.sum(attribute)
        return Estimate(
            observed=observed,
            delta=float(sample.c),
            corrected=observed + float(sample.c),
            count_estimate=float(sample.c),
            missing_count=0.0,
            value_estimate=0.0,
            coverage=1.0,
            cv_squared=0.0,
            estimator=self.name,
        )


# --------------------------------------------------------------------- #
# The two HTTP hops
# --------------------------------------------------------------------- #

#: The response headers clients read; both hops must send them alike.
CLIENT_HEADERS = (
    "Retry-After",
    "X-Repro-State-Version",
    "Content-Encoding",
    "Vary",
    "Connection",
)


class Hop:
    """One way to reach the API, addressed like a server (``server_address``)."""

    def __init__(self, server, registry):
        self.server_address = server.server_address
        self.registry = registry

    def gate(self, name):
        """The session's VersionGate: where a long-poll through this hop parks."""
        return self.registry.get(name)._gate


@contextlib.contextmanager
def http_hops(state_dir, *, persisted=False):
    """The API's two HTTP hops: a lone server and a one-worker thread-mode router.

    Yields the ``[direct, routed]`` :class:`Hop` pair; a routed session
    lives in the worker's registry, which always persists.  The lone
    server keeps its sessions in memory unless ``persisted``, when it
    persists them under ``<state_dir>/direct``.
    """
    server = make_server(state_dir=str(state_dir / "direct") if persisted else None)
    router_server, router, fleet = make_cluster(
        workers=1, state_dir=str(state_dir / "cluster"), mode="thread"
    )
    servers = (server, router_server)
    # A short poll interval keeps each shutdown() from waiting ~0.5 s.
    threads = [
        threading.Thread(target=each.serve_forever, args=(0.05,), daemon=True)
        for each in servers
    ]
    for thread in threads:
        thread.start()
    router.start()
    try:
        yield [
            Hop(server, server.registry),
            Hop(router_server, fleet.workers()[0]._server.registry),
        ]
    finally:
        router.stop()
        for each, thread in zip(servers, threads):
            each.shutdown()
            thread.join(timeout=10)
            each.server_close()
        fleet.stop(graceful=True)


def exchange(target, method, path, data=None, headers=None, timeout=10):
    """One urllib round-trip to a server or hop: ``(status, headers, body)``."""
    host, port = target.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", data=data, method=method, headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def same_answer(answers):
    """Assert the hops' ``(status, headers, body)`` answers match; return the first.

    Equal means equal status and body bytes, and equal values of every
    header in :data:`CLIENT_HEADERS`.
    """

    def read(headers):
        lowered = {name.lower(): value for name, value in headers.items()}
        return {name: lowered.get(name.lower()) for name in CLIENT_HEADERS}

    first, *others = answers
    for other in others:
        assert (other[0], other[2]) == (first[0], first[2]), (first, other)
        assert read(other[1]) == read(first[1]), (first, other)
    return first
