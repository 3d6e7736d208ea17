"""Graceful degradation: deadlines (504), shedding (503), breakers, readiness."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from serving_helpers import SIX_ROWS, make_observations
from repro.core.estimator import Estimate, SumEstimator
from repro.resilience.admission import DeadlineExceededError
from repro.serving.http import make_server
from repro.serving.registry import SessionRegistry
from repro.utils.exceptions import ReproError


def call(server, method, path, body=None):
    """One HTTP round-trip; returns (status, headers, raw bytes)."""
    host, port = server.server_address[:2]
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data is not None else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


@pytest.fixture
def serve():
    """Factory fixture: start a server around a prepared registry."""
    started = []

    def start(registry=None, **kwargs):
        server = make_server(registry=registry, **kwargs)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


class BlockingEstimator(SumEstimator):
    """Blocks until released; lets tests hold a computation open."""

    name = "blocking"

    def __init__(self) -> None:
        self.started = threading.Event()
        self.release = threading.Event()

    def estimate(self, sample, attribute):
        self.started.set()
        assert self.release.wait(timeout=30)
        observed = sample.sum(attribute)
        return Estimate(
            observed=observed,
            delta=0.0,
            corrected=observed,
            count_estimate=float(sample.c),
            missing_count=0.0,
            value_estimate=0.0,
            coverage=1.0,
            cv_squared=0.0,
            estimator=self.name,
        )


class ExplodingEstimator(SumEstimator):
    """Fails with a non-Repro error: the breaker must count these."""

    name = "exploding"

    def estimate(self, sample, attribute):
        raise ZeroDivisionError("estimator bug")


def adopted_session(registry, estimator, name="s"):
    from repro.api.session import OpenWorldSession

    session = OpenWorldSession("value", estimator=estimator)
    session.ingest(make_observations(SIX_ROWS))
    return registry.adopt(name, session)


class TestDeadlines:
    def test_timeout_ms_expiry_is_504(self, serve):
        registry = SessionRegistry()
        estimator = BlockingEstimator()
        adopted_session(registry, estimator)
        server = serve(registry=registry)
        try:
            status, _, body = call(server, "GET", "/sessions/s/estimate?timeout_ms=50")
            assert status == 504
            assert "deadline" in json.loads(body)["error"]
        finally:
            estimator.release.set()

    def test_abandoned_computation_still_reaches_the_cache(self, serve):
        registry = SessionRegistry()
        estimator = BlockingEstimator()
        served = adopted_session(registry, estimator)
        server = serve(registry=registry)
        status, _, _ = call(server, "GET", "/sessions/s/estimate?timeout_ms=50")
        assert status == 504
        estimator.release.set()
        # The detached leader finishes and populates the version-keyed
        # cache; the retry is a pure cache hit (no second computation).
        deadline_retries = 100
        for _ in range(deadline_retries):
            status, _, body = call(server, "GET", "/sessions/s/estimate")
            if status == 200:
                break
        assert status == 200
        assert registry.batcher.stats()["abandoned"] == 1

    def test_deadline_exceeded_maps_to_504_not_500(self):
        assert issubclass(DeadlineExceededError, ReproError)

    def test_bad_timeout_values_are_400(self, serve):
        registry = SessionRegistry()
        adopted_session(registry, BlockingEstimator())
        server = serve(registry=registry)
        for bad in ("abc", "0", "-5"):
            status, _, _ = call(
                server, "GET", f"/sessions/s/estimate?timeout_ms={bad}"
            )
            assert status == 400


class TestAdmission:
    def test_overload_sheds_with_retry_after(self, serve):
        registry = SessionRegistry()
        estimator = BlockingEstimator()
        adopted_session(registry, estimator)
        server = serve(registry=registry, max_inflight=1)
        try:
            blocked = threading.Thread(
                target=call, args=(server, "GET", "/sessions/s/estimate")
            )
            blocked.start()
            assert estimator.started.wait(timeout=30)
            status, headers, body = call(server, "GET", "/sessions")
            assert status == 503
            assert headers["Retry-After"] == "1"
            assert "shed" in json.loads(body)["error"]
            # Health probes are exempt from the gate.
            status, _, _ = call(server, "GET", "/healthz")
            assert status == 200
            status, _, _ = call(server, "GET", "/readyz")
            assert status == 200
        finally:
            estimator.release.set()
            blocked.join(timeout=30)
        status, _, _ = call(server, "GET", "/sessions")
        assert status == 200

    def test_gate_stats_in_stats_payload(self, serve):
        server = serve(max_inflight=4)
        status, _, body = call(server, "GET", "/stats")
        assert status == 200
        payload = json.loads(body)
        assert payload["admission"]["max_inflight"] == 4
        assert payload["admission"]["admitted"] >= 1  # this very request


class TestCircuitBreaker:
    def test_repeated_estimator_failures_trip_to_503(self, serve):
        registry = SessionRegistry(breaker_threshold=3)
        adopted_session(registry, ExplodingEstimator())
        server = serve(registry=registry)
        for _ in range(3):
            status, _, _ = call(server, "GET", "/sessions/s/estimate")
            assert status == 500  # the underlying ZeroDivisionError
        status, headers, body = call(server, "GET", "/sessions/s/estimate")
        assert status == 503
        assert "Retry-After" in headers
        assert "circuit breaker" in json.loads(body)["error"]
        _, _, body = call(server, "GET", "/stats")
        (block,) = json.loads(body)["sessions"]
        assert block["circuit_breaker"]["state"] == "open"
        assert block["circuit_breaker"]["times_opened"] == 1

    def test_client_errors_do_not_trip_the_breaker(self, serve):
        registry = SessionRegistry(breaker_threshold=2)
        registry.create("empty", "value")
        server = serve(registry=registry)
        for _ in range(5):
            status, _, _ = call(server, "GET", "/sessions/empty/estimate")
            assert status == 404  # InsufficientDataError: client-class
        _, _, body = call(server, "GET", "/stats")
        (block,) = json.loads(body)["sessions"]
        assert block["circuit_breaker"]["state"] == "closed"


class TestReadiness:
    def test_ready_server_reports_ready(self, serve):
        server = serve()
        status, _, body = call(server, "GET", "/readyz")
        assert status == 200
        assert json.loads(body) == {"status": "ready", "sessions": 0}

    def test_recovering_is_503_everywhere_but_health(self, serve, tmp_path):
        # defer_restore marks the registry recovering until load_state runs
        # -- exactly the window a restarted server is replaying its WALs.
        server = serve(state_dir=str(tmp_path), defer_restore=True)
        status, headers, body = call(server, "GET", "/readyz")
        assert status == 503
        assert json.loads(body) == {"status": "recovering"}
        assert headers["Retry-After"] == "1"
        status, _, _ = call(server, "GET", "/healthz")
        assert status == 200  # liveness answers throughout
        status, _, _ = call(server, "GET", "/sessions")
        assert status == 503  # work routes shed while recovering
        server.registry.load_state()
        status, _, _ = call(server, "GET", "/readyz")
        assert status == 200
        status, _, _ = call(server, "GET", "/sessions")
        assert status == 200
