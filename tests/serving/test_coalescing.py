"""Tests for the request-coalescing batcher."""

from __future__ import annotations

import threading

from serving_helpers import wait_until
from repro.serving.batcher import CoalescingBatcher


def test_single_execution_returns_result():
    batcher = CoalescingBatcher()
    assert batcher.execute("k", lambda: 42) == 42
    assert batcher.stats() == {
        "computed": 1,
        "coalesced": 0,
        "abandoned": 0,
        "in_flight": 0,
    }


def test_simultaneous_identical_requests_compute_once():
    batcher = CoalescingBatcher()
    calls = []
    started = threading.Event()
    release = threading.Event()
    results: list[int] = []

    def slow_compute() -> int:
        calls.append(1)
        started.set()
        assert release.wait(timeout=5)
        return 7

    def request() -> None:
        results.append(batcher.execute("same-key", slow_compute))

    leader = threading.Thread(target=request)
    leader.start()
    assert started.wait(timeout=5)
    followers = [threading.Thread(target=request) for _ in range(4)]
    for t in followers:
        t.start()
    # Followers must be parked on the leader's latch, not computing.
    wait_until(lambda: batcher.stats()["coalesced"] == 4)
    assert len(calls) == 1
    release.set()
    leader.join(timeout=5)
    for t in followers:
        t.join(timeout=5)
    assert results == [7] * 5
    assert len(calls) == 1
    stats = batcher.stats()
    assert stats["computed"] == 1 and stats["coalesced"] == 4


def test_distinct_keys_compute_independently():
    batcher = CoalescingBatcher()
    out = batcher.execute_many([("a", lambda: 1), ("b", lambda: 2), ("a", lambda: 3)])
    # Duplicate key inside one batch folds into the batch's own leader.
    assert out == [1, 2, 1]
    stats = batcher.stats()
    assert stats["computed"] == 2 and stats["coalesced"] == 1


def test_failing_computation_leaves_its_sibling_computed():
    """A batch runs inline: one failure neither stops nor strands a sibling."""
    batcher = CoalescingBatcher()
    sibling_started = threading.Event()
    release = threading.Event()
    leader_errors: list[BaseException] = []
    follower_results: list[int] = []

    def failing() -> int:
        raise RuntimeError("estimator blew up")

    def sibling() -> int:
        sibling_started.set()
        assert release.wait(timeout=5)
        return 7

    def lead() -> None:
        try:
            batcher.execute_many([("bad", failing), ("good", sibling)])
        except RuntimeError as exc:
            leader_errors.append(exc)

    def follow() -> None:
        follower_results.append(batcher.execute("good", lambda: -1))

    leader = threading.Thread(target=lead)
    leader.start()
    assert sibling_started.wait(timeout=5)  # ran after its sibling failed
    follower = threading.Thread(target=follow)
    follower.start()
    wait_until(lambda: batcher.stats()["coalesced"] == 1)
    release.set()
    leader.join(timeout=5)
    follower.join(timeout=5)
    assert follower_results == [7]
    assert [str(exc) for exc in leader_errors] == ["estimator blew up"]
    stats = batcher.stats()
    assert stats["computed"] == 2 and stats["in_flight"] == 0


def test_exceptions_propagate_to_leader_and_followers():
    batcher = CoalescingBatcher()
    started = threading.Event()
    release = threading.Event()
    errors: list[BaseException] = []

    def failing() -> None:
        started.set()
        release.wait(timeout=5)
        raise RuntimeError("estimator blew up")

    def request() -> None:
        try:
            batcher.execute("k", failing)
        except RuntimeError as exc:
            errors.append(exc)

    leader = threading.Thread(target=request)
    leader.start()
    started.wait(timeout=5)
    follower = threading.Thread(target=request)
    follower.start()
    release.set()
    leader.join(timeout=5)
    follower.join(timeout=5)
    assert len(errors) == 2
    assert all("estimator blew up" in str(e) for e in errors)
    assert batcher.in_flight() == 0  # failed computations are cleaned up


def test_completed_keys_recompute_on_next_request():
    batcher = CoalescingBatcher()
    values = iter([1, 2])
    assert batcher.execute("k", lambda: next(values)) == 1
    # Not coalesced: the first computation already completed and left the
    # in-flight table (the version-keyed cache, not the batcher, is what
    # de-duplicates across time).
    assert batcher.execute("k", lambda: next(values)) == 2


def test_empty_batch():
    assert CoalescingBatcher().execute_many([]) == []
