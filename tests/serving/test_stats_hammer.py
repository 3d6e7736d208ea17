"""Hammer the /stats counters from many threads; they must stay *exact*.

The statistics surfaces are all lock-protected (see the note in
``repro/serving/cache.py``); these tests pin the stronger property that
the locks buy: under arbitrary interleavings the counters satisfy exact
accounting identities, not merely "roughly add up".
"""

from __future__ import annotations

import threading

from serving_helpers import SIX_ROWS, make_observations
from repro.serving.cache import EstimateCache, request_key
from repro.serving.registry import SessionRegistry
from repro.storage.segments import read_frames

THREADS = 8
ROUNDS = 50


def hammer(worker):
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def test_cache_hit_miss_counts_are_exact():
    cache = EstimateCache(max_entries=1024)
    payload = {"x": 1}

    def worker(index):
        for round_number in range(ROUNDS):
            key = request_key("s#1", round_number, "estimate", "", "")
            cache.put(key, payload)
            assert cache.get(key) == payload  # hit: just inserted, LRU big
            cache.get(request_key("absent#1", round_number, "estimate", "", str(index)))

    hammer(worker)
    stats = cache.stats()
    total_gets = THREADS * ROUNDS * 2
    assert stats["hits"] + stats["misses"] == total_gets
    assert stats["misses"] == THREADS * ROUNDS  # every 'absent' get, only those


def test_session_and_registry_counters_are_exact():
    registry = SessionRegistry()
    served = registry.create("s", "value", estimator="bucket/frequency")
    served.ingest(make_observations(SIX_ROWS))

    def worker(index):
        for round_number in range(ROUNDS):
            served.ingest(
                make_observations([(f"e{index}-{round_number}", f"w{index}", 1.0)])
            )
            served.estimate_payload()
            served.query_payload("SELECT SUM(value) FROM data")

    hammer(worker)
    stats = registry.stats()
    (block,) = stats["sessions"]
    assert block["ingest_requests"] == 1 + THREADS * ROUNDS
    assert block["read_requests"] == 2 * THREADS * ROUNDS
    # Every read was either a cache hit or entered the coalescer; folded
    # requests plus led computations account for every miss.
    coalescer = stats["coalescer"]
    answer_cache = stats["answer_cache"]
    assert answer_cache["hits"] + answer_cache["misses"] == block["read_requests"]
    assert coalescer["computed"] + coalescer["coalesced"] == answer_cache["misses"]
    assert coalescer["in_flight"] == 0
    # And the session state itself is exact: every ingest applied once.
    assert block["n_ingested"] == len(SIX_ROWS) + THREADS * ROUNDS
    assert block["state_version"] == 1 + THREADS * ROUNDS


def test_segment_log_append_counters_are_exact(tmp_path):
    registry = SessionRegistry(state_dir=tmp_path)
    served = registry.create("s", "value", estimator="bucket/frequency")

    def worker(index):
        for round_number in range(ROUNDS):
            served.ingest(
                make_observations([(f"e{index}-{round_number}", f"w{index}", 1.0)])
            )

    hammer(worker)
    stats = served.stats()
    assert stats["store"]["segment_log"]["appends"] == THREADS * ROUNDS
    assert stats["state_version"] == THREADS * ROUNDS
    # The segment log holds exactly one single-row frame per ingest.
    frames = read_frames(tmp_path / "store" / "s" / "active.seg")
    assert [frame.n_rows for frame in frames] == [1] * (THREADS * ROUNDS)
    versions = [frame.state_version for frame in frames]
    assert versions == list(range(1, THREADS * ROUNDS + 1))  # in commit order
