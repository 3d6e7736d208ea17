"""Unit tests of the bounded admission gate."""

from __future__ import annotations

import threading

import pytest

from repro.resilience.admission import AdmissionGate, OverloadedError
from repro.utils.exceptions import ValidationError


def test_bound_is_validated():
    with pytest.raises(ValidationError):
        AdmissionGate(0)


def test_sheds_beyond_the_bound():
    gate = AdmissionGate(2, retry_after=3.0)
    gate.admit()
    gate.admit()
    with pytest.raises(OverloadedError) as excinfo:
        gate.admit()
    assert excinfo.value.retry_after == 3.0
    gate.leave()
    gate.admit()  # a freed slot admits again
    gate.leave()
    gate.leave()


def test_context_manager_releases_on_exception():
    gate = AdmissionGate(1)
    with pytest.raises(RuntimeError):
        with gate:
            raise RuntimeError("handler blew up")
    with gate:  # the slot was released despite the exception
        pass


def test_stats_identities_under_hammer():
    gate = AdmissionGate(4)
    outcomes = []
    lock = threading.Lock()

    def worker() -> None:
        for _ in range(200):
            try:
                with gate:
                    pass
                result = "admitted"
            except OverloadedError:
                result = "shed"
            with lock:
                outcomes.append(result)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats = gate.stats()
    assert stats["admitted"] == outcomes.count("admitted")
    assert stats["shed"] == outcomes.count("shed")
    assert stats["admitted"] + stats["shed"] == 1600
    assert stats["in_flight"] == 0
    assert 1 <= stats["peak_in_flight"] <= 4
