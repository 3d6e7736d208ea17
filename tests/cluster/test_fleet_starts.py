"""Every start after boot runs on the fleet's long-lived monitor thread.

``PR_SET_PDEATHSIG`` SIGKILLs a process-mode worker when the *thread*
that forked it exits, so a worker started on a short-lived thread (the
router's HTTP request thread, for a scale-out or a rolling restart)
must not die with that thread.  And since only one thread starts
workers, no worker is started twice at once: the supervisor used to
start a worker another thread was still starting, which left two
servers on one state shard.
"""

from __future__ import annotations

import collections
import os
import signal
import subprocess
import threading
import time

import pytest

from cluster_helpers import wait_for
from repro.cluster import fleet as fleet_module
from repro.cluster.fleet import Fleet, Worker, WorkerUnavailableError

#: How long a child killed by its parent thread's exit takes to show as
#: dead is milliseconds; a worker still running after this outlived it.
OUTLIVE_SECONDS = 1.0


@pytest.fixture
def process_fleet(tmp_path):
    fleet = Fleet(tmp_path, mode="process")
    fleet.start(1)
    yield fleet
    fleet.stop(graceful=False)


def _on_short_lived_thread(call):
    results = []
    thread = threading.Thread(target=lambda: results.append(call()))
    thread.start()
    thread.join(timeout=fleet_module.START_TIMEOUT)
    assert not thread.is_alive() and results
    return results[0]


def _assert_outlives_its_caller(worker):
    process, pid, restarts = worker._process, worker.pid, worker.restarts
    with pytest.raises(subprocess.TimeoutExpired):
        process.wait(timeout=OUTLIVE_SECONDS)
    assert (worker.pid, worker.restarts) == (pid, restarts)


def test_spawned_worker_outlives_the_thread_that_asked(process_fleet):
    worker = _on_short_lived_thread(process_fleet.spawn)
    assert worker.restarts == 0
    _assert_outlives_its_caller(worker)


def test_restarted_worker_outlives_the_thread_that_asked(process_fleet):
    worker = _on_short_lived_thread(lambda: process_fleet.restart_worker("w0"))
    assert worker.restarts == 1
    _assert_outlives_its_caller(worker)


def test_respawned_worker_stops_gracefully_with_the_fleet(tmp_path):
    fleet = Fleet(tmp_path, mode="process")
    fleet.start(1)
    try:
        worker = fleet.worker("w0")
        os.kill(worker.pid, signal.SIGKILL)
        wait_for(lambda: worker.restarts == 1, message="supervisor respawn")
        process = worker._process
    finally:
        fleet.stop(graceful=True)
    # SIGTERM lets the worker checkpoint and exit 0; a SIGKILL from its
    # starting thread's exit would show as -9.
    assert process.returncode == 0


@pytest.fixture
def counted_slow_starts(monkeypatch):
    """Count thread-mode starts per worker, each held open for 0.1 s.

    The delay widens the window in which a second thread could start the
    same worker; it is not a wait for any state.
    """
    monkeypatch.setattr(fleet_module, "SUPERVISE_INTERVAL", 0.005)
    starts = collections.Counter()
    real_start = Worker._start_thread

    def slow_start(self):
        starts[self.name] += 1
        time.sleep(0.1)
        real_start(self)

    monkeypatch.setattr(Worker, "_start_thread", slow_start)
    return starts


@pytest.fixture
def thread_fleet(tmp_path, counted_slow_starts):
    fleet = Fleet(tmp_path, mode="thread")
    fleet.start(1)
    yield fleet
    fleet.stop(graceful=False)


def test_spawn_starts_its_worker_once(thread_fleet, counted_slow_starts):
    worker = thread_fleet.spawn()
    assert worker.alive()
    assert counted_slow_starts == {"w0": 1, "w1": 1}


def test_restart_starts_its_worker_once(thread_fleet, counted_slow_starts):
    worker = thread_fleet.restart_worker("w0")
    assert worker.alive() and worker.restarts == 1
    assert counted_slow_starts == {"w0": 2}


def test_spawn_after_stop_is_refused(tmp_path):
    fleet = Fleet(tmp_path, mode="thread")
    fleet.start(1)
    fleet.stop(graceful=False)
    with pytest.raises(WorkerUnavailableError, match="stopping"):
        fleet.spawn()
    assert fleet.names() == ["w0"]
    assert not fleet.worker("w0").alive()


def test_failed_spawn_leaves_no_member(thread_fleet, monkeypatch):
    def refuse(self):
        raise WorkerUnavailableError(f"worker {self.name} refused to start")

    monkeypatch.setattr(Worker, "_start_thread", refuse)
    with pytest.raises(WorkerUnavailableError, match="w1"):
        thread_fleet.spawn()
    assert thread_fleet.names() == ["w0"]
