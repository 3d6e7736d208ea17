"""Tests for the execution backends (repro.parallel.backends).

The mapped functions live at module level because the process backend
pickles tasks by reference into forked/spawned workers.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.parallel import (
    BACKENDS,
    ParallelExecutionError,
    ProcessBackend,
    SerialBackend,
    default_backend,
    get_backend,
    resolve_backend,
    set_default_backend,
    shutdown_backends,
)
from repro.utils.exceptions import ValidationError


def _square(task, shared):
    return task * task


def _add_shared(task, shared):
    return float(shared["base"][task] + shared["offset"])


def _fail_on_three(task, shared):
    if task == 3:
        raise RuntimeError("task three is broken")
    return task


def _hard_crash(task, shared):
    os._exit(17)  # simulates a segfaulting / OOM-killed worker


def _mutate_shared(task, shared):
    shared["base"][0] = -1.0
    return task


@pytest.fixture(autouse=True)
def _clean_backend_state():
    # Restore (not clear!) the pre-test default: under the CI smoke run the
    # session-wide default is "process" (pytest --backend process) and must
    # survive this module for the rest of the suite.
    from repro.parallel import backends as backends_module

    previous = backends_module._DEFAULT_BACKEND
    yield
    shutdown_backends()
    backends_module._DEFAULT_BACKEND = previous


def _all_backends():
    return [
        SerialBackend(),
        ProcessBackend(1),
        ProcessBackend(2),
    ]


class TestMapSemantics:
    @pytest.mark.parametrize("backend", _all_backends(), ids=lambda b: f"{b.name}-{b.n_workers}")
    def test_ordered_results(self, backend):
        with backend:
            assert backend.map(_square, list(range(20))) == [i * i for i in range(20)]

    @pytest.mark.parametrize("backend", _all_backends(), ids=lambda b: f"{b.name}-{b.n_workers}")
    def test_shared_state_broadcast(self, backend):
        base = np.arange(10, dtype=float)
        with backend:
            results = backend.map(
                _add_shared, list(range(10)), shared={"base": base, "offset": 0.5}
            )
        assert results == [i + 0.5 for i in range(10)]

    @pytest.mark.parametrize("backend", _all_backends(), ids=lambda b: f"{b.name}-{b.n_workers}")
    def test_empty_task_list(self, backend):
        with backend:
            assert backend.map(_square, []) == []

    @pytest.mark.parametrize("backend", _all_backends(), ids=lambda b: f"{b.name}-{b.n_workers}")
    def test_task_exception_propagates_unwrapped(self, backend):
        # Ordinary task failures must raise exactly what the serial loop
        # would raise, not a ParallelExecutionError.
        with backend:
            with pytest.raises(RuntimeError, match="task three"):
                backend.map(_fail_on_three, list(range(6)))

    def test_process_shared_views_are_read_only(self):
        with ProcessBackend(1) as backend:
            with pytest.raises(ValueError):
                backend.map(_mutate_shared, [0], shared={"base": np.zeros(3)})

    def test_more_tasks_than_workers(self):
        with ProcessBackend(2) as backend:
            assert backend.map(_square, list(range(101))) == [i * i for i in range(101)]


class TestWorkerCrash:
    def test_crash_raises_parallel_execution_error(self):
        # A dying worker must surface as a clean error, never a hang.
        backend = ProcessBackend(2)
        with backend:
            with pytest.raises(ParallelExecutionError, match="died"):
                backend.map(_hard_crash, [1, 2, 3, 4])

    def test_pool_recovers_after_crash(self):
        backend = ProcessBackend(2)
        with backend:
            with pytest.raises(ParallelExecutionError):
                backend.map(_hard_crash, [1])
            assert backend.map(_square, [1, 2, 3]) == [1, 4, 9]


class TestRegistry:
    def test_backend_names(self):
        assert BACKENDS == ("serial", "process")

    def test_get_backend_caches_instances(self):
        assert get_backend("process", 2) is get_backend("process", 2)
        assert get_backend("process", 2) is not get_backend("process", 1)

    def test_get_backend_passthrough(self):
        backend = SerialBackend()
        assert get_backend(backend) is backend

    def test_unknown_backend_lists_choices(self):
        for name in ("warp-drive", "thread"):
            with pytest.raises(ValidationError, match="serial, process$"):
                get_backend(name)

    def test_invalid_worker_count(self):
        with pytest.raises(ValidationError):
            get_backend("process", 0)

    def test_serial_ignores_worker_count(self):
        assert get_backend("serial", 8).n_workers == 1

    def test_default_backend_is_serial(self, monkeypatch):
        # With no override and no environment, the default must be serial.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        set_default_backend(None)
        assert default_backend()[0] == "serial"
        assert resolve_backend(None).name == "serial"

    def test_set_default_backend_round_trip(self):
        previous = set_default_backend("process", 2)
        try:
            assert default_backend() == ("process", 2)
            backend = resolve_backend(None)
            assert backend.name == "process" and backend.n_workers == 2
        finally:
            set_default_backend(*previous) if previous else set_default_backend(None)

    def test_env_default_backend(self, monkeypatch):
        set_default_backend(None)  # the explicit override outranks the env
        monkeypatch.setenv("REPRO_BACKEND", "process")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_backend() == ("process", 3)
        monkeypatch.setenv("REPRO_WORKERS", "nope")
        with pytest.raises(ValidationError, match="REPRO_WORKERS"):
            default_backend()
        monkeypatch.delenv("REPRO_WORKERS")
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        with pytest.raises(ValidationError, match="serial, process$"):
            default_backend()

    def test_shutdown_backends_clears_cache(self):
        first = get_backend("process", 2)
        shutdown_backends()
        assert get_backend("process", 2) is not first


def _resolve_default_name(task, shared):
    from repro.parallel.backends import resolve_backend

    return resolve_backend(None).name


def _resolve_named_process(task, shared):
    from repro.parallel.backends import resolve_backend

    return resolve_backend("process", 2).name


class TestNestedResolution:
    """Regression: a pool worker must never open a pool of its own.

    Without the worker guard, a process-wide default of "process" (e.g. the
    CI smoke run or REPRO_BACKEND=process) deadlocks any nested fan-out:
    workers re-resolve the inherited default onto a fork-inherited executor
    whose manager thread only exists in the parent.  A backend named
    explicitly (a spec's ``backend=process``) gets the same answer: each
    worker would otherwise start a pool that ``shutdown_backends()`` in the
    parent never reaches.
    """

    def test_process_worker_resolves_default_to_serial(self):
        set_default_backend("process", 2)
        with ProcessBackend(2) as backend:
            assert backend.map(_resolve_default_name, [0]) == ["serial"]

    def test_process_worker_resolves_named_backend_to_serial(self):
        with ProcessBackend(2) as backend:
            assert backend.map(_resolve_named_process, [0, 1]) == ["serial"] * 2

    def test_parent_still_follows_default(self):
        set_default_backend("process", 2)
        assert resolve_backend(None).name == "process"

    def test_replay_with_process_default_completes(self):
        # The exact shape that used to hang: runner cells on the process
        # default, each cell holding a backend-less Monte-Carlo estimator.
        from repro.datasets.toy_example import generate_toy_example
        from repro.evaluation.runner import ProgressiveRunner

        spec = ["monte-carlo?seed=1&n_runs=1&n_count_steps=3"]
        reference = ProgressiveRunner(spec, backend="serial").run(
            generate_toy_example(), step=3
        )
        set_default_backend("process", 2)
        result = ProgressiveRunner(spec).run(generate_toy_example(), step=3)
        assert result.runtime["backend"] == "process"
        series, ref = result.series[spec[0]], reference.series[spec[0]]
        assert series.estimates == ref.estimates
        assert series.count_estimates == ref.count_estimates
