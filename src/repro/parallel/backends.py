"""Pluggable execution backends for embarrassingly parallel fan-out.

Every fan-out layer of the library -- the Monte-Carlo (θ_N, θ_λ) grid
search, the progressive replay's (dataset × estimator × prefix) cells, the
benchmark harness's scenario sweeps -- runs through one abstraction::

    backend = get_backend("process", n_workers=4)
    results = backend.map(fn, tasks, shared={"obs": numpy_array})

``map`` applies ``fn(task, shared)`` to every task and returns the results
**in task order**, whatever the execution schedule was.  Two
implementations cover the deployment spectrum:

``serial``
    Plain loop in the calling thread.  Zero overhead, the reference
    semantics the process backend must reproduce bit for bit.
``process``
    A persistent worker pool (:class:`~concurrent.futures.
    ProcessPoolExecutor`).  Tasks are submitted in *chunks* onto the pool's
    shared call queue, so idle workers steal the next chunk the moment they
    finish -- dynamic load balancing without a scheduler thread.  The
    ``shared`` mapping is pickled with each chunk, and its numpy arrays
    arrive read-only.  A crashed worker breaks the pool; the affected
    chunks are retried on a rebuilt pool (``REPRO_PARALLEL_RETRIES``
    rounds, default 1) and only a repeat failure surfaces as
    :class:`ParallelExecutionError` (never a hang).  ``KeyboardInterrupt``
    tears the pool down cleanly.

Determinism is the backends' contract, not an accident: tasks carry their
own :class:`numpy.random.SeedSequence` children (see
:mod:`repro.parallel.seeding`), results are reassembled by task index, and
therefore every backend at every worker count produces identical bytes.

The process-wide *default* backend (used when a
:class:`~repro.core.montecarlo.MonteCarloConfig` leaves ``backend=None``)
is ``serial`` unless overridden by :func:`set_default_backend` or the
``REPRO_BACKEND`` / ``REPRO_WORKERS`` environment variables -- the hook the
CI smoke job uses to re-run the whole estimator suite on the process
backend.  Inside a pool worker every resolution is serial (see
:func:`resolve_backend`).
"""

from __future__ import annotations

import atexit
import os
import sys
from abc import ABC, abstractmethod
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

import multiprocessing

import numpy as np

from repro.resilience.faults import fault_point
from repro.utils.exceptions import ReproError, ValidationError

__all__ = [
    "BACKENDS",
    "ParallelExecutionError",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "get_backend",
    "resolve_backend",
    "set_default_backend",
    "default_backend",
    "shutdown_backends",
]

#: Names accepted wherever a backend can be configured (specs, CLI, config).
BACKENDS = ("serial", "process")

#: Environment variables consulted for the process-wide default backend.
BACKEND_ENV = "REPRO_BACKEND"
WORKERS_ENV = "REPRO_WORKERS"

#: Chunks submitted per worker per ``map`` call.  Several small chunks per
#: worker (rather than one big slice each) is what lets fast workers steal
#: the stragglers' remaining work.
_CHUNKS_PER_WORKER = 4

#: Environment override for the process backend's crashed-chunk retry
#: budget (attempts beyond the first; 0 disables retrying).
RETRIES_ENV = "REPRO_PARALLEL_RETRIES"

_DEFAULT_CHUNK_RETRIES = 1

#: True in a process-pool worker (set by the pool initializer), where
#: :func:`resolve_backend` answers serial whatever it is asked for.
_IN_WORKER_PROCESS = False


def _process_worker_initializer() -> None:
    """Runs once in every freshly started process-pool worker.

    Marks the process as a worker and drops the fork-inherited backend
    cache -- those executors are dead copies (their queue-management
    threads only live in the parent) and must never be submitted to.
    """
    global _IN_WORKER_PROCESS
    _IN_WORKER_PROCESS = True
    _BACKEND_CACHE.clear()


class ParallelExecutionError(ReproError):
    """A backend failed structurally (crashed worker, dead pool, ...).

    Task-level exceptions raised by the mapped function itself are *not*
    wrapped -- they propagate unchanged, exactly as the serial backend
    would raise them.
    """


class ExecutionBackend(ABC):
    """Ordered ``map`` over independent tasks, with optional shared state."""

    #: Registry name of the backend ("serial", "process").
    name: str = "abstract"

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers

    @abstractmethod
    def map(
        self,
        fn: Callable[[Any, Mapping[str, Any]], Any],
        tasks: Sequence[Any],
        shared: "Mapping[str, Any] | None" = None,
    ) -> list[Any]:
        """Apply ``fn(task, shared)`` to every task; results in task order.

        ``shared`` is a read-only mapping broadcast to every invocation;
        tasks must not mutate it (the process backend hands them
        read-only copies of its numpy arrays).
        """

    def close(self) -> None:
        """Release pooled resources; the backend may be reused afterwards."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n_workers={self.n_workers})"


class SerialBackend(ExecutionBackend):
    """The reference implementation: a plain ordered loop, one worker."""

    name = "serial"

    def __init__(self, n_workers: int = 1) -> None:
        super().__init__(1)

    def map(self, fn, tasks, shared=None):
        context = dict(shared or {})
        return [fn(task, context) for task in tasks]


class ProcessBackend(ExecutionBackend):
    """Persistent process pool with chunked dynamic dispatch.

    Parameters
    ----------
    n_workers:
        Pool size.  The pool is created lazily on the first ``map`` and
        reused across calls, so repeated estimates amortise the worker
        start-up cost.
    start_method:
        ``multiprocessing`` start method.  Defaults to ``fork`` where
        available (cheap, no re-import) and ``spawn`` elsewhere; mapped
        functions must be module-level either way so tasks stay picklable.
    """

    name = "process"

    def __init__(
        self,
        n_workers: int,
        start_method: str | None = None,
        chunk_retries: "int | None" = None,
    ) -> None:
        super().__init__(n_workers)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._context = multiprocessing.get_context(start_method)
        self._executor: ProcessPoolExecutor | None = None
        if chunk_retries is None:
            raw = os.environ.get(RETRIES_ENV)
            try:
                chunk_retries = int(raw) if raw else _DEFAULT_CHUNK_RETRIES
            except ValueError:
                raise ValidationError(
                    f"{RETRIES_ENV} must be an integer, got {raw!r}"
                ) from None
        if chunk_retries < 0:
            raise ValidationError(
                f"chunk_retries must be >= 0, got {chunk_retries}"
            )
        self.chunk_retries = int(chunk_retries)
        self._chunks_retried = 0

    @property
    def start_method(self) -> str:
        """The multiprocessing start method of the worker pool."""
        return self._context.get_start_method()

    @property
    def chunks_retried(self) -> int:
        """Chunks re-submitted after a worker crash (for tests/telemetry)."""
        return self._chunks_retried

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=self._context,
                initializer=_process_worker_initializer,
            )
        return self._executor

    def map(self, fn, tasks, shared=None):
        tasks = list(tasks)
        if not tasks:
            return []
        chunk_size = max(
            1, -(-len(tasks) // (self.n_workers * _CHUNKS_PER_WORKER))
        )
        chunks = [
            tasks[i : i + chunk_size]
            for i in range(0, len(tasks), chunk_size)
        ]
        results = self._map_chunks(fn, chunks, dict(shared or {}))
        return [result for chunk in results for result in chunk]

    def _map_chunks(
        self,
        fn: Callable[[Any, Mapping[str, Any]], Any],
        chunks: "list[Sequence[Any]]",
        shared: dict[str, Any],
    ) -> "list[list[Any]]":
        """Run every chunk, re-submitting crashed ones on a rebuilt pool.

        A dead worker (killed, OOM) breaks the whole pool: every future
        that had not finished raises :class:`BrokenProcessPool`, whether
        its chunk was the culprit or merely queued behind it.  Those
        chunks -- and only those; completed results are kept -- are
        resubmitted on a fresh pool, up to ``chunk_retries`` extra
        rounds.  Reassembly stays by chunk index, so a retried run is
        bit-identical to an undisturbed one (tasks carry their own seed
        material; re-running is side-effect-free by the backend
        contract).

        Task-level exceptions are never retried: they are deterministic
        outcomes of the mapped function and propagate unchanged, exactly
        as the serial backend would raise them.
        """
        results: "list[list[Any] | None]" = [None] * len(chunks)
        pending = list(range(len(chunks)))
        attempt = 0
        while True:
            broken: "BaseException | None" = None
            failed: list[int] = []
            try:
                executor = self._ensure_executor()
                futures = [
                    (index, executor.submit(_run_chunk, fn, chunks[index], shared))
                    for index in pending
                ]
            except BrokenProcessPool as exc:
                broken, failed = exc, list(pending)
                futures = []
            try:
                for index, future in futures:
                    try:
                        results[index] = future.result()
                    except BrokenProcessPool as exc:
                        broken = exc
                        failed.append(index)
            except BaseException:
                # A task-level failure (or KeyboardInterrupt): cancel the
                # rest and propagate, exactly like the serial semantics.
                for _, future in futures:
                    future.cancel()
                if isinstance(sys.exc_info()[1], KeyboardInterrupt):
                    self._discard_pool()
                raise
            if broken is None:
                return results  # type: ignore[return-value]
            self._discard_pool()
            attempt += 1
            if attempt > self.chunk_retries:
                raise ParallelExecutionError(
                    f"a worker of the {self.n_workers}-worker process pool "
                    f"died unexpectedly and {len(failed)} chunk(s) still "
                    f"failed after {self.chunk_retries} retry round(s); the "
                    "pool has been torn down and will be recreated on the "
                    "next call"
                ) from broken
            self._chunks_retried += len(failed)
            pending = failed

    def _discard_pool(self) -> None:
        """Tear the pool down hard (crash / interrupt recovery path)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None


def _run_chunk(
    fn: Callable[[Any, Mapping[str, Any]], Any],
    chunk: Sequence[Any],
    shared: dict[str, Any],
) -> list[Any]:
    """Worker-side chunk executor: freeze the unpickled arrays, run the chunk."""
    fault_point("parallel.worker_entry")
    for value in shared.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return [fn(task, shared) for task in chunk]


# ---------------------------------------------------------------------- #
# Backend registry, caching, and the process-wide default
# ---------------------------------------------------------------------- #

_BACKEND_CLASSES: dict[str, type[ExecutionBackend]] = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}

#: Cached live backends keyed by (name, n_workers): pools persist across
#: estimate calls so the fan-out layers never pay start-up twice.
_BACKEND_CACHE: dict[tuple[str, int], ExecutionBackend] = {}

#: Explicit process-wide default (overrides the environment when set).
_DEFAULT_BACKEND: "tuple[str, int | None] | None" = None


def _validated_name(name: str) -> str:
    key = str(name).strip().lower()
    if key not in _BACKEND_CLASSES:
        raise ValidationError(
            f"unknown execution backend {name!r}; expected one of "
            f"{', '.join(BACKENDS)}"
        )
    return key


def _resolve_worker_count(name: str, n_workers: "int | None") -> int:
    if name == "serial":
        return 1
    if n_workers is None:
        return max(1, os.cpu_count() or 1)
    if n_workers < 1:
        raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
    return int(n_workers)


def set_default_backend(
    name: "str | None", n_workers: "int | None" = None
) -> "tuple[str, int | None] | None":
    """Set the process-wide default backend; returns the previous setting.

    ``None`` clears the override, falling back to the ``REPRO_BACKEND`` /
    ``REPRO_WORKERS`` environment variables and finally to ``serial``.
    """
    global _DEFAULT_BACKEND
    previous = _DEFAULT_BACKEND
    if name is None:
        _DEFAULT_BACKEND = None
    else:
        _DEFAULT_BACKEND = (_validated_name(name), n_workers)
    return previous


def default_backend() -> "tuple[str, int | None]":
    """The effective default ``(backend name, worker count or None)``."""
    if _DEFAULT_BACKEND is not None:
        return _DEFAULT_BACKEND
    env_name = os.environ.get(BACKEND_ENV)
    if env_name:
        env_workers = os.environ.get(WORKERS_ENV)
        try:
            workers = int(env_workers) if env_workers else None
        except ValueError:
            raise ValidationError(
                f"{WORKERS_ENV} must be an integer, got {env_workers!r}"
            ) from None
        return _validated_name(env_name), workers
    return "serial", None


def get_backend(
    backend: "str | ExecutionBackend", n_workers: "int | None" = None
) -> ExecutionBackend:
    """Return a (cached) backend instance for ``backend``/``n_workers``.

    Instances are cached by (name, resolved worker count), so every caller
    asking for ``("process", 4)`` shares one persistent pool.  An already
    constructed :class:`ExecutionBackend` passes through unchanged.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    name = _validated_name(backend)
    workers = _resolve_worker_count(name, n_workers)
    key = (name, workers)
    if key not in _BACKEND_CACHE:
        _BACKEND_CACHE[key] = _BACKEND_CLASSES[name](workers)
    return _BACKEND_CACHE[key]


def resolve_backend(
    backend: "str | ExecutionBackend | None", n_workers: "int | None" = None
) -> ExecutionBackend:
    """Like :func:`get_backend`, but ``None`` means "the configured default".

    This is the entry point the estimator and runner layers use: a config
    that does not pin a backend follows :func:`set_default_backend` (or the
    environment), keeping single-machine scripts, the CLI flags, and the
    CI process-backend smoke run all on one switch.

    Inside a process-pool worker every backend -- the default and an
    explicitly named one alike -- resolves to serial: the outer layer
    already owns the parallelism, and a nested pool would oversubscribe
    the CPUs, outlive :func:`shutdown_backends` in the parent (which
    then hangs), or hang on the fork-inherited executors, whose manager
    threads only live in the parent.
    """
    if _IN_WORKER_PROCESS:
        return get_backend("serial")
    if backend is None:
        default_name, default_workers = default_backend()
        return get_backend(default_name, n_workers if n_workers is not None else default_workers)
    return get_backend(backend, n_workers)


def shutdown_backends() -> None:
    """Close and forget every cached backend (used by tests and atexit)."""
    for backend in list(_BACKEND_CACHE.values()):
        backend.close()
    _BACKEND_CACHE.clear()


atexit.register(shutdown_backends)
