"""Pluggable parallel execution for the Monte-Carlo grid and replays.

Public surface of the subsystem (see :mod:`repro.parallel.backends` for the
execution model and :mod:`repro.parallel.seeding` for the determinism
argument)::

    from repro.parallel import get_backend, spawn_task_seeds

    backend = get_backend("process", n_workers=4)
    seeds = spawn_task_seeds(0, len(tasks))          # one child per task
    results = backend.map(fn, tasks, shared={...})   # ordered, bit-identical
"""

from repro.parallel.backends import (
    BACKENDS,
    ExecutionBackend,
    ParallelExecutionError,
    ProcessBackend,
    SerialBackend,
    default_backend,
    get_backend,
    resolve_backend,
    set_default_backend,
    shutdown_backends,
)
from repro.parallel.seeding import root_seed_sequence, spawn_task_seeds

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "ParallelExecutionError",
    "SerialBackend",
    "ProcessBackend",
    "get_backend",
    "resolve_backend",
    "set_default_backend",
    "default_backend",
    "shutdown_backends",
    "root_seed_sequence",
    "spawn_task_seeds",
]
