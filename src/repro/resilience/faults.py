"""Deterministic fault injection: named fault points armed by spec strings.

Crash tests that race ``kill -9`` against wall clock are flaky by
construction: the signal lands at a different instruction every run, so
a recovery bug that only manifests in one interleaving passes CI for
months.  This module replaces the race with *named fault points* --
instrumented call sites inside the durability-critical code paths::

    fault_point("parallel.worker_entry")    # top of a process-pool chunk
    fault_point("http.before_response")     # before any response bytes
    fault_point("cluster.before_transfer")  # migration: store archive opened, not sent
    fault_point("cluster.before_resume")    # migration: fenced, source not dropped
    fault_point("storage.after_frame")      # segment frame written, not yet fsynced or applied
    fault_point("storage.before_seal")      # active segment fsynced, not yet renamed
    fault_point("storage.after_seal")       # segment sealed, manifest not yet written

armed through the ``REPRO_FAULTS`` environment variable (or :func:`arm`
for in-process tests) with specs of the form::

    REPRO_FAULTS="storage.after_frame:crash@3"    # SIGKILL on the 3rd hit
    REPRO_FAULTS="storage.after_seal:raise"       # raise on the 1st hit
    REPRO_FAULTS="a.b:crash@2,c.d:raise@5"        # several points at once

``crash`` delivers ``SIGKILL`` to the *current process* -- genuinely
ungraceful death, no atexit hooks, no flushing -- which is exactly what
the segment log's recovery guarantee is stated against.  ``raise``
raises :class:`InjectedFaultError` (a :class:`~repro.utils.exceptions.
ReproError`), for exercising exception paths without dying.

A fault fires on exactly the ``@n``-th hit of its point (1-based,
default 1) and never again, so a restarted-without-faults process (or a
later retry inside the same process) runs clean.  Hit counters are
process-local; when the *same* armed fault must fire at most once
across a whole process tree (a pool of forked workers, say), set
``REPRO_FAULTS_STAMP_DIR`` to a directory: before firing, the point
atomically creates ``<dir>/<point>.fired`` and skips the fault if the
stamp already exists.

The no-faults fast path is one module-global ``is None`` check, so
instrumenting hot paths (every segment append) costs nothing in production.
"""

from __future__ import annotations

import os
import signal
import threading

from repro.utils.exceptions import ReproError, ValidationError

__all__ = [
    "FAULT_POINTS",
    "FAULTS_ENV",
    "STAMP_DIR_ENV",
    "InjectedFaultError",
    "arm",
    "arm_from_env",
    "disarm",
    "fault_point",
    "hit_counts",
]

#: Environment variable carrying the armed fault specs.
FAULTS_ENV = "REPRO_FAULTS"

#: Environment variable naming the cross-process one-shot stamp directory.
STAMP_DIR_ENV = "REPRO_FAULTS_STAMP_DIR"

#: The canonical instrumented sites.  Arming an unknown point is an
#: error -- a typo in a chaos-test matrix must fail loudly, not silently
#: test nothing.
FAULT_POINTS = frozenset(
    {
        "parallel.worker_entry",
        "http.before_response",
        "cluster.before_transfer",
        "cluster.before_resume",
        "storage.after_frame",
        "storage.before_seal",
        "storage.after_seal",
    }
)

_ACTIONS = ("crash", "raise")


class InjectedFaultError(ReproError):
    """The exception thrown by a ``raise``-action fault point."""


class _ArmedFault:
    __slots__ = ("point", "action", "nth")

    def __init__(self, point: str, action: str, nth: int) -> None:
        self.point = point
        self.action = action
        self.nth = nth


_lock = threading.Lock()
#: point -> armed fault; ``None`` means "not yet parsed from the env".
_armed: "dict[str, _ArmedFault] | None" = None
_hits: "dict[str, int]" = {}


def parse_spec(spec: str) -> "dict[str, _ArmedFault]":
    """Parse a ``REPRO_FAULTS`` spec string into armed faults.

    Grammar: comma-separated ``<point>:<action>[@<n>]`` clauses where
    ``action`` is ``crash`` or ``raise`` and ``n`` is the 1-based hit
    that fires (default 1).
    """
    armed: dict[str, _ArmedFault] = {}
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        point, sep, action = clause.partition(":")
        if not sep:
            raise ValidationError(
                f"malformed fault clause {clause!r}; expected '<point>:<action>[@<n>]'"
            )
        point = point.strip()
        action = action.strip()
        nth = 1
        if "@" in action:
            action, _, count = action.partition("@")
            try:
                nth = int(count)
            except ValueError:
                raise ValidationError(
                    f"fault clause {clause!r} has a non-integer hit count"
                ) from None
            if nth < 1:
                raise ValidationError(
                    f"fault clause {clause!r} must fire on hit >= 1"
                )
        if point not in FAULT_POINTS:
            raise ValidationError(
                f"unknown fault point {point!r}; known points: "
                f"{', '.join(sorted(FAULT_POINTS))}"
            )
        if action not in _ACTIONS:
            raise ValidationError(
                f"unknown fault action {action!r}; expected one of {', '.join(_ACTIONS)}"
            )
        armed[point] = _ArmedFault(point, action, nth)
    return armed


def arm(spec: "str | None") -> None:
    """Arm the given spec string (``None``/empty disarms); resets hit counts."""
    global _armed
    parsed = parse_spec(spec) if spec else {}
    with _lock:
        _armed = parsed if parsed else {}
        _hits.clear()


def disarm() -> None:
    """Disarm every fault point and reset hit counts."""
    arm(None)


def arm_from_env() -> None:
    """(Re)arm from the ``REPRO_FAULTS`` environment variable."""
    arm(os.environ.get(FAULTS_ENV))


def hit_counts() -> "dict[str, int]":
    """Hits per fault point since the last (re)arm (armed points only)."""
    with _lock:
        return dict(_hits)


def _stamp_claimed(point: str) -> bool:
    """Atomically claim the cross-process one-shot stamp for ``point``.

    Returns True when this process won the claim (the fault should
    fire), False when another process already fired it.  No stamp dir
    configured means every process fires independently.
    """
    stamp_dir = os.environ.get(STAMP_DIR_ENV)
    if not stamp_dir:
        return True
    path = os.path.join(stamp_dir, f"{point}.fired")
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def fault_point(name: str) -> None:
    """Declare an instrumented site; fires if an armed fault matches.

    ``crash`` SIGKILLs the current process on the spot; ``raise`` throws
    :class:`InjectedFaultError`.  Unarmed points return immediately.
    """
    global _armed
    if _armed is None:
        arm_from_env()
    armed = _armed
    if not armed:
        return
    fault = armed.get(name)
    if fault is None:
        return
    with _lock:
        _hits[name] = _hits.get(name, 0) + 1
        fire = _hits[name] == fault.nth
    if not fire or not _stamp_claimed(name):
        return
    if fault.action == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    raise InjectedFaultError(
        f"injected fault at {name!r} (hit {fault.nth})"
    )
