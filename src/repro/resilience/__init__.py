"""repro.resilience: crash safety and graceful degradation primitives.

The layer that lets :mod:`repro.serving` survive *ungraceful* death and
*overload*, not just SIGTERM:

* :mod:`repro.resilience.wal` -- the per-session journal
  (length-prefixed, CRC32-framed records; configurable fsync policy;
  torn-tail recovery) whose references cross-check the session's store
  at restart; its fsync policies drive the stores' segment logs too;
* :mod:`repro.resilience.faults` -- deterministic fault injection:
  named fault points inside the durability-critical paths, armed via
  ``REPRO_FAULTS=wal.before_fsync:crash@3``-style specs, so crash tests
  trigger at exact, reproducible sites;
* :mod:`repro.resilience.breaker` -- the per-session circuit breaker
  that trips after repeated estimator failures and half-opens on a
  timer;
* :mod:`repro.resilience.admission` -- the bounded admission gate
  (503 + ``Retry-After`` load shedding) and per-request deadline errors
  (504).

See DESIGN.md "Failure model and recovery" for the WAL framing, the
fsync trade-off table, the crash matrix and the breaker state machine.
"""

from repro.resilience.admission import (
    AdmissionGate,
    DeadlineExceededError,
    OverloadedError,
)
from repro.resilience.breaker import CircuitBreaker, CircuitOpenError
from repro.resilience.faults import (
    FAULT_POINTS,
    InjectedFaultError,
    arm,
    arm_from_env,
    disarm,
    fault_point,
    hit_counts,
)
from repro.resilience.wal import (
    DEFAULT_BATCH_EVERY,
    FSYNC_POLICIES,
    WalCorruptionError,
    WriteAheadLog,
    read_records,
)

__all__ = [
    "AdmissionGate",
    "CircuitBreaker",
    "CircuitOpenError",
    "DEFAULT_BATCH_EVERY",
    "DeadlineExceededError",
    "FAULT_POINTS",
    "FSYNC_POLICIES",
    "InjectedFaultError",
    "OverloadedError",
    "WalCorruptionError",
    "WriteAheadLog",
    "arm",
    "arm_from_env",
    "disarm",
    "fault_point",
    "hit_counts",
    "read_records",
]
