"""repro.resilience: crash safety and graceful degradation primitives.

The layer that lets :mod:`repro.serving` survive *ungraceful* death and
*overload*, not just SIGTERM (the durable copy itself is the session
store's segment log, :mod:`repro.storage`):

* :mod:`repro.resilience.faults` -- deterministic fault injection:
  named fault points inside the durability-critical paths, armed via
  ``REPRO_FAULTS=storage.after_frame:crash@3``-style specs, so crash
  tests trigger at exact, reproducible sites;
* :mod:`repro.resilience.breaker` -- the per-session circuit breaker
  that trips after repeated estimator failures and half-opens on a
  timer;
* :mod:`repro.resilience.admission` -- the bounded admission gate
  (503 + ``Retry-After`` load shedding) and per-request deadline errors
  (504).

See DESIGN.md "Failure model and recovery" for the fsync trade-off
table, the crash matrix and the breaker state machine.
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

__all__ = [
    "AdmissionGate",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceededError",
    "FAULT_POINTS",
    "InjectedFaultError",
    "OverloadedError",
    "arm",
    "arm_from_env",
    "disarm",
    "fault_point",
    "hit_counts",
]
