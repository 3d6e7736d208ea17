"""repro.serving: concurrent query serving over live open-world sessions.

The layer that turns the single-caller :class:`~repro.api.session.
OpenWorldSession` facade into something that can answer many clients over
a still-ingesting sample:

* :mod:`repro.serving.locks` -- a writer-preferring reader/writer lock;
* :mod:`repro.serving.registry` -- :class:`ServedSession` (one session
  behind the lock) and the thread-safe :class:`SessionRegistry` with
  segment-log persistence (crash = re-attach, bit-exact);
* :mod:`repro.serving.cache` -- the :class:`EstimateCache`, LRU-bounded
  and keyed by ``(session, state_version, spec, ...)`` so invalidation
  on ingest is exact and free;
* :mod:`repro.serving.batcher` -- the :class:`CoalescingBatcher` folding
  duplicate in-flight requests into one computation, with per-request
  deadlines that abandon the response, never the computation;
* :mod:`repro.serving.http` -- the stdlib HTTP JSON API
  (``repro.cli serve``), whose responses are byte-identical to the
  equivalent in-process session calls, with liveness/readiness probes,
  admission-gate load shedding and per-session circuit breaking from
  :mod:`repro.resilience`.

See DESIGN.md "Serving architecture" for the locking discipline and the
soundness argument of version-keyed caching, and "Failure model and
recovery" for the crash-safety story.
"""

from repro.serving.batcher import CoalescingBatcher
from repro.serving.cache import DEFAULT_CACHE_ENTRIES, EstimateCache, request_key
from repro.serving.http import ReproServer, dumps_result, make_server, run_server
from repro.serving.locks import RWLock
from repro.serving.registry import (
    DuplicateSessionError,
    ServedSession,
    SessionRegistry,
    UnknownSessionError,
)

__all__ = [
    "CoalescingBatcher",
    "DEFAULT_CACHE_ENTRIES",
    "DuplicateSessionError",
    "EstimateCache",
    "ReproServer",
    "RWLock",
    "ServedSession",
    "SessionRegistry",
    "UnknownSessionError",
    "dumps_result",
    "make_server",
    "request_key",
    "run_server",
]
