"""Bounded admission and per-request deadlines: overload sheds, not queues.

A :class:`ThreadingHTTPServer` accepts every connection and gives it a
thread, so under overload the failure mode is silent: thousands of
threads pile onto the session locks, every request gets slower, and no
client can tell load shedding from a hang.  The :class:`AdmissionGate`
makes the bound explicit -- at most ``max_inflight`` requests execute at
once, and a request that finds every slot taken is *shed* at once with
:class:`OverloadedError` (HTTP 503 plus a ``Retry-After`` hint) while
the server stays healthy for the admitted ones.

:class:`DeadlineExceededError` is the per-request companion: a request
carrying ``?timeout_ms=`` that cannot be answered in time gets a clean
HTTP 504 and its partially-computed work is abandoned to the coalescer
(where a later identical request can still pick the finished result up
from the cache -- computation is never corrupted, only the response is
given up on).
"""

from __future__ import annotations

import threading
from typing import Any

from repro.utils.exceptions import ReproError, ValidationError

__all__ = ["AdmissionGate", "DeadlineExceededError", "OverloadedError"]


class OverloadedError(ReproError):
    """The admission gate is full; retry after ``retry_after`` seconds."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceededError(ReproError):
    """The request's deadline expired before the answer was ready."""


class AdmissionGate:
    """Counting gate over concurrently executing requests.

    Parameters
    ----------
    max_inflight:
        Concurrent-request bound (>= 1).
    retry_after:
        The ``Retry-After`` hint (seconds) attached to shed requests.

    Admission never blocks: the bounded "queue" is the set of
    admitted-but-not-yet-scheduled threads.
    """

    def __init__(
        self,
        max_inflight: int,
        *,
        retry_after: float = 1.0,
    ) -> None:
        if max_inflight < 1:
            raise ValidationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.max_inflight = int(max_inflight)
        self.retry_after = float(retry_after)
        self._slots = threading.BoundedSemaphore(self.max_inflight)
        self._lock = threading.Lock()
        self._admitted = 0
        self._shed = 0
        self._in_flight = 0
        self._peak_in_flight = 0

    def __enter__(self) -> "AdmissionGate":
        self.admit()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.leave()

    def admit(self) -> None:
        """Claim a slot or raise :class:`OverloadedError`."""
        acquired = self._slots.acquire(blocking=False)
        with self._lock:
            if not acquired:
                self._shed += 1
                raise OverloadedError(
                    f"server is at its {self.max_inflight}-request admission "
                    "bound; request shed",
                    retry_after=self.retry_after,
                )
            self._admitted += 1
            self._in_flight += 1
            self._peak_in_flight = max(self._peak_in_flight, self._in_flight)

    def leave(self) -> None:
        """Release the slot claimed by :meth:`admit`."""
        with self._lock:
            self._in_flight -= 1
        self._slots.release()

    def stats(self) -> "dict[str, int]":
        """Counters for ``/stats``: admitted, shed, in-flight, peak."""
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "admitted": self._admitted,
                "shed": self._shed,
                "in_flight": self._in_flight,
                "peak_in_flight": self._peak_in_flight,
            }
