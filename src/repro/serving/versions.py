"""The one versioned wait/notify primitive of a served session.

The long-poll (``?wait_version=``) and the subscription push path both
ask *"has the session reached version v yet?"*, and both wait on one
condition-variable primitive per session:

* the cache derives its keys from the same monotonic ``state_version``
  the gate publishes (a payload cached at version ``v`` is exactly the
  payload a waiter released at ``v`` would compute);
* :meth:`repro.serving.registry.ServedSession.wait_for_version` is a
  thin delegation to :meth:`VersionGate.wait_for`.

The cluster router's replica gate does not go through a
:class:`VersionGate`: it compares the primary's acked version with the
version last pushed to each replica, both recorded in its
``_RoutingTable`` (:mod:`repro.cluster.router`), and waits on nothing.

A :class:`VersionGate` never blocks writers: :meth:`advance` takes the
condition lock only long enough to publish and notify.  Waiters never
hold any session lock while parked (the served session calls
``wait_for`` *outside* its reader/writer lock), so an abandoned
subscriber can never pin an ingest.
"""

from __future__ import annotations

import threading

__all__ = ["VersionGate"]


class VersionGate:
    """Monotonic published version + condition-variable wait.

    Parameters
    ----------
    version:
        Initial published version (the session's ``state_version`` at
        registration time).
    """

    def __init__(self, version: int = 0) -> None:
        self._cond = threading.Condition()
        self._version = int(version)
        self._closed = False
        self._waiters = 0

    @property
    def version(self) -> int:
        """The most recently published version."""
        with self._cond:
            return self._version

    @property
    def closed(self) -> bool:
        """True once the gate has been retired (session removed)."""
        with self._cond:
            return self._closed

    @property
    def waiters(self) -> int:
        """Number of threads currently parked in :meth:`wait_for`.

        Surfaced through ``/stats`` so tests (and operators) can assert
        that abandoned subscribers release their wait slots.
        """
        with self._cond:
            return self._waiters

    def advance(self, version: int) -> None:
        """Publish ``version`` (monotonic; lower versions are ignored)."""
        with self._cond:
            if version > self._version:
                self._version = int(version)
                self._cond.notify_all()

    def close(self) -> None:
        """Retire the gate, waking every waiter immediately.

        Called when the owning session is removed; parked waiters return
        right away and observe :attr:`closed`.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def wait_for(self, version: int, timeout: "float | None" = None) -> "int | None":
        """Block until the published version reaches ``version``.

        Returns the published version (``>= version``) once reached, or
        immediately -- possibly still below ``version`` -- when the gate
        is closed.  Returns ``None`` on timeout.  Never called while
        holding a session lock.
        """
        target = int(version)
        with self._cond:
            self._waiters += 1
            try:
                reached = self._cond.wait_for(
                    lambda: self._version >= target or self._closed, timeout
                )
                return self._version if reached else None
            finally:
                self._waiters -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VersionGate(version={self._version}, closed={self._closed})"
