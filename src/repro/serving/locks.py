"""A writer-preferring reader/writer lock for served sessions.

The serving layer's workload is read-heavy (estimates and queries vastly
outnumber ingests), so readers must proceed in parallel; but an ingest
mutates the session's integration state in place, so it needs exclusive
access, and it must not starve behind an unbroken stream of readers.
Hence *writer preference*: once a writer is waiting, newly arriving
readers queue behind it.

The implementation is the textbook condition-variable construction --
one mutex, one condition, four counters -- rather than anything clever:
the lock is held across estimator computations lasting milliseconds to
seconds, so fairness and obvious correctness beat micro-optimised
acquisition paths.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = ["RWLock"]


class RWLock:
    """Multiple concurrent readers or one exclusive writer, writers first.

    Usage::

        lock = RWLock()
        with lock.read_locked():
            ... shared reads ...
        with lock.write_locked():
            ... exclusive mutation ...

    The lock is not reentrant in either direction; a thread acquiring the
    write lock while holding the read lock (or vice versa) deadlocks, as
    with :class:`threading.Lock`.  The serving layer never nests: cache
    misses compute entirely under one read acquisition, ingests entirely
    under one write acquisition.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._active_readers = 0
        self._waiting_readers = 0
        self._waiting_writers = 0
        self._writer_active = False

    @property
    def waiting(self) -> int:
        """Number of readers and writers parked until the lock frees up.

        Tests wait on this count instead of sleeping.
        """
        with self._cond:
            return self._waiting_readers + self._waiting_writers

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """Context manager holding the shared (reader) side of the lock."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """Context manager holding the exclusive (writer) side of the lock."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    def acquire_read(self) -> None:
        """Block until no writer is active or waiting, then enter shared."""
        with self._cond:
            self._waiting_readers += 1
            try:
                while self._writer_active or self._waiting_writers:
                    self._cond.wait()
            finally:
                self._waiting_readers -= 1
            self._active_readers += 1

    def release_read(self) -> None:
        """Leave the shared side, waking a waiting writer when last out."""
        with self._cond:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        """Block until the lock is free, then enter exclusive."""
        with self._cond:
            self._waiting_writers += 1
            try:
                while self._writer_active or self._active_readers:
                    self._cond.wait()
            finally:
                self._waiting_writers -= 1
            self._writer_active = True

    def release_write(self) -> None:
        """Leave the exclusive side, waking every waiter."""
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RWLock(readers={self._active_readers}, "
            f"waiting_writers={self._waiting_writers}, "
            f"writer_active={self._writer_active})"
        )
