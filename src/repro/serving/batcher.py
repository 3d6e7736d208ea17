"""Request coalescing: identical in-flight work computes once.

Under concurrent load the same expensive question arrives many times
before the first answer is ready -- every client of a popular dashboard
asks for the same estimate at the same state version.  The cache alone
does not help there: all of them miss, and without coordination each
miss would run its own estimator ("cache stampede").  The
:class:`CoalescingBatcher` closes that gap:

* requests are identified by the same key the cache uses
  (:func:`repro.serving.cache.request_key`) -- session, state version,
  kind, spec, detail;
* the **first** arrival for a key becomes its *leader* and runs the
  computation; later arrivals for the same key become *followers* and
  block on the leader's result (or exception) instead of recomputing;
* the **distinct** keys a batch leads (a multi-spec estimate request)
  run one after another on the leading thread.

Coalescing is sound for exactly the reason version-keyed caching is:
the key pins the state version, so two requests with equal keys are
asking for a computation whose inputs are provably identical, and the
library's estimators are deterministic functions of those inputs.

The batcher never fans its computations out.  They close over live
session objects (locks, caches) that cannot be pickled into worker
processes, and a thread pool was slower than the inline loop on
multi-spec reads.  The heavy inner Monte-Carlo grid shards over
processes through the estimator spec instead (``serve --backend
process``).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Hashable, Sequence
from typing import Any

from repro.resilience.admission import DeadlineExceededError

__all__ = ["CoalescingBatcher"]


class _Computation:
    """One in-flight computation: a latch plus its outcome."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Any = None
        self.error: "BaseException | None" = None

    def run(self, fn: Callable[[], Any]) -> None:
        """Run ``fn`` and release the latch with its result or exception.

        Every outcome lands in the latch, so a failing computation never
        stops its siblings or strands its followers.
        """
        try:
            self.result = fn()
        except BaseException as exc:  # noqa: BLE001 - latch must always release
            self.error = exc
        self.done.set()

    def wait(self, timeout: "float | None" = None) -> Any:
        if not self.done.wait(timeout):
            raise DeadlineExceededError(
                "the request's deadline expired before the computation "
                "finished; the result (if any) will still reach the cache"
            )
        if self.error is not None:
            raise self.error
        return self.result


class CoalescingBatcher:
    """Folds duplicate in-flight requests; runs the distinct ones inline."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._in_flight: dict[Hashable, _Computation] = {}
        self._computed = 0
        self._coalesced = 0
        self._abandoned = 0

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def execute(
        self, key: Hashable, fn: Callable[[], Any], timeout: "float | None" = None
    ) -> Any:
        """Run ``fn`` for ``key``, or wait for an identical in-flight run."""
        return self.execute_many([(key, fn)], timeout=timeout)[0]

    def execute_many(
        self,
        pairs: "Sequence[tuple[Hashable, Callable[[], Any]]]",
        timeout: "float | None" = None,
    ) -> list[Any]:
        """Run a batch of keyed computations; results in request order.

        Within the batch (and against already in-flight requests from
        other threads) duplicate keys compute once; the distinct
        computations this thread leads run one after another, in
        request order.  Any computation's exception is re-raised to
        every requester that folded into it, and never stops a sibling.

        With a ``timeout`` (seconds, covering the whole batch) the led
        computations run on a detached daemon thread and the caller
        waits on the latches with a deadline: expiry raises
        :class:`~repro.resilience.admission.DeadlineExceededError` while
        the computation itself runs to completion in the background --
        its result still reaches the answer cache and still releases any
        followers, so abandoning a response never corrupts or wastes the
        work, it only gives up on delivering it.
        """
        if not pairs:
            return []
        led: list[tuple[Hashable, Callable[[], Any], _Computation]] = []
        computations: list[_Computation] = []
        with self._lock:
            for key, fn in pairs:
                computation = self._in_flight.get(key)
                if computation is None:
                    computation = _Computation()
                    self._in_flight[key] = computation
                    led.append((key, fn, computation))
                    self._computed += 1
                else:
                    self._coalesced += 1
                computations.append(computation)
        if timeout is None:
            if led:
                self._run_led(led)
            return [computation.wait() for computation in computations]
        if led:
            threading.Thread(
                target=self._run_led,
                args=(led,),
                name="repro-coalesce-detached",
                daemon=True,
            ).start()
        deadline = time.monotonic() + timeout
        results = []
        try:
            for computation in computations:
                results.append(computation.wait(deadline - time.monotonic()))
        except DeadlineExceededError:
            with self._lock:
                self._abandoned += 1
            raise
        return results

    def _run_led(
        self, led: "list[tuple[Hashable, Callable[[], Any], _Computation]]"
    ) -> None:
        """Run the computations this batch leads, one after another.

        A leader leaves the in-flight table only after its latch is
        released, so every follower that found it gets its outcome.
        """
        for key, fn, computation in led:
            computation.run(fn)
            with self._lock:
                del self._in_flight[key]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def in_flight(self) -> int:
        """Number of currently running (not yet published) computations."""
        with self._lock:
            return len(self._in_flight)

    def stats(self) -> dict[str, int]:
        """Counters for ``/stats``: led computations vs folded followers."""
        with self._lock:
            return {
                "computed": self._computed,
                "coalesced": self._coalesced,
                "abandoned": self._abandoned,
                "in_flight": len(self._in_flight),
            }
