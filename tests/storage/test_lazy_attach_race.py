"""A read racing the lazy materialization of a re-attached disk store.

A re-attached :class:`~repro.storage.store.DiskStore` reads its
checkpoint and folds the frames past it, which name every entity and
source, on the first read that needs its state or its name tables; that
is its one lazy path.  Two readers (or a reader and the router's
boot-time replica push) can trigger it together.  Without a lock the
second one could see the state or the name tables before the fold had
built them.

The interleaving is forced with events: the first reader blocks inside
the fold; the second reader starts and the test waits until it either
finished or is waiting for the store's lock, then lets the first reader
finish.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.storage.store import DiskStore
from storage_helpers import CHUNKS, disk_session, memory_session, observations


class _ObservedLock:
    """Wraps the store's lock; reports when ``thread`` starts waiting."""

    def __init__(self, lock, thread_box, waiting: threading.Event) -> None:
        self._lock = lock
        self._thread_box = thread_box
        self._waiting = waiting

    def __enter__(self):
        if threading.current_thread() is self._thread_box[0]:
            self._waiting.set()
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


def _reattached_store(directory) -> DiskStore:
    """A re-attached store with a checkpoint and frames past it.

    The first fold takes the tail frames, so a second, unlocked fold
    would build the state and names without them.
    """
    session = disk_session(directory, CHUNKS[:2])
    session.store.seal()
    for chunk in CHUNKS[2:]:
        session.ingest(observations(chunk))
    session.close()
    store = DiskStore(directory)
    assert not store.materialized
    return store


def _name_tables(store):
    """The store's name -> index tables once a first read has built them."""
    store.state  # noqa: B018 - the read that materializes
    return list(store._entity_index.items()), list(store._source_index.items())


def _indexed(names):
    return [(name, index) for index, name in enumerate(names)]


READERS = {
    "name_tables": _name_tables,
    "state": lambda store: (
        _indexed(store.state.counts), _indexed(store.state.per_source)
    ),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_second_reader_waits_for_the_first_fold(tmp_path, reader):
    store = _reattached_store(tmp_path / "store")
    read = READERS[reader]
    first_blocked = threading.Event()
    release_first = threading.Event()
    second_progressed = threading.Event()

    real_fold = store._fold

    def blocking_fold(state, frames):
        first_blocked.set()
        assert release_first.wait(timeout=30)
        return real_fold(state, frames)

    store._fold = blocking_fold
    results: dict[str, object] = {}
    errors: list[Exception] = []

    def run(name: str, done: "threading.Event | None" = None) -> None:
        try:
            results[name] = read(store)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)
        finally:
            if done is not None:
                done.set()

    first = threading.Thread(target=run, args=("first",))
    first.start()
    assert first_blocked.wait(timeout=30)
    del store._fold

    second_box: list[threading.Thread] = []
    store._lazy_lock = _ObservedLock(store._lazy_lock, second_box, second_progressed)
    second = threading.Thread(target=run, args=("second", second_progressed))
    second_box.append(second)
    second.start()
    # The second reader has either returned already (the race) or is
    # queued on the lock the first reader holds.
    assert second_progressed.wait(timeout=30)
    release_first.set()
    first.join(timeout=30)
    second.join(timeout=30)
    assert not first.is_alive() and not second.is_alive()

    assert not errors, errors
    oracle = memory_session(CHUNKS).store.state
    expected = (_indexed(oracle.counts), _indexed(oracle.per_source))
    for name in ("first", "second"):
        assert results[name] == expected, name
    store.close()


def test_many_concurrent_first_reads_agree(tmp_path):
    """More readers than cores, switching threads as often as possible."""
    store = _reattached_store(tmp_path / "store")
    oracle = memory_session(CHUNKS).store.state
    expected = (_indexed(oracle.counts), _indexed(oracle.per_source), oracle.n)
    start = threading.Barrier(8)
    results: list[tuple] = []
    errors: list[Exception] = []

    def run() -> None:
        try:
            start.wait(timeout=30)
            entity_table, source_table = _name_tables(store)
            results.append((entity_table, source_table, store.state.n))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert results == [expected] * 8
    store.close()
