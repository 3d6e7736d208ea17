"""Tests for the writer-preferring reader/writer lock."""

from __future__ import annotations

import threading

from serving_helpers import wait_until
from repro.serving.locks import RWLock


def test_readers_run_concurrently():
    lock = RWLock()
    inside = threading.Barrier(3, timeout=5)

    def reader() -> None:
        with lock.read_locked():
            inside.wait()  # all three must be inside simultaneously

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    assert not any(t.is_alive() for t in threads)


def test_writer_excludes_readers_and_writers():
    lock = RWLock()
    log: list[str] = []
    writer_in = threading.Event()
    release_writer = threading.Event()

    def writer() -> None:
        with lock.write_locked():
            log.append("w-in")
            writer_in.set()
            release_writer.wait(timeout=5)
            log.append("w-out")

    def reader() -> None:
        writer_in.wait(timeout=5)
        with lock.read_locked():
            log.append("r")

    w = threading.Thread(target=writer)
    r = threading.Thread(target=reader)
    w.start()
    r.start()
    writer_in.wait(timeout=5)
    wait_until(lambda: lock.waiting == 1)  # the reader is parked
    assert log == ["w-in"]
    release_writer.set()
    w.join(timeout=5)
    r.join(timeout=5)
    assert log == ["w-in", "w-out", "r"]


def test_waiting_writer_blocks_new_readers():
    """Writer preference: arriving readers queue behind a waiting writer."""
    lock = RWLock()
    order: list[str] = []
    first_reader_in = threading.Event()
    release_first_reader = threading.Event()

    def first_reader() -> None:
        with lock.read_locked():
            first_reader_in.set()
            release_first_reader.wait(timeout=5)

    def writer() -> None:
        lock.acquire_write()
        order.append("writer")
        lock.release_write()

    def late_reader() -> None:
        with lock.read_locked():
            order.append("late-reader")

    t1 = threading.Thread(target=first_reader)
    t1.start()
    first_reader_in.wait(timeout=5)
    w = threading.Thread(target=writer)
    w.start()
    wait_until(lambda: lock.waiting == 1)  # the writer is parked
    t2 = threading.Thread(target=late_reader)
    t2.start()
    wait_until(lambda: lock.waiting == 2)  # so is the late reader
    assert order == []
    release_first_reader.set()
    for t in (t1, w, t2):
        t.join(timeout=5)
    assert order == ["writer", "late-reader"]


def test_waiting_counts_parked_threads_only():
    lock = RWLock()
    lock.acquire_read()
    assert lock.waiting == 0  # an admitted reader is not waiting
    writer = threading.Thread(target=lock.acquire_write)
    writer.start()
    wait_until(lambda: lock.waiting == 1)
    lock.release_read()
    writer.join(timeout=5)
    assert lock.waiting == 0  # the writer holds the lock now
    lock.release_write()


def test_lock_is_reusable_after_contention():
    lock = RWLock()
    counter = 0

    def bump() -> None:
        nonlocal counter
        for _ in range(200):
            with lock.write_locked():
                counter += 1

    def observe() -> None:
        for _ in range(200):
            with lock.read_locked():
                assert counter >= 0

    threads = [threading.Thread(target=bump) for _ in range(2)] + [
        threading.Thread(target=observe) for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert counter == 400
