"""SIGKILL the storage layer at its fault points; recovery must be exact.

The matrix each case walks: a real subprocess ingests ~10^5
observations through a :class:`~repro.serving.registry.SessionRegistry`
with an armed ``REPRO_FAULTS`` crash, dies by SIGKILL, and a fresh
registry on the same state directory must recover, reconcile the
unacknowledged tail the way a retrying client would (resend everything
past the recovered ``state_version``), and then serve **byte-identical**
estimate and snapshot payloads to an in-memory facade registry that
ingested the same stream without ever crashing.

Windows under test, each with the store's own ``SEAL_ROWS`` (the
first seal comes from the ingest that finds 65,536 rows in the active
segment) and with a threshold low enough to seal every ten chunks:

``storage.after_frame``
    Dies mid-ingest: the frame is durable, the in-memory state never
    absorbed it.  Attach folds the segment tail onto the checkpoint (if
    a seal wrote one), so the chunk counts as acknowledged-and-kept and
    must **not** be resent.
``storage.before_seal``
    Dies inside the first seal before the active segment is renamed:
    every frame since the last seal still sits in ``active.seg``.
``storage.after_seal``
    Dies after the rename but before the checkpoint and manifest
    writes: the sealed segment is an *orphan* the next attach adopts by
    directory scan.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import lifecycle_driver as driver
from repro.serving.http import dumps_result
from repro.serving.registry import SessionRegistry
from storage_helpers import early_seals  # noqa: F401 - a fixture

DRIVER = Path(driver.__file__).resolve()


def run_driver_until_killed(state_dir, faults, seal_rows=None):
    """Run the driver to its armed SIGKILL; returns the chunks it acknowledged."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    env.pop("REPRO_FAULTS_STAMP_DIR", None)
    env["REPRO_FAULTS"] = faults
    argv = [sys.executable, str(DRIVER), str(state_dir)]
    if seal_rows is not None:
        argv.append(str(seal_rows))
    proc = subprocess.run(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL, proc.returncode
    assert "DONE" not in proc.stdout, "armed fault never fired"
    return proc.stdout.count("INGESTED")


def never_crashed_facade():
    """A memory-only registry that ingested the full stream, no crashes."""
    registry = SessionRegistry()
    served = registry.create(
        driver.SESSION, driver.ATTRIBUTE, estimator=driver.ESTIMATOR
    )
    for index in range(driver.N_CHUNKS):
        served.ingest(driver.observations(index))
    return served


def reconcile(served):
    """Resend whatever the recovered ``state_version`` does not cover."""
    version = served.info()["state_version"]
    assert 0 <= version <= driver.N_CHUNKS
    for index in range(version, driver.N_CHUNKS):
        served.ingest(driver.observations(index))
    return version


def assert_bit_identical(served, facade):
    assert dumps_result(served.estimate_payload()) == dumps_result(
        facade.estimate_payload()
    )
    assert dumps_result(served.snapshot_payload()) == dumps_result(
        facade.snapshot_payload()
    )


#: Driver chunks of 1,000 rows: seals at the start of chunks 11, 21, ...
SEAL_EVERY_TEN_CHUNKS = 10 * driver.ROWS_PER_CHUNK


@pytest.mark.parametrize(
    "seal_rows",
    [None, SEAL_EVERY_TEN_CHUNKS],
    ids=["own-threshold", "seal-mid-stream"],
)
@pytest.mark.parametrize(
    "faults",
    [
        # Mid-stream: the 57th frame reaches the log, the state never
        # absorbs it -- attach must fold it from the segment tail.
        pytest.param("storage.after_frame:crash@57", id="disk-after-frame"),
        # Seal windows: every chunk acknowledged before the seal began
        # must be recovered.
        pytest.param("storage.before_seal:crash@1", id="disk-before-seal"),
        pytest.param("storage.after_seal:crash@1", id="disk-after-seal"),
    ],
)
def test_sigkill_recovers_bit_identical(tmp_path, faults, seal_rows):
    state = tmp_path / "state"
    acked = run_driver_until_killed(state, faults, seal_rows)
    if faults.startswith("storage.after_frame"):
        # The crash fires once the 57th frame is flushed: it is durable,
        # past the checkpoint of chunk 50 when the store seals every ten.
        min_recovered = 57
        checkpoint = state / "store" / driver.SESSION / "checkpoint.bin"
        assert checkpoint.is_file() == (seal_rows is not None)
    else:
        min_recovered = acked

    registry = SessionRegistry(state_dir=state, wal_fsync="batch")
    assert registry.load_state() == [driver.SESSION]
    served = registry.get(driver.SESSION)
    recovered = reconcile(served)
    # Nothing acknowledged is ever lost: the recovered version floors at
    # the last chunk that durably committed before the fault fired.
    assert recovered >= min_recovered
    facade = never_crashed_facade()
    assert_bit_identical(served, facade)

    # A clean checkpoint + reload on top of the recovered state must
    # come back with nothing to resend and the same bytes.
    registry.save_state()
    reloaded = SessionRegistry(state_dir=state, wal_fsync="batch")
    assert reloaded.load_state() == [driver.SESSION]
    served = reloaded.get(driver.SESSION)
    assert reconcile(served) == driver.N_CHUNKS
    assert_bit_identical(served, facade)


def small_chunks():
    return [driver.observations(index)[:20] for index in range(5)]


def small_facade(n_chunks=5):
    registry = SessionRegistry()
    served = registry.create(
        driver.SESSION, driver.ATTRIBUTE, estimator=driver.ESTIMATOR
    )
    for chunk in small_chunks()[:n_chunks]:
        served.ingest(chunk)
    return served


def ingest_small_disk_registry(state):
    registry = SessionRegistry(state_dir=state, wal_fsync="batch")
    served = registry.create(
        driver.SESSION, driver.ATTRIBUTE, estimator=driver.ESTIMATOR
    )
    for chunk in small_chunks():
        served.ingest(chunk)
    return registry


@pytest.mark.usefixtures("early_seals")
def test_torn_tail_after_power_loss_recovers_the_durable_prefix(tmp_path):
    """Tear the segment tail past a checkpoint (the power-loss ordering
    where nothing past the last barrier survived): the final chunk is
    lost cleanly, resent by the client, and the result is still
    bit-exact."""
    state = tmp_path / "state"
    ingest_small_disk_registry(state)
    assert (state / "store" / driver.SESSION / "checkpoint.bin").is_file()
    active = state / "store" / driver.SESSION / "active.seg"
    active.write_bytes(active.read_bytes()[:-5])

    registry = SessionRegistry(state_dir=state, wal_fsync="batch")
    assert registry.load_state() == [driver.SESSION]
    served = registry.get(driver.SESSION)
    assert served.info()["state_version"] == 4  # exactly the torn chunk lost
    assert_bit_identical(served, small_facade(4))
    served.ingest(small_chunks()[4])
    assert_bit_identical(served, small_facade())

