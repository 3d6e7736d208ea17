"""Unit tests of the deterministic fault-injection registry."""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import pytest

from repro.resilience import faults
from repro.resilience.faults import (
    FAULTS_ENV,
    STAMP_DIR_ENV,
    InjectedFaultError,
    arm,
    disarm,
    fault_point,
    hit_counts,
    parse_spec,
)
from repro.utils.exceptions import ValidationError


@pytest.fixture(autouse=True)
def _clean_slate(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    monkeypatch.delenv(STAMP_DIR_ENV, raising=False)
    disarm()
    yield
    disarm()


class TestParse:
    def test_single_clause(self):
        armed = parse_spec("storage.after_frame:raise@3")
        assert set(armed) == {"storage.after_frame"}
        assert armed["storage.after_frame"].action == "raise"
        assert armed["storage.after_frame"].nth == 3

    def test_default_hit_is_first(self):
        assert parse_spec("storage.before_seal:crash")["storage.before_seal"].nth == 1

    def test_multiple_clauses(self):
        armed = parse_spec("storage.after_frame:raise,http.before_response:crash@2")
        assert set(armed) == {"storage.after_frame", "http.before_response"}

    def test_unknown_point_rejected(self):
        with pytest.raises(ValidationError, match="unknown fault point"):
            parse_spec("storage.after_fram:raise")  # typo must fail loudly

    def test_unknown_action_rejected(self):
        with pytest.raises(ValidationError, match="unknown fault action"):
            parse_spec("storage.after_frame:explode")

    def test_malformed_clause_rejected(self):
        with pytest.raises(ValidationError, match="malformed"):
            parse_spec("storage.after_frame")

    def test_bad_hit_count_rejected(self):
        with pytest.raises(ValidationError, match="non-integer"):
            parse_spec("storage.after_frame:raise@soon")
        with pytest.raises(ValidationError, match=">= 1"):
            parse_spec("storage.after_frame:raise@0")

    def test_empty_spec_arms_nothing(self):
        assert parse_spec("") == {}


class TestFiring:
    def test_unarmed_point_is_a_noop(self):
        fault_point("storage.after_frame")  # must not raise

    def test_fires_exactly_on_the_nth_hit(self):
        arm("storage.after_frame:raise@3")
        fault_point("storage.after_frame")
        fault_point("storage.after_frame")
        with pytest.raises(InjectedFaultError):
            fault_point("storage.after_frame")
        # ... and never again: the restarted/retried path runs clean.
        fault_point("storage.after_frame")
        fault_point("storage.after_frame")
        assert hit_counts() == {"storage.after_frame": 5}

    def test_other_points_unaffected(self):
        arm("storage.after_frame:raise")
        fault_point("storage.before_seal")
        fault_point("storage.after_seal")

    def test_rearm_resets_hits(self):
        arm("storage.after_frame:raise@2")
        fault_point("storage.after_frame")
        arm("storage.after_frame:raise@2")
        fault_point("storage.after_frame")
        assert hit_counts() == {"storage.after_frame": 1}

    def test_env_is_parsed_lazily(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "storage.after_frame:raise")
        faults._armed = None  # simulate a fresh process
        with pytest.raises(InjectedFaultError):
            fault_point("storage.after_frame")

    def test_stamp_dir_makes_firing_at_most_once(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STAMP_DIR_ENV, str(tmp_path))
        arm("storage.after_frame:raise")
        with pytest.raises(InjectedFaultError):
            fault_point("storage.after_frame")
        # A second process (simulated by re-arming, which resets local
        # hit counters) finds the stamp and does not fire.
        arm("storage.after_frame:raise")
        fault_point("storage.after_frame")
        assert (tmp_path / "storage.after_frame.fired").exists()


def test_crash_action_is_sigkill(tmp_path):
    """The crash action dies by SIGKILL: no atexit, no cleanup, no trace."""
    code = (
        "from repro.resilience.faults import fault_point\n"
        "import atexit, sys\n"
        "atexit.register(lambda: print('ATEXIT RAN', flush=True))\n"
        "print('before', flush=True)\n"
        "fault_point('storage.after_frame')\n"
        "print('after', flush=True)\n"
    )
    env = dict(os.environ)
    env[FAULTS_ENV] = "storage.after_frame:crash"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == -signal.SIGKILL
    assert proc.stdout == "before\n"  # neither 'after' nor the atexit hook
