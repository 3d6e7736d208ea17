"""Server processes: spawn, wait for READY, measure, kill.

Each server (``repro.cli serve`` or ``repro.cli cluster``) runs in its
own process group, so the fleet workers a cluster spawns share the
group and can be found, measured and awaited without knowing their pids
in advance.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

#: How long a server may take to print READY.
READY_TIMEOUT = 60.0

#: How long the members of a killed server's group may take to exit.
STOP_TIMEOUT = 30.0


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) pids of process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[2] the process group.
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def peak_rss_mb(pids: list[int]) -> float:
    """Summed peak resident set size (``VmHWM``) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


class Server:
    """One ``repro.cli`` server subprocess and its READY address."""

    def __init__(self, root: Path, args: list[str], *, trace_dir: "Path | None" = None):
        env = dict(os.environ)
        paths = [str(root / "src")]
        if trace_dir is not None:
            paths.insert(0, str(Path(__file__).resolve().parent / "trace"))
            env["PERFBENCH_SPANS_DIR"] = str(trace_dir)
        else:
            env.pop("PERFBENCH_SPANS_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["TMPDIR"] = str(root / ".perfbench_work")
        self.args = args
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        self.pgid = self.process.pid
        self.tail: list[str] = []
        self.base = self._await_ready()
        self.ready_s = time.monotonic() - self.started
        self._drain = threading.Thread(target=self._drain_output, daemon=True)
        self._drain.start()

    def _await_ready(self) -> str:
        watchdog = threading.Timer(READY_TIMEOUT, self.kill)
        watchdog.start()
        try:
            for line in self.process.stdout:
                self.tail = (self.tail + [line.rstrip()])[-20:]
                if line.startswith("READY "):
                    return line.split(None, 1)[1].strip()
        finally:
            watchdog.cancel()
        self.kill()
        raise RuntimeError(
            f"repro.cli {' '.join(self.args)} exited before READY: {self.tail[-5:]}"
        )

    def _drain_output(self) -> None:
        for line in self.process.stdout:
            self.tail = (self.tail + [line.rstrip()])[-20:]

    def pids(self) -> list[int]:
        return group_members(self.pgid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pids())

    def signal_all(self, signum: int) -> list[int]:
        pids = self.pids()
        for pid in pids:
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass
        return pids

    def kill(self) -> None:
        """SIGKILL the whole group and wait until every member is gone."""
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        deadline = time.monotonic() + STOP_TIMEOUT
        while group_members(self.pgid) and time.monotonic() < deadline:
            time.sleep(0.02)
