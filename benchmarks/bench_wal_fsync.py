#!/usr/bin/env python
"""Persisted-ingest fsync policy benchmark: ingest throughput per policy.

Measures the durability tax of a persisted session on the registry's
ingest path, directly against a
:class:`~repro.serving.registry.SessionRegistry` (no HTTP, so the
numbers isolate the persistence cost itself).  A persisted ack writes
one frame, which carries the chunk's new names, to one file: the
session's segment log (the write-ahead copy, :mod:`repro.storage`),
whose fsync policy ``--wal-fsync`` sets:

* ``wal-off``: a memory-only registry (no ``state_dir``) -- the
  baseline every policy is compared against.
* ``never``: flush to the OS page cache only (SIGKILL-safe, not
  power-loss-safe).
* ``batch``: additionally ``fsync(2)`` every 32nd frame (the serving
  default -- a bounded power-loss window).
* ``always``: ``fsync(2)`` the segment on every ack (full power-loss
  durability).

Each cell ingests the same deterministic single-observation stream
(every observation brings a new source name) into a fresh session and
reports ingests/second plus the relative overhead vs ``wal-off``; a
persisted cell also records its segment log's counters.  An ack writes
only its frame to ``active.seg``, whatever the session's size.

Run standalone to emit ``BENCH_wal_fsync.json``::

    PYTHONPATH=src python benchmarks/bench_wal_fsync.py [--quick]

The numbers are filesystem-dependent (fsync latency spans three orders
of magnitude across laptop SSDs, CI containers, and network volumes),
so this benchmark is documentation, not a regression gate; the serving
throughput gate (``bench_serving_throughput.py``) covers the served
read path, which persistence never touches.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time
from pathlib import Path

from repro.data.records import Observation
from repro.serving.registry import SessionRegistry

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_wal_fsync.json"

PAPER_INGESTS = 2000
QUICK_INGESTS = 400

#: (label, registry kwargs) per cell; None means a memory-only registry.
POLICIES = [
    ("wal-off", None),
    ("never", {"wal_fsync": "never"}),
    ("batch", {"wal_fsync": "batch"}),
    ("always", {"wal_fsync": "always"}),
]


def observation(index: int) -> Observation:
    return Observation(
        f"e{index % 97}", {"value": float(10 + (index * 7) % 90)}, f"s{index}"
    )


def run_cell(label: str, kwargs: "dict | None", n_ingests: int, root: Path) -> dict:
    if kwargs is None:
        registry = SessionRegistry()
    else:
        state_dir = root / label
        registry = SessionRegistry(state_dir=state_dir, **kwargs)
    served = registry.create("bench", "value", estimator="bucket/frequency")
    observations = [observation(index) for index in range(n_ingests)]
    start = time.perf_counter()
    for obs in observations:
        served.ingest([obs])
    seconds = time.perf_counter() - start
    cell = {
        "policy": label,
        "ingests": n_ingests,
        "seconds": round(seconds, 6),
        "ingests_per_s": round(n_ingests / seconds, 1),
    }
    if kwargs is not None:
        cell["segment_log"] = served.stats()["store"]["segment_log"]
    return cell


def run_benchmark(quick: bool) -> dict:
    n_ingests = QUICK_INGESTS if quick else PAPER_INGESTS
    cells = []
    with tempfile.TemporaryDirectory(prefix="bench-wal-") as tmp:
        for label, kwargs in POLICIES:
            cells.append(run_cell(label, kwargs, n_ingests, Path(tmp)))
    baseline = cells[0]["ingests_per_s"]
    for cell in cells:
        cell["relative_to_wal_off"] = round(cell["ingests_per_s"] / baseline, 3)
    return {
        "benchmark": "wal_fsync",
        "mode": "quick" if quick else "paper-scale",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cells": cells,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized workloads")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)
    result = run_benchmark(args.quick)
    output = args.output or DEFAULT_OUTPUT
    output.write_text(json.dumps(result, indent=2) + "\n")
    for cell in result["cells"]:
        print(
            f"{cell['policy']:8} {cell['ingests']:6d} ingests "
            f"{cell['ingests_per_s']:>10,.1f}/s "
            f"({cell['relative_to_wal_off']:.0%} of wal-off)"
        )
    print(f"written to {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
