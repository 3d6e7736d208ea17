#!/usr/bin/env python
"""Push-update benchmark: delta-aware estimates vs cold batch recompute.

Measures the incremental-estimation seam (``session.estimate(mode=...)``,
:mod:`repro.core.incremental`) directly at the
:class:`~repro.api.session.OpenWorldSession` seam (no HTTP):

* ``ingest``: rows/second through ``session.ingest`` while the session's
  delta state is open (one delta read right after the first chunk opens
  it), so every later chunk also advances the state: the push path's
  write-side cost rides in here.
* ``cold-<spec>``: one batch estimate immediately after an ingest -- the
  cost a *polling* client pays per fresh answer (the commit invalidated
  the sample cache, so the full sample is rebuilt and re-reduced), and
  what the subscription push path would pay without the incremental
  seam.
* ``delta-<spec>``: one ``mode="delta"`` estimate after the same kind of
  small ingest chunk -- the cost the *push* path pays per
  ``state_version`` bump on top of the ingest (the estimator reads the
  state the ingest already advanced).

Both cells are timed in the same loop (delta answer, then batch answer,
per update) and reported as medians, so machine-level noise hits both
paths alike instead of flipping the speedup gate.

The committed JSON also records ``speedup_vs_cold`` per estimator; the
run **fails** (exit 1) unless the delta path is at least
``SPEEDUP_GATE``x cheaper than the cold recompute for every update-
capable scalar estimator -- the ISSUE acceptance criterion, CI-gated on
the quick variant.

Run standalone to emit ``BENCH_push_update.json``::

    PYTHONPATH=src python benchmarks/bench_push_update.py [--quick]

Wall times are machine-dependent; the committed JSON records
``cpu_count`` so the CI regression gate only enforces cells on a
matching machine class (see ``compare_bench.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

from repro.api.session import OpenWorldSession
from repro.data.records import Observation

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_push_update.json"

PAPER_ROWS = 1_000_000
#: Quick mode still needs a pool large enough that the O(pool) cold
#: recompute clearly separates from the O(update) delta path; smaller
#: workloads put the true ratio so close to the gate that scheduler
#: noise flips the verdict.
QUICK_ROWS = 100_000
CHUNK_ROWS = 10_000

#: One push-path update: the small chunk a live stream delivers between
#: two ``state_version`` bumps.
UPDATE_ROWS = 50
UPDATE_COUNT = 50

ATTRIBUTE = "value"

#: The update-capable scalar estimators the gate covers (bucket rides on
#: these; Monte-Carlo is batch-only by design -- see DESIGN.md).
SPECS = ("naive", "frequency")

#: Acceptance bar: the delta path must be at least this many times
#: cheaper per answer than a cold batch recompute.
SPEEDUP_GATE = 10.0


def entity_pool(rows: int) -> int:
    return max(1_000, rows // 20)


def chunk_observations(start: int, count: int, pool: int) -> "list[Observation]":
    return [
        Observation(
            f"e{(i * 7919) % pool}",
            {ATTRIBUTE: float(10 + (i * 7919) % 97)},
            f"s{i % 32}",
        )
        for i in range(start, start + count)
    ]


def timed_ingest(session: OpenWorldSession, rows: int, pool: int) -> float:
    seconds = 0.0
    for start in range(0, rows, CHUNK_ROWS):
        chunk = chunk_observations(start, min(CHUNK_ROWS, rows - start), pool)
        begin = time.perf_counter()
        session.ingest(chunk)
        seconds += time.perf_counter() - begin
        if start == 0:
            session.estimate(mode="delta")  # open the delta state, untimed
    return seconds


def answer_seconds(
    session: OpenWorldSession, spec: str, start: int, pool: int
) -> "tuple[float, float, int]":
    """Per-answer wall time of both paths: ``(delta, cold, next_start)``.

    For every small ingest (one push-path ``state_version`` bump) the
    loop times one ``mode="delta"`` answer and one ``mode="batch"``
    answer, asserts they are identical (the parity oracle), and reports
    the **median** of each.  Interleaving the two measurements and
    taking medians keeps the speedup gate honest on noisy CI machines:
    a mean absorbs GC pauses, and timing the phases in separate blocks
    lets machine-level drift hit one cell but not the other.
    """
    delta_samples = []
    cold_samples = []
    for index in range(UPDATE_COUNT):
        chunk = chunk_observations(start + index * UPDATE_ROWS, UPDATE_ROWS, pool)
        session.ingest(chunk)
        begin = time.perf_counter()
        estimate = session.estimate(spec=spec, mode="delta")
        delta_samples.append(time.perf_counter() - begin)
        begin = time.perf_counter()
        reference = session.estimate(spec=spec, mode="batch")
        cold_samples.append(time.perf_counter() - begin)
        if estimate.to_dict() != reference.to_dict():
            raise AssertionError(
                f"delta/batch divergence for {spec!r} at version "
                f"{session.state_version}"
            )
    return (
        statistics.median(delta_samples),
        statistics.median(cold_samples),
        start + UPDATE_COUNT * UPDATE_ROWS,
    )


def run_benchmark(quick: bool) -> "tuple[dict, list[str]]":
    rows = QUICK_ROWS if quick else PAPER_ROWS
    pool = entity_pool(rows)
    cells = []
    failures: list[str] = []
    session = OpenWorldSession(ATTRIBUTE, estimator="frequency")
    seconds = timed_ingest(session, rows, pool)
    cells.append(
        {
            "workload": "ingest",
            "rows": rows,
            "seconds": round(seconds, 6),
            "rows_per_s": round(rows / seconds, 1),
        }
    )
    start = rows
    for spec in SPECS:
        delta, cold, start = answer_seconds(session, spec, start, pool)
        cells.append(
            {
                "workload": f"cold-{spec}",
                "rows": rows,
                "seconds": round(cold, 6),
            }
        )
        speedup = cold / delta if delta > 0 else float("inf")
        cells.append(
            {
                "workload": f"delta-{spec}",
                "update_rows": UPDATE_ROWS,
                "seconds": round(delta, 6),
                "speedup_vs_cold": round(speedup, 1),
            }
        )
        if speedup < SPEEDUP_GATE:
            failures.append(
                f"{spec}: delta path only {speedup:.1f}x cheaper than cold "
                f"(gate: {SPEEDUP_GATE:.0f}x)"
            )
    return {
        "benchmark": "push_update",
        "mode": "quick" if quick else "paper-scale",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "chunk_rows": CHUNK_ROWS,
        "update_rows": UPDATE_ROWS,
        "entities": pool,
        "speedup_gate": SPEEDUP_GATE,
        "cells": cells,
    }, failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized workloads")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)
    result, failures = run_benchmark(args.quick)
    output = args.output or DEFAULT_OUTPUT
    output.write_text(json.dumps(result, indent=2) + "\n")
    for cell in result["cells"]:
        extra = ""
        if "rows_per_s" in cell:
            extra = f"{cell['rows_per_s']:>12,.0f} rows/s"
        elif "speedup_vs_cold" in cell:
            extra = f"{cell['speedup_vs_cold']:>10.1f}x vs cold"
        print(f"{cell['workload']:24} {cell['seconds']:>10.6f}s {extra}")
    print(f"written to {output}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"OK: every delta path beats the {SPEEDUP_GATE:.0f}x gate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
