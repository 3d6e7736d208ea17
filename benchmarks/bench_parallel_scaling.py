"""Parallel-backend scaling benchmark + machine-readable output.

Measures the wall-clock effect of sharding the two fan-out layers over the
:mod:`repro.parallel` backends, and -- just as important -- *asserts* that
every backend/worker combination reproduces the serial reference bit for
bit (the determinism contract of the subsystem):

* ``grid-vectorized`` / ``grid-loop``: the Monte-Carlo (θ_N, θ_λ) grid
  search at paper-scale settings (n_runs=5, 10 count steps, 9 λ values) on
  the us-tech-employment stand-in, rows sharded over the backend.  The
  vectorized engine's rows are a few milliseconds each, so it mainly
  measures backend overhead; the loop engine's rows are tens of
  milliseconds, the regime where process sharding pays.
* ``replay-sweep``: a scenario sweep -- three datasets × three estimators ×
  all prefixes -- through ``ProgressiveRunner.run_all``, i.e. the same
  backend API the estimator uses.

Run standalone to emit ``BENCH_parallel_scaling.json`` so the scaling
trajectory is tracked across PRs::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py [--quick]

``--quick`` shrinks the Monte-Carlo settings and the backend matrix for
CI.  Both modes time every cell best of three: the CI regression gate
(``compare_bench.py``) holds each cell over 5 ms to 25%, which one run
of a quick cell misses on noise alone.  Speedups are relative to the
serial backend on the same host; the JSON records ``cpu_count`` because
a 2× process speedup obviously needs at least two cores to exist.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from repro.api.specs import build_estimator
from repro.datasets import load_dataset
from repro.evaluation.runner import ProgressiveRunner
from repro.parallel import shutdown_backends

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_parallel_scaling.json"

#: Paper-scale Monte-Carlo settings (Algorithm 2/3 defaults).
PAPER_MC = {"n_runs": 5, "n_count_steps": 10}
#: Reduced settings for CI quick mode.
QUICK_MC = {"n_runs": 2, "n_count_steps": 5}

#: (backend, workers) matrix; serial first so it is the reference.
FULL_MATRIX = [
    ("serial", 1),
    ("process", 1),
    ("process", 2),
    ("process", 4),
]
QUICK_MATRIX = [("serial", 1), ("process", 2)]

#: Runs per cell; a cell reports its best time.
REPEATS = 3


def _best_of(repeats: int, fn) -> tuple[float, object]:
    """Best wall time over ``repeats`` runs plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _mc_spec(engine: str, backend: str, workers: int, mc: dict) -> str:
    params = "&".join(f"{k}={v}" for k, v in mc.items())
    return (
        f"monte-carlo?seed=0&engine={engine}&{params}"
        f"&backend={backend}&workers={workers}"
    )


def bench_grid(engine: str, matrix, mc: dict, repeats: int) -> dict:
    """Monte-Carlo grid search sharded over every backend of the matrix."""
    dataset = load_dataset("us-tech-employment", seed=42)
    sample, attribute = dataset.sample(), dataset.attribute
    rows: dict[str, dict] = {}
    reference = None
    for backend, workers in matrix:
        estimator = build_estimator(_mc_spec(engine, backend, workers, mc))
        seconds, estimate = _best_of(
            repeats, lambda est=estimator: est.estimate(sample, attribute)
        )
        key = f"{backend}-{workers}"
        if reference is None:
            reference = estimate
        identical = (
            estimate.corrected == reference.corrected
            and estimate.count_estimate == reference.count_estimate
            and estimate.details["kl_divergences"]
            == reference.details["kl_divergences"]
        )
        assert identical, (
            f"{engine}/{key} diverged from the serial reference: "
            f"{estimate.corrected} != {reference.corrected}"
        )
        rows[key] = {"seconds": round(seconds, 6), "bit_identical": identical}
    serial_s = rows[f"{matrix[0][0]}-{matrix[0][1]}"]["seconds"]
    for row in rows.values():
        row["speedup_vs_serial"] = round(serial_s / row["seconds"], 2)
    return {
        "workload": f"grid-{engine}",
        "dataset": dataset.name,
        "mc_settings": mc,
        "corrected_estimate": reference.corrected,
        "configs": rows,
    }


def bench_replay_sweep(matrix, mc: dict, repeats: int) -> dict:
    """Scenario sweep: (dataset × estimator × prefix) cells via run_all."""
    estimator_specs = [
        "naive",
        "bucket",
        f"monte-carlo?seed=0&n_runs={mc['n_runs']}&n_count_steps={mc['n_count_steps']}",
    ]

    def sources():
        return {
            "us-tech-employment": load_dataset("us-tech-employment", seed=42),
            "us-gdp": load_dataset("us-gdp", seed=11),
            "proton-beam": load_dataset("proton-beam", seed=23),
        }

    rows: dict[str, dict] = {}
    reference = None
    n_cells = None
    for backend, workers in matrix:
        runner = ProgressiveRunner(estimator_specs, backend=backend, n_workers=workers)
        seconds, results = _best_of(
            repeats, lambda r=runner: r.run_all(sources(), step=60)
        )
        key = f"{backend}-{workers}"
        finals = {
            name: result.final_estimates() for name, result in results.items()
        }
        if reference is None:
            reference = finals
        assert finals == reference, f"replay sweep on {key} diverged from serial"
        n_cells = sum(r.runtime["n_cells"] for r in results.values())
        rows[key] = {"seconds": round(seconds, 6), "bit_identical": True}
    serial_s = rows[f"{matrix[0][0]}-{matrix[0][1]}"]["seconds"]
    for row in rows.values():
        row["speedup_vs_serial"] = round(serial_s / row["seconds"], 2)
    return {
        "workload": "replay-sweep",
        "datasets": ["us-tech-employment", "us-gdp", "proton-beam"],
        "estimators": estimator_specs,
        "n_cells": n_cells,
        "configs": rows,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI mode: small settings")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args()

    matrix = QUICK_MATRIX if args.quick else FULL_MATRIX
    mc = QUICK_MC if args.quick else PAPER_MC
    workloads = [
        bench_grid("vectorized", matrix, mc, REPEATS),
        bench_grid("loop", matrix, mc, REPEATS),
        bench_replay_sweep(matrix, mc, REPEATS),
    ]
    shutdown_backends()

    payload = {
        "benchmark": "parallel_scaling",
        "mode": "quick" if args.quick else "paper-scale",
        "workloads": workloads,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
