"""Estimator runtime comparison (Section 6.1.5) + machine-readable output.

The paper reports roughly 3.5 s for the Monte-Carlo estimator versus 0.2 s
for the bucket estimator on the real data sets, i.e. MC is over an order of
magnitude slower because its inner loop scales with the sample size.  These
micro-benchmarks measure each estimator on the same integrated sample so the
relative cost can be compared directly from the pytest-benchmark table; the
Monte-Carlo estimator is measured with both simulation engines (the legacy
per-draw loop and the batched Gumbel top-k engine) at the paper-scale
settings (n_runs=5, 10 count steps, 9 λ values).

The ``bucket_search`` cells time the dynamic bucket estimator (the
serving default) on continuous-valued samples of 160 to 10⁵ entities:
the sorted prefix-sum search, and -- up to 10³ entities, since it is
quadratic -- the materializing loop it replaces, reached through a
search estimator without a vectorized scorer.  Where both run, their
estimates must be byte-identical.

Run standalone to emit ``BENCH_estimator_runtime.json`` so the performance
trajectory is tracked across PRs::

    PYTHONPATH=src python benchmarks/bench_estimator_runtime.py [--quick]

``--quick`` shrinks the Monte-Carlo settings and repeat counts for CI, and
times the loop only at the smallest bucket size.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.api.specs import build_estimator
from repro.core.bucket import BucketEstimator
from repro.core.estimator import SumEstimator
from repro.core.frequency import FrequencyEstimator
from repro.core.montecarlo import MonteCarloConfig, MonteCarloEstimator
from repro.core.naive import NaiveEstimator
from repro.data.sample import ObservedSample
from repro.datasets import load_dataset
from repro.serving.http import dumps_result

#: Paper-scale Monte-Carlo settings (Algorithm 2/3 defaults).
PAPER_MC = {"n_runs": 5, "n_count_steps": 10}
#: Reduced settings for CI quick mode.
QUICK_MC = {"n_runs": 2, "n_count_steps": 5}

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_estimator_runtime.json"

#: Best-of repeats of the closed-form estimator cells (milliseconds each).
CLOSED_FORM_REPEATS = 20
#: Entity counts of the bucket-search cells -> best-of repeats: many for
#: the millisecond cells, so one scheduler hiccup cannot move a gated cell.
BUCKET_SIZES = {160: 30, 1_000: 20, 10_000: 5, 100_000: 3}
#: Sizes the quadratic loop is timed at -> repeats (quick mode: 160 only).
LOOP_SIZES = {160: 3, 1_000: 1}


class _LoopSearch(SumEstimator):
    """Delegates ``estimate`` only: without a vectorized scorer the
    dynamic bucketing falls back to its materializing loop."""

    def __init__(self, inner: SumEstimator) -> None:
        self.inner = inner
        self.name = inner.name

    def estimate(self, sample: ObservedSample, attribute: str):
        return self.inner.estimate(sample, attribute)


def continuous_sample(n_entities: int, seed: int = 0) -> ObservedSample:
    """Log-normal(4, 1) values (all distinct) with geometric(0.5) counts."""
    rng = np.random.default_rng(seed)
    values = rng.lognormal(4.0, 1.0, n_entities).tolist()
    counts = rng.geometric(0.5, n_entities).tolist()
    return ObservedSample.from_entity_values(
        [(f"e{i}", value, count) for i, (value, count) in enumerate(zip(values, counts))],
        attribute="value",
    )


def _best_time(estimator: SumEstimator, sample: ObservedSample, repeats: int):
    best, estimate = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        estimate = estimator.estimate(sample, "value")
        best = min(best, time.perf_counter() - start)
    return best, estimate


def run_bucket_search(quick: bool = False) -> dict:
    """Sorted search vs the loop on continuous-valued samples."""
    loop_sizes = {160: LOOP_SIZES[160]} if quick else LOOP_SIZES
    timings: dict[str, float] = {}
    speedups: dict[str, float] = {}
    n_buckets: dict[str, int] = {}
    for size, repeats in BUCKET_SIZES.items():
        sample = continuous_sample(size)
        fast_s, fast = _best_time(BucketEstimator(), sample, repeats)
        timings[f"sorted-{size}"] = round(fast_s, 6)
        n_buckets[str(size)] = fast.details["n_buckets"]
        if size in loop_sizes:
            loop = BucketEstimator(search_base=_LoopSearch(NaiveEstimator()))
            loop_s, oracle = _best_time(loop, sample, loop_sizes[size])
            if dumps_result(fast.to_dict()) != dumps_result(oracle.to_dict()):
                raise AssertionError(f"sorted search differs from the loop at {size}")
            timings[f"loop-{size}"] = round(loop_s, 6)
            speedups[str(size)] = round(loop_s / fast_s, 1)
    return {
        "sample": "log-normal(4, 1) values, geometric(0.5) counts, seed 0",
        "timings_seconds": timings,
        "speedup_vs_loop": speedups,
        "n_buckets": n_buckets,
    }


def _paper_scale_estimators(mc_settings: dict) -> dict:
    """Benchmarked estimators, built from uniform spec strings."""
    mc_params = "&".join(f"{key}={value}" for key, value in mc_settings.items())
    return {
        "naive": build_estimator("naive"),
        "frequency": build_estimator("frequency"),
        "bucket": build_estimator("bucket"),
        "monte-carlo-loop": build_estimator(
            f"monte-carlo?seed=0&engine=loop&{mc_params}"
        ),
        "monte-carlo-vectorized": build_estimator(
            f"monte-carlo?seed=0&engine=vectorized&{mc_params}"
        ),
    }


# ---------------------------------------------------------------------- #
# pytest-benchmark entry points
# ---------------------------------------------------------------------- #

try:  # pytest is absent when the module runs standalone in minimal setups
    import pytest
except ImportError:  # pragma: no cover
    pytest = None


if pytest is not None:

    @pytest.fixture(scope="module")
    def employment_sample():
        dataset = load_dataset("us-tech-employment", seed=42)
        return dataset.sample(), dataset.attribute

    def test_runtime_naive(benchmark, employment_sample):
        sample, attribute = employment_sample
        estimator = NaiveEstimator()
        result = benchmark(estimator.estimate, sample, attribute)
        assert result.corrected >= result.observed

    def test_runtime_frequency(benchmark, employment_sample):
        sample, attribute = employment_sample
        estimator = FrequencyEstimator()
        result = benchmark(estimator.estimate, sample, attribute)
        assert result.corrected >= result.observed

    def test_runtime_bucket(benchmark, employment_sample):
        sample, attribute = employment_sample
        estimator = BucketEstimator()
        result = benchmark(estimator.estimate, sample, attribute)
        assert result.corrected >= result.observed

    def test_runtime_monte_carlo_loop(benchmark, employment_sample):
        # Paper-like Monte-Carlo settings (5 runs, 10 grid steps) so the
        # relative cost versus the bucket estimator mirrors Section 6.1.5.
        sample, attribute = employment_sample
        estimator = MonteCarloEstimator(
            config=MonteCarloConfig(engine="loop", **PAPER_MC), seed=0
        )
        result = benchmark.pedantic(
            estimator.estimate, args=(sample, attribute), rounds=2, iterations=1
        )
        assert result.corrected >= result.observed

    def test_runtime_monte_carlo_vectorized(benchmark, employment_sample):
        sample, attribute = employment_sample
        estimator = MonteCarloEstimator(
            config=MonteCarloConfig(engine="vectorized", **PAPER_MC), seed=0
        )
        result = benchmark.pedantic(
            estimator.estimate, args=(sample, attribute), rounds=5, iterations=1
        )
        assert result.corrected >= result.observed


# ---------------------------------------------------------------------- #
# Standalone JSON emitter
# ---------------------------------------------------------------------- #


def run_suite(quick: bool = False) -> dict:
    """Time every estimator at a fixed scale; return the JSON payload."""
    mc_settings = QUICK_MC if quick else PAPER_MC
    repeats = 3 if quick else 5
    dataset = load_dataset("us-tech-employment", seed=42)
    sample, attribute = dataset.sample(), dataset.attribute

    timings: dict[str, float] = {}
    estimates: dict[str, float] = {}
    for name, estimator in _paper_scale_estimators(mc_settings).items():
        best = float("inf")
        rounds = repeats if name.startswith("monte-carlo") else CLOSED_FORM_REPEATS
        for _ in range(rounds):
            start = time.perf_counter()
            estimate = estimator.estimate(sample, attribute)
            best = min(best, time.perf_counter() - start)
        timings[name] = best
        estimates[name] = float(estimate.corrected)

    speedup = timings["monte-carlo-loop"] / timings["monte-carlo-vectorized"]
    bucket_search = run_bucket_search(quick)
    return {
        "benchmark": "estimator_runtime",
        "dataset": dataset.name,
        "scale": {
            "n_observations": sample.n,
            "n_unique": sample.c,
            "n_sources": sample.num_sources,
            "mc_settings": mc_settings,
            "repeats": repeats,
            "closed_form_repeats": CLOSED_FORM_REPEATS,
            "mode": "quick" if quick else "paper-scale",
        },
        "timings_seconds": {k: round(v, 6) for k, v in timings.items()},
        "corrected_estimates": estimates,
        "mc_vectorized_speedup_vs_loop": round(speedup, 2),
        "bucket_search": bucket_search,
        "python": platform.python_version(),
        "machine": platform.machine(),
        # Machine-class marker for benchmarks/compare_bench.py: wall times
        # are only gated against a baseline recorded on the same class.
        "cpu_count": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="reduced MC settings and repeats (CI)"
    )
    parser.add_argument(
        "--output",
        default=str(DEFAULT_OUTPUT),
        help="where to write the JSON payload (default: repo root)",
    )
    args = parser.parse_args(argv)
    payload = run_suite(quick=args.quick)
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
