"""Cross-backend determinism of the Monte-Carlo estimator and the replays.

The satellite contract of the parallel subsystem: the (θ_N, θ_λ) divergence
surface, the fitted ``N̂_MC``, and the progressive replay series are
**bit-identical** across the serial and process backends and across worker
counts, on both the toy example and the proton-beam stand-in.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.montecarlo import MonteCarloConfig, MonteCarloEstimator
from repro.datasets.proton_beam import generate_proton_beam
from repro.datasets.toy_example import toy_sample
from repro.evaluation.runner import ProgressiveRunner
from repro.parallel import shutdown_backends

#: The backend × worker matrix every surface must reproduce exactly.
BACKEND_MATRIX = [
    ("serial", 1),
    ("process", 1),
    ("process", 2),
    ("process", 4),
]

MATRIX_IDS = [f"{name}-{workers}" for name, workers in BACKEND_MATRIX]


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    yield
    shutdown_backends()


@pytest.fixture(scope="module")
def proton_beam_sample():
    return generate_proton_beam(seed=23).sample()


def _surface(sample, backend, workers, engine="vectorized"):
    estimator = MonteCarloEstimator(
        config=MonteCarloConfig(
            n_runs=2, n_count_steps=5, engine=engine, backend=backend, n_workers=workers
        ),
        seed=0,
    )
    n_mc, diagnostics = estimator.estimate_population_size(sample)
    return n_mc, np.asarray(diagnostics["kl_divergences"])


class TestSurfaceBitIdentity:
    @pytest.mark.parametrize(("backend", "workers"), BACKEND_MATRIX[1:], ids=MATRIX_IDS[1:])
    def test_toy_sample_surface_identical(self, backend, workers):
        n_ref, surface_ref = _surface(toy_sample(include_fifth=True), "serial", 1)
        n_mc, surface = _surface(toy_sample(include_fifth=True), backend, workers)
        assert n_mc == n_ref
        assert np.array_equal(surface, surface_ref)

    @pytest.mark.parametrize(("backend", "workers"), BACKEND_MATRIX[1:], ids=MATRIX_IDS[1:])
    def test_proton_beam_surface_identical(self, proton_beam_sample, backend, workers):
        n_ref, surface_ref = _surface(proton_beam_sample, "serial", 1)
        n_mc, surface = _surface(proton_beam_sample, backend, workers)
        assert n_mc == n_ref
        assert np.array_equal(surface, surface_ref)

    def test_loop_engine_identical_across_backends(self, proton_beam_sample):
        n_ref, surface_ref = _surface(proton_beam_sample, "serial", 1, engine="loop")
        n_mc, surface = _surface(proton_beam_sample, "process", 2, engine="loop")
        assert n_mc == n_ref
        assert np.array_equal(surface, surface_ref)

    def test_worker_count_does_not_leak_into_estimate(self, proton_beam_sample):
        # Same backend, different pool sizes: the seed-splitting scheme keys
        # streams by grid-row index, so the schedule cannot matter.
        n_two, surface_two = _surface(proton_beam_sample, "process", 2)
        n_four, surface_four = _surface(proton_beam_sample, "process", 4)
        assert n_two == n_four
        assert np.array_equal(surface_two, surface_four)


class TestReplayBitIdentity:
    def _series(self, backend, workers):
        runner = ProgressiveRunner(
            ["naive", "monte-carlo?seed=1&n_runs=2&n_count_steps=4"],
            backend=backend,
            n_workers=workers,
        )
        result = runner.run(generate_proton_beam(seed=23), step=150)
        return result

    @pytest.mark.parametrize(("backend", "workers"), BACKEND_MATRIX[1:3], ids=MATRIX_IDS[1:3])
    def test_replay_series_identical(self, backend, workers):
        reference = self._series("serial", 1)
        result = self._series(backend, workers)
        assert result.sample_sizes == reference.sample_sizes
        assert result.observed == reference.observed
        for name in reference.series:
            assert result.series[name].estimates == reference.series[name].estimates
            assert result.series[name].deltas == reference.series[name].deltas
            assert (
                result.series[name].count_estimates
                == reference.series[name].count_estimates
            )

    def test_replay_runtime_metadata(self):
        result = self._series("process", 2)
        assert result.runtime["backend"] == "process"
        assert result.runtime["n_workers"] == 2
        assert result.runtime["n_cells"] == len(result.sample_sizes) * 2
        assert result.runtime["wall_time_s"] > 0

    def test_run_all_matches_individual_runs(self):
        runner = ProgressiveRunner(["naive"], backend="process", n_workers=2)
        combined = runner.run_all(
            {
                "a": generate_proton_beam(seed=23),
                "b": generate_proton_beam(seed=5),
            },
            step=200,
        )
        solo = ProgressiveRunner(["naive"]).run(generate_proton_beam(seed=5), step=200)
        assert combined["b"].series["naive"].estimates == solo.series["naive"].estimates
        assert sorted(combined) == ["a", "b"]


class TestEstimateRuntimeMetadata:
    def test_monte_carlo_records_backend(self, proton_beam_sample):
        estimator = MonteCarloEstimator(
            config=MonteCarloConfig(
                n_runs=2, n_count_steps=4, backend="process", n_workers=2
            ),
            seed=0,
        )
        estimate = estimator.estimate(proton_beam_sample, "participants")
        assert estimate.runtime["backend"] == "process"
        assert estimate.runtime["n_workers"] == 2
        assert estimate.runtime["wall_time_s"] > 0
        assert estimate.details["backend"] == "process"

    def test_closed_form_estimators_have_no_runtime(self, proton_beam_sample):
        from repro.core.naive import NaiveEstimator

        estimate = NaiveEstimator().estimate(proton_beam_sample, "participants")
        assert estimate.runtime is None
