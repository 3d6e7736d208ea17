"""The Monte-Carlo estimator (Section 3.4, Algorithms 2 and 3).

The Chao92-based estimators assume the integrated sample approximates a
sample *with* replacement, which breaks down when only a few sources
contribute or when contributions are heavily imbalanced ("streakers").  The
Monte-Carlo estimator instead simulates the actual multi-stage sampling
process -- each source drawing ``n_j`` entities *without* replacement from an
assumed publicity distribution over ``θ_N`` entities -- and picks the
parameters ``Θ = (θ_N, θ_λ)`` whose simulated frequency statistics best match
the observed ones (smallest KL divergence), after smoothing the comparison
with a least-squares quadratic surface fit over the searched grid.

The fitted ``N̂_MC`` is then combined with the mean-substitution value
estimate of the naive estimator.  Because unmatched simulated uniques are
penalised by the KL objective, ``N̂_MC`` tends to stay close to the observed
unique count ``c``, which is exactly the conservative behaviour the paper
reports (good under streakers, overly timid when publicity is uniform).

The grid search itself is *sharded*: every θ_N grid row is an independent
task fanned out over a :mod:`repro.parallel` execution backend
(``serial`` or ``process``), each row drawing its noise from its own
:class:`numpy.random.SeedSequence` child keyed by the row index, so the
estimate is bit-identical whatever backend or worker count executes it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.estimator import Estimate, SumEstimator
from repro.core.fstatistics import FrequencyStatistics
from repro.core.species import chao92_estimate
from repro.data.sample import ObservedSample
from repro.parallel.backends import BACKENDS, ExecutionBackend, resolve_backend
from repro.parallel.seeding import spawn_task_seeds
from repro.utils.exceptions import ValidationError
from repro.utils.sampling import batched_draw_counts
from repro.utils.stats import smooth_distribution, smoothed_kl_divergence

#: Supported simulation engines: the vectorized Gumbel top-k engine is the
#: default; the legacy per-draw loop is kept as the parity oracle.
ENGINES = ("vectorized", "loop")

#: Default RNG seed of the estimator.  The estimator registry reads this
#: (and the :class:`MonteCarloConfig` field defaults) instead of repeating
#: the values, so there is exactly one place they can change.
DEFAULT_SEED = 0


@dataclass
class MonteCarloConfig:
    """Tuning knobs of the Monte-Carlo estimator.

    Attributes
    ----------
    n_runs:
        MC repetitions per grid cell (``nbRuns`` in Algorithm 2).
    n_count_steps:
        Number of grid steps for ``θ_N`` between ``c`` and ``N̂_Chao92``
        (the paper uses 10).
    lambda_grid:
        Candidate publicity-skew values ``θ_λ``.  Publicity is modelled as
        ``p_i ∝ exp(−λ·i/N)`` (rank normalised by N; see DESIGN.md), so the
        default grid spans "uniform" to "heavily skewed".
    smoothing_epsilon:
        Probability mass assigned to frequency-statistic indices the observed
        sample lacks (the ``smooth`` step of Algorithm 2).
    surface_degree:
        Degree of the least-squares polynomial surface fitted over the grid.
    engine:
        ``"vectorized"`` (default) simulates all runs and sources of a grid
        cell in one batched Gumbel top-k pass; ``"loop"`` is the original
        per-draw implementation, kept as a parity oracle and escape hatch
        (see DESIGN.md).  Both sample the same distribution; point estimates
        agree up to Monte-Carlo noise within the grid resolution.
    backend:
        Execution backend the θ_N grid rows are sharded over: one of
        :data:`repro.parallel.BACKENDS` (``"serial"``, ``"process"``), an
        :class:`~repro.parallel.ExecutionBackend` instance, or ``None`` to
        follow the process-wide default
        (:func:`repro.parallel.set_default_backend` / ``REPRO_BACKEND``).
        The estimate is bit-identical across backends and worker counts.
    n_workers:
        Worker count of the backend (``None``: all CPUs for the process
        pool, or the configured default).
    """

    n_runs: int = 5
    n_count_steps: int = 10
    lambda_grid: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
    smoothing_epsilon: float = 1e-6
    surface_degree: int = 2
    engine: str = "vectorized"
    backend: "str | ExecutionBackend | None" = None
    n_workers: "int | None" = None

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ValidationError(f"n_runs must be >= 1, got {self.n_runs}")
        if self.n_count_steps < 1:
            raise ValidationError(
                f"n_count_steps must be >= 1, got {self.n_count_steps}"
            )
        if len(self.lambda_grid) < 1:
            raise ValidationError("lambda_grid must not be empty")
        if self.smoothing_epsilon <= 0:
            raise ValidationError("smoothing_epsilon must be positive")
        if self.surface_degree < 1:
            raise ValidationError("surface_degree must be >= 1")
        if self.engine not in ENGINES:
            raise ValidationError(
                f"unknown engine {self.engine!r}; expected one of {', '.join(ENGINES)}"
            )
        if self.backend is not None and not isinstance(self.backend, ExecutionBackend):
            if self.backend not in BACKENDS:
                raise ValidationError(
                    f"unknown backend {self.backend!r}; expected one of "
                    f"{', '.join(BACKENDS)}"
                )
        if self.n_workers is not None and self.n_workers < 1:
            raise ValidationError(f"n_workers must be >= 1, got {self.n_workers}")


class MonteCarloEstimator(SumEstimator):
    """Simulation-fitted count estimate × mean-substitution value estimate.

    Parameters
    ----------
    config:
        Monte-Carlo tuning parameters (defaults follow the paper).
    seed:
        Seed or :class:`numpy.random.Generator` controlling the simulation;
        a fixed default keeps results reproducible run to run.
    """

    name = "monte-carlo"

    def __init__(
        self,
        config: MonteCarloConfig | None = None,
        seed: "int | np.random.Generator | None" = DEFAULT_SEED,
    ) -> None:
        self.config = config or MonteCarloConfig()
        self._seed = seed

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def estimate(self, sample: ObservedSample, attribute: str) -> Estimate:
        """Estimate the unknown-unknowns impact on ``SUM(attribute)``."""
        self._check_attribute(sample, attribute)
        start = time.perf_counter()
        n_mc, diagnostics = self.estimate_population_size(sample)
        wall_time = time.perf_counter() - start
        observed_sum = sample.sum(attribute)
        mean_value = observed_sum / sample.c
        delta = mean_value * max(n_mc - sample.c, 0.0)
        return self._build_estimate(
            sample,
            attribute,
            delta=delta,
            count_estimate=n_mc,
            value_estimate=mean_value,
            details=diagnostics,
            runtime={
                "wall_time_s": wall_time,
                "backend": diagnostics["backend"],
                "n_workers": diagnostics["n_workers"],
            },
        )

    def estimate_population_size(
        self, sample: ObservedSample
    ) -> tuple[float, dict[str, Any]]:
        """Algorithm 3: grid search + surface fit for ``N̂_MC``.

        The θ_N grid rows are independent tasks sharded over the configured
        :mod:`repro.parallel` backend.  Row ``i`` draws its simulation noise
        from the ``i``-th :class:`numpy.random.SeedSequence` child of the
        estimator seed, so the returned surface is bit-identical whatever
        backend or worker count executed it (see DESIGN.md).

        Returns the fitted count estimate and a diagnostics dictionary
        (grid, divergences, fitted optimum, backend).
        """
        stats = FrequencyStatistics.from_sample(sample)
        c = stats.c
        chao = chao92_estimate(stats)
        n_upper = chao.n_hat
        if not math.isfinite(n_upper) or n_upper <= c:
            # Degenerate coverage: fall back to a generous search ceiling so
            # the simulation can still explore "many entities are missing".
            n_upper = max(2.0 * c, c + 10.0)

        count_grid = self._count_grid(c, n_upper)
        lambda_grid = list(self.config.lambda_grid)
        source_sizes = [s for s in sample.source_sizes if s > 0]
        if not source_sizes:
            source_sizes = [stats.n]

        backend = resolve_backend(self.config.backend, self.config.n_workers)
        row_seeds = spawn_task_seeds(self._seed, len(count_grid))
        rows = backend.map(
            _grid_row_divergences,
            list(zip(count_grid, row_seeds)),
            shared={
                # Observed-side invariants of the whole grid (pickled with
                # each chunk on the process backend, read-only there).
                "observed_items": _descending_item_counts(stats),
                "source_sizes": np.asarray(source_sizes, dtype=np.int64),
                "lambda_grid": np.asarray(lambda_grid, dtype=float),
                "engine": self.config.engine,
                "n_runs": self.config.n_runs,
                "epsilon": self.config.smoothing_epsilon,
            },
        )
        divergences = np.vstack(rows)

        n_best, lambda_best = self._fit_and_minimise(
            count_grid, lambda_grid, divergences
        )
        diagnostics: dict[str, Any] = {
            "count_grid": [float(x) for x in count_grid],
            "lambda_grid": [float(x) for x in lambda_grid],
            "kl_divergences": divergences.tolist(),
            "fitted_count": float(n_best),
            "fitted_lambda": float(lambda_best),
            "chao92_upper": float(n_upper),
            "engine": self.config.engine,
            "backend": backend.name,
            "n_workers": backend.n_workers,
        }
        return float(n_best), diagnostics

    # ------------------------------------------------------------------ #
    # Algorithm 3: grid + surface fit
    # ------------------------------------------------------------------ #

    def _count_grid(self, c: int, n_upper: float) -> list[int]:
        """θ_N grid from ``c`` to ``N̂_Chao92`` in ``n_count_steps`` steps."""
        step = (n_upper - c) / self.config.n_count_steps
        grid = [int(round(c + i * step)) for i in range(self.config.n_count_steps + 1)]
        unique = sorted(set(max(value, c) for value in grid))
        return unique

    def _fit_and_minimise(
        self,
        count_grid: list[int],
        lambda_grid: list[float],
        divergences: np.ndarray,
    ) -> tuple[float, float]:
        """Least-squares quadratic surface fit, then arg-min on the surface.

        Falls back to the raw grid minimum when the fit is ill-conditioned
        (e.g. a degenerate single-point grid) or when some divergences are
        infinite.
        """
        points = []
        values = []
        for i, n in enumerate(count_grid):
            for j, lam in enumerate(lambda_grid):
                value = divergences[i, j]
                if math.isfinite(value):
                    points.append((float(n), float(lam)))
                    values.append(float(value))
        if len(points) < 6 or len(count_grid) < 2:
            return self._grid_minimum(count_grid, lambda_grid, divergences)

        design = _quadratic_design(np.array(points))
        try:
            coeffs, *_ = np.linalg.lstsq(design, np.array(values), rcond=None)
        except np.linalg.LinAlgError:
            return self._grid_minimum(count_grid, lambda_grid, divergences)

        # Evaluate the fitted surface on a fine grid bounded by the search
        # ranges and return its minimiser.
        n_fine = np.linspace(min(count_grid), max(count_grid), 101)
        lam_fine = np.linspace(min(lambda_grid), max(lambda_grid), 41)
        grid_n, grid_lam = np.meshgrid(n_fine, lam_fine, indexing="ij")
        fine_points = np.column_stack([grid_n.ravel(), grid_lam.ravel()])
        surface = _quadratic_design(fine_points) @ coeffs
        best_index = int(np.argmin(surface))
        return float(fine_points[best_index, 0]), float(fine_points[best_index, 1])

    @staticmethod
    def _grid_minimum(
        count_grid: list[int],
        lambda_grid: list[float],
        divergences: np.ndarray,
    ) -> tuple[float, float]:
        """Raw grid arg-min fallback."""
        finite = np.where(np.isfinite(divergences), divergences, np.inf)
        i, j = np.unravel_index(int(np.argmin(finite)), finite.shape)
        return float(count_grid[i]), float(lambda_grid[j])


# ---------------------------------------------------------------------- #
# Grid-row simulation tasks (Algorithm 2, one θ_N row per task)
# ---------------------------------------------------------------------- #
#
# These are module-level functions (not methods) because the process
# backend pickles the task function by reference; the task tuple carries
# only (θ_N, SeedSequence) while the observed-side invariants arrive through
# the backend's broadcast ``shared`` mapping.


def _grid_row_divergences(
    task: "tuple[int, np.random.SeedSequence]", shared: "dict[str, Any]"
) -> np.ndarray:
    """Average KL divergences of one θ_N grid row, for every λ.

    The row builds its own :class:`numpy.random.Generator` from the
    :class:`~numpy.random.SeedSequence` child in the task, so its draws are
    a pure function of (estimator seed, row index) -- the property that
    makes the whole surface backend- and worker-count-independent.
    """
    theta_n, seed = task
    rng = np.random.default_rng(seed)
    observed_items = shared["observed_items"]
    source_sizes = shared["source_sizes"]
    lambdas = shared["lambda_grid"]
    n_runs = shared["n_runs"]
    epsilon = shared["epsilon"]
    if shared["engine"] == "vectorized":
        return _vectorized_row(
            theta_n, lambdas, observed_items, source_sizes, n_runs, epsilon, rng
        )
    return _loop_row(
        theta_n, lambdas, observed_items, source_sizes, n_runs, epsilon, rng
    )


def _vectorized_row(
    theta_n: int,
    lambdas: np.ndarray,
    observed_items: np.ndarray,
    source_sizes: np.ndarray,
    n_runs: int,
    epsilon: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One grid row via batched Gumbel top-k draws.

    Every λ × run × source draw of the row shares one noise pass
    (:func:`batched_draw_counts`), and all ``n_λ · n_runs`` divergences come
    out of a single matrix computation.  The observed comparison vector only
    depends on ``θ_N`` (the padded length), so it is computed once per row
    and hoisted out of the λ and run dimensions; ``Σ p·log p`` of the
    observed side is likewise shared.
    """
    obs_size = observed_items.size
    # Simulated count vectors have exactly theta_n entries, so the padded
    # comparison length is fixed for the whole grid row.
    length = max(theta_n, obs_size)
    obs = np.zeros(length)
    obs[:obs_size] = observed_items
    obs_p = smooth_distribution(obs / max(obs.sum(), 1.0), epsilon)
    obs_entropy = float(np.dot(obs_p, np.log(obs_p)))
    # Publicity matrix of the row: p_λi ∝ exp(−λ·i/θ_N), one row per λ.
    ranks = np.arange(theta_n, dtype=float)
    weights = np.exp(np.outer(-lambdas / theta_n, ranks))
    publicities = weights / weights.sum(axis=1, keepdims=True)
    counts = batched_draw_counts(publicities, source_sizes, n_runs, rng)
    return _mean_smoothed_kl(obs_p, obs_entropy, counts, length, epsilon)


def _loop_row(
    theta_n: int,
    lambdas: np.ndarray,
    observed_items: np.ndarray,
    source_sizes: np.ndarray,
    n_runs: int,
    epsilon: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One grid row via the legacy per-draw loop (the parity oracle)."""
    row = np.empty(lambdas.size)
    for j, theta_lambda in enumerate(lambdas):
        publicity = exponential_publicity(theta_n, float(theta_lambda))
        total = 0.0
        for _ in range(n_runs):
            simulated_counts = _simulate_sources(publicity, source_sizes, rng)
            total += _cell_divergence(
                observed_items, simulated_counts, theta_n, epsilon
            )
        row[j] = total / n_runs
    return row


def _mean_smoothed_kl(
    obs_p: np.ndarray,
    obs_entropy: float,
    counts: np.ndarray,
    length: int,
    epsilon: float,
) -> np.ndarray:
    """Mean KL(obs ‖ run) over simulated runs for every λ, vectorized.

    ``counts`` has shape ``(n_λ, n_runs, θ_N)``.  Each run's counts are
    sorted descending ("indexing"), padded to ``length``, normalised and
    smoothed exactly like the loop engine; ``KL(p‖q) = Σ p·log p − Σ
    p·log q`` lets the observed entropy term be shared across all runs
    and λ so only the cross terms need a matrix product.  Returns the
    per-λ averages.
    """
    n_lambdas, n_runs, n_items = counts.shape
    sim = np.zeros((n_lambdas, n_runs, length))
    sim[:, :, :n_items] = -np.sort(-counts, axis=2)
    totals = sim.sum(axis=2, keepdims=True)
    degenerate = totals[:, :, 0] <= 0
    np.copyto(totals, 1.0, where=totals <= 0)
    sim_p = sim / totals
    np.copyto(sim_p, epsilon, where=sim_p <= 0)
    sim_p /= sim_p.sum(axis=2, keepdims=True)
    cross = np.log(sim_p) @ obs_p
    result = obs_entropy - cross.mean(axis=1)
    result[degenerate.any(axis=1)] = np.inf
    return result


def _simulate_sources(
    publicity: np.ndarray,
    source_sizes: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Simulate every source sampling without replacement; return item counts."""
    n_items = publicity.size
    counts = np.zeros(n_items, dtype=int)
    for size in source_sizes:
        draw = min(int(size), n_items)
        if draw <= 0:
            continue
        chosen = rng.choice(n_items, size=draw, replace=False, p=publicity)
        counts[chosen] += 1
    return counts


def _cell_divergence(
    observed_items: np.ndarray,
    simulated_counts: np.ndarray,
    theta_n: int,
    epsilon: float,
) -> float:
    """KL divergence between smoothed observed and simulated count histograms.

    Both samples are turned into per-item count vectors sorted in
    descending order ("indexing" in Algorithm 2) and padded to the
    assumed population size, so that the i-th most frequent observed item
    is compared against the i-th most frequent simulated item.  Observed
    zero entries are smoothed so the divergence stays defined, which is
    exactly what penalises simulations that postulate many never-observed
    items.
    """
    simulated_items = np.sort(simulated_counts)[::-1].astype(float)
    length = max(theta_n, observed_items.size, simulated_items.size)
    obs = np.zeros(length)
    sim = np.zeros(length)
    obs[: observed_items.size] = observed_items
    sim[: simulated_items.size] = simulated_items
    if sim.sum() <= 0:
        return float("inf")
    return smoothed_kl_divergence(
        obs / max(obs.sum(), 1.0), sim / sim.sum(), epsilon
    )


# ---------------------------------------------------------------------- #
# Module-level helpers
# ---------------------------------------------------------------------- #


def exponential_publicity(n_items: int, skew: float) -> np.ndarray:
    """Publicity distribution ``p_i ∝ exp(−skew · i / n_items)``.

    ``skew = 0`` yields the uniform distribution; larger values concentrate
    probability mass on the first (most "public") items.  Negative skews
    reverse the direction.  This is the single publicity convention used by
    both the simulator and the Monte-Carlo estimator (see DESIGN.md).
    """
    if n_items < 1:
        raise ValidationError(f"n_items must be >= 1, got {n_items}")
    ranks = np.arange(n_items, dtype=float)
    weights = np.exp(-skew * ranks / n_items)
    return weights / weights.sum()


def _descending_item_counts(stats: FrequencyStatistics) -> np.ndarray:
    """Per-item observation counts implied by f-statistics, sorted descending."""
    counts: list[float] = []
    for occurrences, how_many in sorted(stats.frequencies.items(), reverse=True):
        counts.extend([float(occurrences)] * how_many)
    return np.array(counts, dtype=float)


def _quadratic_design(points: np.ndarray) -> np.ndarray:
    """Design matrix of a full quadratic surface in two variables."""
    x = points[:, 0]
    y = points[:, 1]
    return np.column_stack([np.ones_like(x), x, y, x * y, x**2, y**2])
