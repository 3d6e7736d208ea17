"""Per-figure experiment definitions (Section 6 and the appendices).

Every figure and table of the paper is registered as a declarative
**experiment** on the harness of :mod:`repro.evaluation.harness`: a name,
a typed parameter spec, and a plan that enumerates independent cells --
one ``(scenario, repetition)`` pair per cell for the repeated experiments
(Figures 6, 7e/f and 11), one full replay per cell for the single-stream
figures.  The harness derives one :class:`numpy.random.SeedSequence` child
per cell (keyed by cell index), fans the cells out over a
:mod:`repro.parallel` execution backend, and reduces the ordered results
into an :class:`~repro.evaluation.harness.ExperimentResult` -- so the rows
are bit-identical across backends and worker counts, and the paper's
``repetitions=50`` counts parallelize cleanly::

    from repro.evaluation import run_experiment

    result = run_experiment("figure6", repetitions=50, backend="process")

The benchmark harness under ``benchmarks/`` and the CLI's ``experiment``
subcommand drive the registry the same way.  The default parameters are
scaled down (fewer
repetitions, coarser prefix grids, lighter Monte-Carlo settings) so the
whole suite runs on a laptop in minutes.

Seeding note: the repetition experiments derive per-cell streams from
``SeedSequence`` children keyed by the global cell index.  This replaces
the pre-harness ``spawn_rngs`` loops (and Figure 11's ``seed + w`` scheme,
which made adjacent source-count cells share repetition streams), so their
numeric outputs differ from earlier revisions by design -- see DESIGN.md
("Experiment cells and per-cell seed derivation").
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.api.specs import ParamSpec
from repro.core.aggregates import estimate_avg, estimate_max, estimate_min
from repro.core.bounds import sum_upper_bound
from repro.core.bucket import (
    BucketEstimator,
    DynamicBucketing,
    EquiHeightBucketing,
    EquiWidthBucketing,
)
from repro.core.estimator import SumEstimator
from repro.core.frequency import FrequencyEstimator
from repro.core.montecarlo import MonteCarloConfig, MonteCarloEstimator
from repro.core.naive import NaiveEstimator
from repro.datasets.registry import load_dataset
from repro.datasets.toy_example import toy_sample, TOY_GROUND_TRUTH
from repro.evaluation.harness import (
    ExperimentPlan,
    ExperimentResult,
    register_experiment,
)
from repro.evaluation.runner import ProgressiveResult, ProgressiveRunner
from repro.simulation.scenarios import SyntheticScenario, get_scenario
from repro.simulation.streaker import inject_streaker_run, successive_streakers_run
from repro.utils.exceptions import ValidationError

__all__ = [
    "ExperimentResult",
    "default_estimators",
]


def default_estimators(
    mc_runs: int = 3, mc_seed: int = 0
) -> dict[str, SumEstimator]:
    """The four estimators evaluated throughout Section 6."""
    return {
        "naive": NaiveEstimator(),
        "frequency": FrequencyEstimator(),
        "bucket": BucketEstimator(strategy=DynamicBucketing()),
        "monte-carlo": MonteCarloEstimator(
            config=MonteCarloConfig(n_runs=mc_runs), seed=mc_seed
        ),
    }


def _progressive_rows(result: ProgressiveResult) -> list[dict[str, Any]]:
    rows = []
    for index, size in enumerate(result.sample_sizes):
        row: dict[str, Any] = {"n_answers": size, "observed": result.observed[index]}
        for name, series in result.series.items():
            row[name] = series.estimates[index]
        if result.ground_truth is not None:
            row["ground_truth"] = result.ground_truth
        rows.append(row)
    return rows


_SEED_DOC = "base seed; per-cell streams are SeedSequence children of it"
_N_POINTS_DOC = "number of prefix points along the replay"


def _n_points_param(default: int) -> ParamSpec:
    return ParamSpec("n_points", int, default=default, doc=_N_POINTS_DOC, minimum=1)


def _repetitions_param(default: int, doc: str) -> ParamSpec:
    return ParamSpec("repetitions", int, default=default, doc=doc, minimum=1)


# ---------------------------------------------------------------------- #
# Shared cell functions (module-level so the process backend can pickle
# them by reference; each depends only on its cell, seed, and shared state)
# ---------------------------------------------------------------------- #


def _dataset_replay_cell(cell, seed, shared):
    """One full progressive replay of a crowd-dataset stand-in."""
    dataset = load_dataset(cell["dataset"], **cell["kwargs"])
    runner = ProgressiveRunner(shared["estimators"])
    step = max(1, dataset.total_observations // cell["n_points"])
    result = runner.run(dataset, step=step)
    return {
        "name": dataset.name,
        "n_answers": dataset.total_observations,
        "ground_truth": dataset.ground_truth,
        "result": result,
    }


def _replay_reduce(experiment_id: str, description: str):
    """Reduction shared by every single-replay dataset experiment."""

    def reduce(results):
        replay = results[0]
        return ExperimentResult(
            experiment=experiment_id,
            description=description,
            rows=_progressive_rows(replay["result"]),
            parameters={
                "dataset": replay["name"],
                "n_answers": replay["n_answers"],
                "ground_truth": replay["ground_truth"],
            },
            progressive={replay["name"]: replay["result"]},
        )

    return reduce


def _scenario_final_cell(cell, seed, shared):
    """One repetition of one synthetic scenario: final estimates only.

    The cell's RNG comes exclusively from its harness-derived
    ``SeedSequence`` child, so the repetition stream is a function of the
    experiment seed and the cell index alone.
    """
    scenario_name, _repetition = cell
    scenario = get_scenario(scenario_name)
    rng = np.random.default_rng(seed)
    run = scenario.run(seed=rng)
    sample = run.sample()
    return {
        "observed": sample.sum(scenario.attribute),
        "truth": run.population.true_sum(scenario.attribute),
        "finals": {
            key: estimator.estimate(sample, scenario.attribute).corrected
            for key, estimator in shared["estimators"].items()
        },
    }


def _mean_final_row(results: "list[dict[str, Any]]") -> dict[str, Any]:
    """Average the observed/truth/per-estimator finals of repetition cells."""
    row: dict[str, Any] = {
        "ground_truth": float(np.mean([cell["truth"] for cell in results])),
        "observed": float(np.mean([cell["observed"] for cell in results])),
    }
    for key in results[0]["finals"]:
        values = [cell["finals"][key] for cell in results]
        finite = [v for v in values if math.isfinite(v)]
        row[key] = float(np.mean(finite)) if finite else float("inf")
    return row


# ---------------------------------------------------------------------- #
# Figure 2: the observed gap that motivates the paper
# ---------------------------------------------------------------------- #


def _figure2_cell(cell, seed, shared):
    dataset = load_dataset("us-tech-employment", seed=cell["seed"])
    n_points = cell["n_points"]
    sizes = [
        max(1, round(dataset.total_observations * (i + 1) / n_points))
        for i in range(n_points)
    ]
    rows = []
    for size in sorted(set(sizes)):
        observed = dataset.observed_answer(size)
        rows.append(
            {
                "n_answers": size,
                "observed": observed,
                "ground_truth": dataset.ground_truth,
                "gap_fraction": (dataset.ground_truth - observed) / dataset.ground_truth,
            }
        )
    return {"name": dataset.name, "rows": rows}


@register_experiment(
    "figure2",
    summary="observed SUM(employees) vs ground truth over the answer stream",
    params=(
        ParamSpec("seed", int, default=42, doc=_SEED_DOC),
        _n_points_param(20),
    ),
)
def _plan_figure2(params, estimators):
    cell = {"seed": params["seed"], "n_points": params["n_points"]}

    def reduce(results):
        return ExperimentResult(
            experiment="fig2",
            description="Observed SUM(employees) approaches but does not reach the ground truth",
            rows=results[0]["rows"],
            parameters={"dataset": results[0]["name"], "seed": params["seed"]},
        )

    return ExperimentPlan(cells=[cell], cell_fn=_figure2_cell, reduce_fn=reduce)


# ---------------------------------------------------------------------- #
# Figures 4, 5, 8 and 10: progressive replays of the crowd-data stand-ins
# ---------------------------------------------------------------------- #


def _register_dataset_replay(
    name: str,
    experiment_id: str,
    description: str,
    dataset: str,
    default_seed: int,
    default_n_points: int,
    default_estimators_factory,
    dataset_kwargs: "dict[str, Any] | None" = None,
) -> None:
    """Register a single-replay experiment over one dataset stand-in."""

    @register_experiment(
        name,
        summary=description,
        params=(
            ParamSpec("seed", int, default=default_seed, doc="dataset generator seed"),
            _n_points_param(default_n_points),
        ),
        default_estimators=default_estimators_factory,
    )
    def _plan(params, estimators):
        cell = {
            "dataset": dataset,
            "kwargs": {"seed": params["seed"], **(dataset_kwargs or {})},
            "n_points": params["n_points"],
        }
        return ExperimentPlan(
            cells=[cell],
            cell_fn=_dataset_replay_cell,
            reduce_fn=_replay_reduce(experiment_id, description),
            shared={"estimators": estimators},
        )


_register_dataset_replay(
    "figure4", "fig4",
    "US tech-sector employment: estimator comparison over time",
    "us-tech-employment", default_seed=42, default_n_points=10,
    default_estimators_factory=default_estimators,
)
_register_dataset_replay(
    "figure5a", "fig5a",
    "US tech-sector revenue: estimator comparison over time",
    "us-tech-revenue", default_seed=7, default_n_points=10,
    default_estimators_factory=default_estimators,
)
_register_dataset_replay(
    "figure5b", "fig5b",
    "GDP per US state: streaker-affected estimator comparison",
    "us-gdp", default_seed=11, default_n_points=10,
    default_estimators_factory=default_estimators,
)
_register_dataset_replay(
    "figure5c", "fig5c",
    "Proton beam studies: estimator comparison without a known truth",
    "proton-beam", default_seed=23, default_n_points=10,
    default_estimators_factory=default_estimators,
)


# ---------------------------------------------------------------------- #
# Figure 6: the 3x3 synthetic grid
# ---------------------------------------------------------------------- #

#: The scenario rows of Figure 6, in presentation order.
FIGURE6_SCENARIOS = (
    "ideal-w100", "ideal-w10", "ideal-w5",
    "realistic-w100", "realistic-w10", "realistic-w5",
    "rare-events-w100", "rare-events-w10", "rare-events-w5",
)


@register_experiment(
    "figure6",
    summary="estimator quality across publicity skew, correlation and #sources "
    "(repetition cells averaged per scenario)",
    params=(
        _repetitions_param(5, "independent runs per scenario (paper: 50)"),
        ParamSpec("seed", int, default=1, doc=_SEED_DOC),
        ParamSpec("n_points", int, default=8, doc="recorded in parameters for provenance", minimum=1),
        ParamSpec(
            "scenarios",
            str,
            default=None,
            doc="comma-separated scenario names (default: the full 3x3 grid)",
        ),
    ),
    default_estimators=default_estimators,
)
def _plan_figure6(params, estimators):
    if params["scenarios"]:
        names = [name.strip() for name in params["scenarios"].split(",") if name.strip()]
        if not names:
            raise ValidationError("scenarios must name at least one scenario")
    else:
        names = list(FIGURE6_SCENARIOS)
    for name in names:
        get_scenario(name)  # surface unknown names before any work runs
    repetitions = params["repetitions"]
    cells = [(name, repetition) for name in names for repetition in range(repetitions)]

    def reduce(results):
        rows = []
        for index, name in enumerate(names):
            scenario = get_scenario(name)
            chunk = results[index * repetitions : (index + 1) * repetitions]
            row: dict[str, Any] = {
                "scenario": name,
                "n_sources": scenario.n_sources,
                "publicity_skew": scenario.publicity_skew,
                "correlation": scenario.correlation,
            }
            averaged = _mean_final_row(chunk)
            row["ground_truth"] = averaged.pop("ground_truth")
            row["observed"] = averaged.pop("observed")
            row.update(averaged)
            rows.append(row)
        return ExperimentResult(
            experiment="fig6",
            description="Synthetic grid: average final estimates per scenario",
            rows=rows,
            parameters={
                "repetitions": repetitions,
                "seed": params["seed"],
                "n_points": params["n_points"],
            },
        )

    return ExperimentPlan(
        cells=cells,
        cell_fn=_scenario_final_cell,
        reduce_fn=reduce,
        shared={"estimators": estimators},
    )


# ---------------------------------------------------------------------- #
# Figure 7(a-b): streakers
# ---------------------------------------------------------------------- #


def _figure7a_cell(cell, seed, shared):
    scenario = get_scenario("aggregate-queries")
    population = scenario.build_population(seed=cell["seed"])
    run = successive_streakers_run(
        population,
        scenario.attribute,
        n_streakers=cell["n_streakers"],
        seed=cell["seed"],
    )
    runner = ProgressiveRunner(shared["estimators"])
    step = max(1, run.total_observations // cell["n_points"])
    return runner.run(run, step=step)


@register_experiment(
    "figure7a",
    summary="successive streakers: only Monte-Carlo stays near the observed sum",
    params=(
        ParamSpec("seed", int, default=3, doc=_SEED_DOC),
        _n_points_param(8),
        ParamSpec("n_streakers", int, default=3, doc="number of whole-population sources", minimum=1),
    ),
    default_estimators=default_estimators,
)
def _plan_figure7a(params, estimators):
    cell = {
        "seed": params["seed"],
        "n_points": params["n_points"],
        "n_streakers": params["n_streakers"],
    }

    def reduce(results):
        return ExperimentResult(
            experiment="fig7a",
            description="Successive streakers: only Monte-Carlo stays near the observed sum",
            rows=_progressive_rows(results[0]),
            parameters={"n_streakers": params["n_streakers"], "seed": params["seed"]},
            progressive={"streakers-only": results[0]},
        )

    return ExperimentPlan(
        cells=[cell],
        cell_fn=_figure7a_cell,
        reduce_fn=reduce,
        shared={"estimators": estimators},
    )


def _figure7b_cell(cell, seed, shared):
    scenario = SyntheticScenario(
        name="streaker-inject",
        n_sources=20,
        source_size=8,
        publicity_skew=1.0,
        correlation=1.0,
    )
    population = scenario.build_population(seed=cell["seed"])
    run = inject_streaker_run(
        population,
        scenario.attribute,
        n_normal_sources=scenario.n_sources,
        normal_source_size=scenario.source_size,
        inject_at=cell["inject_at"],
        publicity=scenario.publicity_model(),
        seed=cell["seed"],
    )
    runner = ProgressiveRunner(shared["estimators"])
    step = max(1, run.total_observations // cell["n_points"])
    return runner.run(run, step=step)


@register_experiment(
    "figure7b",
    summary="streaker injected mid-stream: Chao92-based estimators overshoot",
    params=(
        ParamSpec("seed", int, default=3, doc=_SEED_DOC),
        _n_points_param(8),
        ParamSpec("inject_at", int, default=160, doc="stream position of the streaker dump", minimum=1),
    ),
    default_estimators=default_estimators,
)
def _plan_figure7b(params, estimators):
    cell = {
        "seed": params["seed"],
        "n_points": params["n_points"],
        "inject_at": params["inject_at"],
    }

    def reduce(results):
        return ExperimentResult(
            experiment="fig7b",
            description="Streaker injected mid-stream: Chao92-based estimators overshoot",
            rows=_progressive_rows(results[0]),
            parameters={"inject_at": params["inject_at"], "seed": params["seed"]},
            progressive={"streaker-injected": results[0]},
        )

    return ExperimentPlan(
        cells=[cell],
        cell_fn=_figure7b_cell,
        reduce_fn=reduce,
        shared={"estimators": estimators},
    )


# ---------------------------------------------------------------------- #
# Figure 7(c-f): upper bound, AVG, MIN, MAX
# ---------------------------------------------------------------------- #


def _figure7c_cell(cell, seed, shared):
    scenario = get_scenario("aggregate-queries")
    run = scenario.run(seed=cell["seed"])
    truth_sum = run.population.true_sum(scenario.attribute)
    sizes = run.prefix_sizes(max(1, run.total_observations // cell["n_points"]))
    bucket = BucketEstimator()
    rows = []
    for size, sample in zip(sizes, run.samples_at(sizes)):
        bound = sum_upper_bound(
            sample, scenario.attribute, epsilon=cell["epsilon"], z=cell["z"]
        )
        estimate = bucket.estimate(sample, scenario.attribute)
        rows.append(
            {
                "n_answers": size,
                "observed": bound.observed,
                "bucket_estimate": estimate.corrected,
                "upper_bound": bound.bound,
                "missing_mass_bound": bound.missing_mass_bound,
                "ground_truth": truth_sum,
            }
        )
    return rows


@register_experiment(
    "figure7c",
    summary="SUM estimation upper bound over time",
    params=(
        ParamSpec("seed", int, default=5, doc=_SEED_DOC),
        _n_points_param(10),
        ParamSpec("epsilon", float, default=0.01, doc="missing-mass tail probability"),
        ParamSpec("z", float, default=3.0, doc="concentration multiplier of the bound"),
    ),
)
def _plan_figure7c(params, estimators):
    cell = {key: params[key] for key in ("seed", "n_points", "epsilon", "z")}

    def reduce(results):
        return ExperimentResult(
            experiment="fig7c",
            description="SUM estimation upper bound over time",
            rows=results[0],
            parameters={
                "epsilon": params["epsilon"],
                "z": params["z"],
                "seed": params["seed"],
            },
        )

    return ExperimentPlan(cells=[cell], cell_fn=_figure7c_cell, reduce_fn=reduce)


def _figure7d_cell(cell, seed, shared):
    scenario = get_scenario("aggregate-queries")
    attribute = scenario.attribute
    run = scenario.run(seed=cell["seed"])
    sizes = run.prefix_sizes(max(1, run.total_observations // cell["n_points"]))
    bucket = BucketEstimator()
    rows = []
    for size, sample in zip(sizes, run.samples_at(sizes)):
        estimate = estimate_avg(sample, attribute, bucket_estimator=bucket)
        rows.append(
            {
                "n_answers": size,
                "observed_avg": estimate.observed,
                "bucket_avg": estimate.corrected,
            }
        )
    population_avg = scenario.build_population(seed=cell["seed"]).true_avg(attribute)
    for row in rows:
        row["ground_truth_avg"] = population_avg
    return rows


@register_experiment(
    "figure7d",
    summary="AVG query: bucket weighting corrects the publicity bias",
    params=(
        ParamSpec("seed", int, default=5, doc=_SEED_DOC),
        _n_points_param(10),
    ),
)
def _plan_figure7d(params, estimators):
    cell = {"seed": params["seed"], "n_points": params["n_points"]}

    def reduce(results):
        return ExperimentResult(
            experiment="fig7d",
            description="AVG query: bucket weighting corrects the publicity bias",
            rows=results[0],
            parameters={"seed": params["seed"]},
        )

    return ExperimentPlan(cells=[cell], cell_fn=_figure7d_cell, reduce_fn=reduce)


def _extreme_cell(cell, seed, shared):
    """One repetition of the MIN/MAX trust experiment (Figure 7e/f)."""
    which, n_points = cell["which"], cell["n_points"]
    scenario = get_scenario("aggregate-queries")
    attribute = scenario.attribute
    rng = np.random.default_rng(seed)
    run = scenario.run(seed=rng)
    truth = (
        run.population.true_min(attribute)
        if which == "min"
        else run.population.true_max(attribute)
    )
    sizes = run.prefix_sizes(max(1, run.total_observations // n_points))
    entries = []
    for size, sample in zip(sizes, run.samples_at(sizes)):
        estimate = (
            estimate_min(sample, attribute)
            if which == "min"
            else estimate_max(sample, attribute)
        )
        entries.append(
            (size, estimate.observed == truth, estimate.trusted, estimate.observed)
        )
    return entries


def _register_extreme(name: str, which: str, experiment_id: str) -> None:
    description = (
        f"{which.upper()} query: report the observed extreme only when trusted"
    )

    @register_experiment(
        name,
        summary=description,
        params=(
            ParamSpec("seed", int, default=9, doc=_SEED_DOC),
            _n_points_param(8),
            _repetitions_param(5, "independent runs to average (paper: 50)"),
        ),
    )
    def _plan(params, estimators):
        repetitions = params["repetitions"]
        cell = {"which": which, "n_points": params["n_points"]}
        cells = [dict(cell, repetition=index) for index in range(repetitions)]

        def reduce(results):
            accumulator: dict[int, dict[str, float]] = {}
            for entries in results:
                for size, matches_truth, trusted, observed in entries:
                    slot = accumulator.setdefault(
                        size,
                        {
                            "observed_extreme_matches_truth": 0.0,
                            "reported": 0.0,
                            "reported_value_total": 0.0,
                            "repetitions": 0.0,
                        },
                    )
                    slot["repetitions"] += 1
                    if matches_truth:
                        slot["observed_extreme_matches_truth"] += 1
                    if trusted:
                        slot["reported"] += 1
                        slot["reported_value_total"] += observed
            rows = []
            for size in sorted(accumulator):
                slot = accumulator[size]
                reps = slot["repetitions"]
                reported = slot["reported"]
                rows.append(
                    {
                        "n_answers": size,
                        "true_extreme_observed_rate": slot["observed_extreme_matches_truth"] / reps,
                        "report_rate": reported / reps,
                        "avg_reported_value": (
                            slot["reported_value_total"] / reported
                            if reported
                            else float("nan")
                        ),
                    }
                )
            return ExperimentResult(
                experiment=experiment_id,
                description=description,
                rows=rows,
                parameters={"seed": params["seed"], "repetitions": repetitions},
            )

        return ExperimentPlan(cells=cells, cell_fn=_extreme_cell, reduce_fn=reduce)


_register_extreme("figure7e", "max", "fig7e")
_register_extreme("figure7f", "min", "fig7f")


# ---------------------------------------------------------------------- #
# Appendix B: static buckets (Figures 8 and 9)
# ---------------------------------------------------------------------- #


def _static_bucket_estimators() -> dict[str, SumEstimator]:
    return {
        "naive (1 bucket)": NaiveEstimator(),
        "dynamic bucket": BucketEstimator(strategy=DynamicBucketing()),
        "equi-width 2": BucketEstimator(strategy=EquiWidthBucketing(2)),
        "equi-width 6": BucketEstimator(strategy=EquiWidthBucketing(6)),
        "equi-width 10": BucketEstimator(strategy=EquiWidthBucketing(10)),
        "equi-height 6": BucketEstimator(strategy=EquiHeightBucketing(6)),
    }


_register_dataset_replay(
    "figure8", "fig8",
    "Static vs dynamic buckets on US tech employment (skewed, correlated)",
    "us-tech-employment", default_seed=42, default_n_points=8,
    default_estimators_factory=_static_bucket_estimators,
)


def _figure9_cell(cell, seed, shared):
    scenario = get_scenario("static-bucket-uniform")
    run = scenario.run(seed=cell["seed"])
    runner = ProgressiveRunner(shared["estimators"])
    step = max(1, run.total_observations // cell["n_points"])
    return runner.run(run, step=step)


@register_experiment(
    "figure9",
    summary="static vs dynamic buckets under uniform publicity",
    params=(
        ParamSpec("seed", int, default=13, doc=_SEED_DOC),
        _n_points_param(8),
    ),
    default_estimators=_static_bucket_estimators,
)
def _plan_figure9(params, estimators):
    cell = {"seed": params["seed"], "n_points": params["n_points"]}

    def reduce(results):
        return ExperimentResult(
            experiment="fig9",
            description="Static vs dynamic buckets under uniform publicity",
            rows=_progressive_rows(results[0]),
            parameters={"seed": params["seed"]},
            progressive={"static-bucket-uniform": results[0]},
        )

    return ExperimentPlan(
        cells=[cell],
        cell_fn=_figure9_cell,
        reduce_fn=reduce,
        shared={"estimators": estimators},
    )


# ---------------------------------------------------------------------- #
# Appendix D: combined estimators (Figure 10)
# ---------------------------------------------------------------------- #


@register_experiment(
    "figure10",
    summary="bucket+frequency and Monte-Carlo+bucket combinations",
    params=(
        ParamSpec("seed", int, default=42, doc="dataset generator seed"),
        _n_points_param(6),
        ParamSpec("mc_runs", int, default=2, doc="Monte-Carlo repetitions per grid cell", minimum=1),
    ),
)
def _plan_figure10(params, estimators):
    mc_runs = params["mc_runs"]
    built: dict[str, SumEstimator] = {
        "bucket": BucketEstimator(strategy=DynamicBucketing()),
        "bucket+frequency": BucketEstimator(
            strategy=DynamicBucketing(), base=FrequencyEstimator()
        ),
        "monte-carlo": MonteCarloEstimator(
            config=MonteCarloConfig(n_runs=mc_runs), seed=0
        ),
        "monte-carlo+bucket": BucketEstimator(
            strategy=DynamicBucketing(),
            base=MonteCarloEstimator(config=MonteCarloConfig(n_runs=mc_runs), seed=0),
            search_base=NaiveEstimator(),
        ),
    }
    cell = {
        "dataset": "us-tech-employment",
        "kwargs": {"seed": params["seed"], "n_answers": 300},
        "n_points": params["n_points"],
    }
    return ExperimentPlan(
        cells=[cell],
        cell_fn=_dataset_replay_cell,
        reduce_fn=_replay_reduce("fig10", "Combined estimators on US tech employment"),
        shared={"estimators": built},
    )


# ---------------------------------------------------------------------- #
# Appendix E: number of sources (Figure 11)
# ---------------------------------------------------------------------- #

#: The source counts swept by Figure 11.
FIGURE11_SOURCE_COUNTS = (2, 3, 4, 5)


def _figure11_default_estimators() -> dict[str, SumEstimator]:
    return {
        "bucket": BucketEstimator(strategy=DynamicBucketing()),
        "monte-carlo": MonteCarloEstimator(config=MonteCarloConfig(n_runs=2), seed=0),
    }


@register_experiment(
    "figure11",
    summary="bucket estimation quality vs the number of sources (w=2..5)",
    params=(
        ParamSpec("seed", int, default=17, doc=_SEED_DOC),
        _repetitions_param(5, "independent runs per source count (paper: 50)"),
    ),
    default_estimators=_figure11_default_estimators,
)
def _plan_figure11(params, estimators):
    repetitions = params["repetitions"]
    # Cells are (scenario, repetition) pairs; the harness keys each cell's
    # SeedSequence child by its index here, so every (w, repetition) pair
    # draws an independent stream.  (The pre-harness driver seeded the w
    # sweep with ``seed + w``, which made adjacent source counts share
    # repetition streams -- e.g. seed 18's children served both as w=2's
    # runs and as part of w=3's; fixed by construction now.)
    cells = [
        (f"sources-w{w}", repetition)
        for w in FIGURE11_SOURCE_COUNTS
        for repetition in range(repetitions)
    ]

    def reduce(results):
        rows = []
        for index, w in enumerate(FIGURE11_SOURCE_COUNTS):
            chunk = results[index * repetitions : (index + 1) * repetitions]
            row: dict[str, Any] = {"n_sources": w}
            row.update(_mean_final_row(chunk))
            rows.append(row)
        return ExperimentResult(
            experiment="fig11",
            description="More independent sources -> better bucket estimates",
            rows=rows,
            parameters={"repetitions": repetitions, "seed": params["seed"]},
        )

    return ExperimentPlan(
        cells=cells,
        cell_fn=_scenario_final_cell,
        reduce_fn=reduce,
        shared={"estimators": estimators},
    )


# ---------------------------------------------------------------------- #
# Appendix F: the toy example (Table 2)
# ---------------------------------------------------------------------- #


def _table2_cell(cell, seed, shared):
    rows = []
    for label, include_fifth in (("4 sources", False), ("5 sources", True)):
        sample = toy_sample(include_fifth=include_fifth)
        naive = NaiveEstimator().estimate(sample, "employees")
        freq = FrequencyEstimator().estimate(sample, "employees")
        bucket = BucketEstimator().estimate(sample, "employees")
        rows.append(
            {
                "configuration": label,
                "observed": naive.observed,
                "naive": naive.corrected,
                "frequency": freq.corrected,
                "bucket": bucket.corrected,
                "ground_truth": TOY_GROUND_TRUTH,
            }
        )
    return rows


@register_experiment(
    "table2",
    summary="Appendix F toy example: exact estimator outputs",
)
def _plan_table2(params, estimators):
    def reduce(results):
        return ExperimentResult(
            experiment="table2",
            description="Appendix F toy example: exact estimator outputs",
            rows=results[0],
            parameters={},
        )

    return ExperimentPlan(cells=[{}], cell_fn=_table2_cell, reduce_fn=reduce)
