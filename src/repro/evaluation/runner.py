"""Progressive replay of an observation stream through a set of estimators.

Every figure of the paper is a curve "estimate after k crowd answers".  The
:class:`ProgressiveRunner` replays the arrival-ordered stream of a
:class:`~repro.simulation.sampler.SamplingRun` (or a
:class:`~repro.datasets.base.CrowdDataset`) through
:meth:`~repro.simulation.sampler.SamplingRun.samples_at`, which folds the
stream once and snapshots the sample at every prefix size (incremental
state maintenance instead of per-prefix rebuilds).  The estimation work -- one
(prefix × estimator) cell per estimate -- is then fanned out over a
:mod:`repro.parallel` execution backend; :meth:`ProgressiveRunner.run_all`
extends the same fan-out across several datasets at once
(dataset × estimator × prefix cells in one ``map``).

Estimators are given as estimator specs (strings like
``"bucket/monte-carlo?seed=3"`` or parsed
:class:`~repro.api.specs.EstimatorSpec` objects) or as already-built
:class:`~repro.core.estimator.SumEstimator` instances.  With value-seeded
estimators (the default everywhere) the replay is bit-identical across
backends and worker counts; an estimator carrying a live
:class:`numpy.random.Generator` is only reproducible on the serial backend,
where cells run in order against the shared generator state.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.api.specs import EstimatorSpec, build_estimator
from repro.core.estimator import Estimate, SumEstimator
from repro.data.sample import ObservedSample
from repro.datasets.base import CrowdDataset
from repro.evaluation.metrics import series_summary
from repro.parallel.backends import ExecutionBackend, resolve_backend
from repro.simulation.sampler import SamplingRun
from repro.utils.exceptions import ValidationError
from repro.utils.serialization import envelope, unwrap


@dataclass
class EstimateSeries:
    """One estimator's corrected-answer series over the replay.

    Attributes
    ----------
    estimator:
        The estimator name.
    sample_sizes:
        Prefix sizes (number of observations) at which estimates were taken.
    estimates:
        The corrected answers ``φ̂_D`` (parallel to ``sample_sizes``).
    deltas:
        The impact estimates ``Δ̂``.
    count_estimates:
        The count estimates ``N̂``.
    coverages:
        The estimated sample coverage at each prefix.
    """

    estimator: str
    sample_sizes: list[int] = field(default_factory=list)
    estimates: list[float] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)
    count_estimates: list[float] = field(default_factory=list)
    coverages: list[float] = field(default_factory=list)

    def final_estimate(self) -> float:
        """The estimate at the largest prefix."""
        if not self.estimates:
            return float("nan")
        return self.estimates[-1]

    def summary(self, ground_truth: float) -> dict[str, float]:
        """Error summary of this series against a ground truth."""
        return series_summary(self.estimates, ground_truth)

    # ------------------------------------------------------------------ #
    # Serialization (repro.api.results contract)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON representation under the shared result envelope."""
        return envelope(
            "estimate-series",
            {
                "estimator": self.estimator,
                "sample_sizes": self.sample_sizes,
                "estimates": self.estimates,
                "deltas": self.deltas,
                "count_estimates": self.count_estimates,
                "coverages": self.coverages,
            },
        )

    @classmethod
    def from_dict(cls, payload: "dict[str, Any]") -> "EstimateSeries":
        """Rebuild an :class:`EstimateSeries` serialized with :meth:`to_dict`."""
        return cls(**unwrap(payload, "estimate-series"))


@dataclass
class ProgressiveResult:
    """Result of one progressive replay.

    Attributes
    ----------
    attribute:
        The aggregated attribute.
    sample_sizes:
        The prefix sizes used.
    observed:
        The closed-world answers at each prefix (the grey line of the
        paper's figures).
    series:
        One :class:`EstimateSeries` per estimator, keyed by estimator name.
    ground_truth:
        The true answer when known (the dashed line), else ``None``.
    runtime:
        Optional execution metadata of the replay (``wall_time_s``,
        ``backend``, ``n_workers``, ``n_cells``) recorded by
        :class:`ProgressiveRunner`; ``None`` for hand-built results and
        payloads predating the field.
    """

    attribute: str
    sample_sizes: list[int]
    observed: list[float]
    series: dict[str, EstimateSeries]
    ground_truth: float | None = None
    runtime: dict[str, Any] | None = None

    def final_estimates(self) -> dict[str, float]:
        """Final corrected answer per estimator."""
        return {name: s.final_estimate() for name, s in self.series.items()}

    def summaries(self) -> dict[str, dict[str, float]]:
        """Error summaries per estimator (requires a known ground truth)."""
        if self.ground_truth is None:
            raise ValidationError("no ground truth available for summaries")
        return {name: s.summary(self.ground_truth) for name, s in self.series.items()}

    def best_estimator(self) -> str:
        """The estimator whose final estimate is closest to the ground truth."""
        if self.ground_truth is None:
            raise ValidationError("no ground truth available")
        finite = {
            name: abs(s.final_estimate() - self.ground_truth)
            for name, s in self.series.items()
            if math.isfinite(s.final_estimate())
        }
        if not finite:
            raise ValidationError("no estimator produced a finite final estimate")
        return min(finite, key=finite.get)

    # ------------------------------------------------------------------ #
    # Serialization (repro.api.results contract)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON representation under the shared result envelope."""
        return envelope(
            "progressive-result",
            {
                "attribute": self.attribute,
                "sample_sizes": self.sample_sizes,
                "observed": self.observed,
                "series": {
                    name: series.to_dict() for name, series in self.series.items()
                },
                "ground_truth": self.ground_truth,
                "runtime": self.runtime,
            },
        )

    @classmethod
    def from_dict(cls, payload: "dict[str, Any]") -> "ProgressiveResult":
        """Rebuild a :class:`ProgressiveResult` serialized with :meth:`to_dict`.

        Payloads written before the ``runtime`` field existed still
        round-trip (the field defaults to ``None``).
        """
        body = unwrap(payload, "progressive-result")
        body["series"] = {
            name: EstimateSeries.from_dict(series)
            for name, series in body["series"].items()
        }
        body.setdefault("runtime", None)
        return cls(**body)


#: Internal key :meth:`ProgressiveRunner.run` files its single source under
#: when delegating to :meth:`ProgressiveRunner.run_all`.
_SINGLE_SOURCE_KEY = "__single__"


def _estimate_prefix_cells(
    task: "tuple[ObservedSample, str, dict[str, SumEstimator]]",
    shared: "dict[str, Any]",
) -> "list[tuple[float, float, float, float]]":
    """Backend task: all estimator cells of one replay prefix.

    Module-level so the process backend can pickle it by reference.  One
    task per (source × prefix) keeps each prefix sample crossing the IPC
    pipe exactly once (instead of once per estimator), while the fan-out
    stays fine-grained enough for work stealing -- prefixes vastly
    outnumber workers.  Returns the four series entries per estimator, in
    the runner's estimator order, instead of full :class:`Estimate` objects
    to keep the result pipe narrow.
    """
    sample, attribute, estimators = task
    cells = []
    for estimator in estimators.values():
        estimate: Estimate = estimator.estimate(sample, attribute)
        cells.append(
            (
                estimate.corrected,
                estimate.delta,
                estimate.count_estimate,
                estimate.coverage,
            )
        )
    return cells


class ProgressiveRunner:
    """Replays an observation stream through a set of estimators.

    Parameters
    ----------
    estimators:
        Either a mapping ``{name: estimator-or-spec}`` or a sequence of
        estimator specs (strings understood by
        :meth:`repro.api.specs.EstimatorSpec.parse`, parsed spec objects, or
        built :class:`SumEstimator` instances).
    backend:
        Execution backend the (prefix × estimator) estimation cells are
        fanned out over: a :data:`repro.parallel.BACKENDS` name, an
        :class:`~repro.parallel.ExecutionBackend` instance, or ``None`` for
        the process-wide default (serial unless overridden).  The stream
        fold is inherently sequential and always runs inline; only the
        independent estimation cells are sharded.
    n_workers:
        Worker count of the backend (``None``: backend default).
    """

    def __init__(
        self,
        estimators: "Mapping[str, SumEstimator | str | EstimatorSpec] "
        "| Sequence[str | EstimatorSpec | SumEstimator]",
        backend: "str | ExecutionBackend | None" = None,
        n_workers: "int | None" = None,
    ) -> None:
        if isinstance(estimators, Mapping):
            self.estimators = {
                name: build_estimator(spec) for name, spec in estimators.items()
            }
        else:
            self.estimators = {
                self._spec_label(spec): build_estimator(spec) for spec in estimators
            }
        if not self.estimators:
            raise ValidationError("at least one estimator is required")
        self._backend = backend
        self._n_workers = n_workers

    @staticmethod
    def _spec_label(spec: "str | EstimatorSpec | SumEstimator") -> str:
        if isinstance(spec, SumEstimator):
            return spec.name
        return EstimatorSpec.of(spec).to_string()

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #

    def run(
        self,
        source: "SamplingRun | CrowdDataset",
        prefix_sizes: Sequence[int] | None = None,
        step: int | None = None,
        min_prefix: int = 10,
    ) -> ProgressiveResult:
        """Replay ``source`` and estimate at each prefix size.

        Parameters
        ----------
        source:
            A simulation run or a crowd-dataset stand-in.
        prefix_sizes:
            Explicit prefix sizes; overrides ``step``.
        step:
            Evenly spaced prefix sizes ``step, 2·step, ...`` (default: ten
            evenly spaced points).
        min_prefix:
            Smallest prefix worth estimating on (tiny prefixes only produce
            divergent estimates).
        """
        results = self.run_all(
            {_SINGLE_SOURCE_KEY: source}, prefix_sizes, step, min_prefix
        )
        return results[_SINGLE_SOURCE_KEY]

    def run_all(
        self,
        sources: "Mapping[str, SamplingRun | CrowdDataset] "
        "| Sequence[SamplingRun | CrowdDataset]",
        prefix_sizes: Sequence[int] | None = None,
        step: int | None = None,
        min_prefix: int = 10,
    ) -> dict[str, ProgressiveResult]:
        """Replay several sources, fanning every estimation cell out at once.

        The (dataset × estimator × prefix) cells of *all* sources form one
        task list over the configured backend, so a slow cell of one dataset
        overlaps the cells of every other -- the scenario-sweep shape the
        benchmark harness runs.  Returns ``{source name: result}``; unnamed
        sequences are keyed by their dataset ``name`` attribute (or
        positional index).
        """
        named = self._named_sources(sources)
        backend = resolve_backend(self._backend, self._n_workers)
        start = time.perf_counter()

        # Phase 1, inline: one O(stream) fold per source, snapshotting
        # the sample at every prefix.
        replays: dict[str, dict[str, Any]] = {}
        tasks: list[tuple[ObservedSample, str, dict[str, SumEstimator]]] = []
        task_keys: list[tuple[str, int]] = []
        for key, source in named.items():
            if isinstance(source, CrowdDataset):
                run = source.run
                ground_truth = source.ground_truth
                attribute = source.attribute
            else:
                run = source
                attribute = run.attribute
                ground_truth = run.population.true_sum(attribute)
            total = run.total_observations
            if total == 0:
                raise ValidationError(
                    "the observation stream is empty"
                    if key == _SINGLE_SOURCE_KEY
                    else f"the observation stream of {key!r} is empty"
                )
            sizes = self._resolve_prefix_sizes(total, prefix_sizes, step, min_prefix)
            samples = run.samples_at(sizes)
            observed = [sample.sum(attribute) for sample in samples]
            for index, sample in enumerate(samples):
                tasks.append((sample, attribute, self.estimators))
                task_keys.append((key, index))
            replays[key] = {
                "attribute": attribute,
                "ground_truth": ground_truth,
                "sizes": sizes,
                "observed": observed,
            }

        # Phase 2, fanned out: every (source × prefix) task is independent
        # and evaluates all estimators on its one sample.
        prefix_cells = backend.map(_estimate_prefix_cells, tasks)

        # Phase 3, inline: reassemble the ordered series per source.
        results: dict[str, ProgressiveResult] = {}
        series_by_source: dict[str, dict[str, EstimateSeries]] = {
            key: {name: EstimateSeries(estimator=name) for name in self.estimators}
            for key in replays
        }
        for (key, index), cells in zip(task_keys, prefix_cells):
            size = replays[key]["sizes"][index]
            for name, (corrected, delta, count, coverage) in zip(
                self.estimators, cells
            ):
                entry = series_by_source[key][name]
                entry.sample_sizes.append(size)
                entry.estimates.append(corrected)
                entry.deltas.append(delta)
                entry.count_estimates.append(count)
                entry.coverages.append(coverage)
        runtime = {
            "wall_time_s": time.perf_counter() - start,
            "backend": backend.name,
            "n_workers": backend.n_workers,
            "n_cells": len(tasks) * len(self.estimators),
        }
        for key, replay in replays.items():
            results[key] = ProgressiveResult(
                attribute=replay["attribute"],
                sample_sizes=list(replay["sizes"]),
                observed=replay["observed"],
                series=series_by_source[key],
                ground_truth=replay["ground_truth"],
                runtime=dict(runtime),
            )
        return results

    @staticmethod
    def _named_sources(
        sources: "Mapping[str, SamplingRun | CrowdDataset] "
        "| Sequence[SamplingRun | CrowdDataset]",
    ) -> "dict[str, SamplingRun | CrowdDataset]":
        if isinstance(sources, Mapping):
            named = dict(sources)
        else:
            named = {}
            for index, source in enumerate(sources):
                key = getattr(source, "name", None) or f"source-{index}"
                if key in named:
                    key = f"{key}-{index}"
                named[key] = source
        if not named:
            raise ValidationError("at least one source is required")
        return named

    def run_single(
        self, sample: ObservedSample, attribute: str
    ) -> dict[str, float]:
        """Estimate once on a fully integrated sample (no replay)."""
        return {
            name: estimator.estimate(sample, attribute).corrected
            for name, estimator in self.estimators.items()
        }

    @staticmethod
    def _resolve_prefix_sizes(
        total: int,
        prefix_sizes: Sequence[int] | None,
        step: int | None,
        min_prefix: int,
    ) -> list[int]:
        if prefix_sizes is not None:
            sizes = sorted(set(int(s) for s in prefix_sizes if 1 <= s <= total))
            if not sizes:
                raise ValidationError("no valid prefix sizes given")
            return sizes
        if step is not None:
            if step < 1:
                raise ValidationError(f"step must be >= 1, got {step}")
            sizes = list(range(max(step, min_prefix), total + 1, step))
        else:
            n_points = 10
            stride = max(1, total // n_points)
            sizes = list(range(max(stride, min_prefix), total + 1, stride))
        if not sizes:
            sizes = [total]
        if sizes[-1] != total:
            sizes.append(total)
        return sizes
