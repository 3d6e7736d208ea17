"""Declarative experiment harness: registry, cell fan-out, reduction.

The paper's figure suite repeats every scenario many times (50 at paper
scale) and averages.  Every figure and table runs through one declarative
pipeline, mirroring the estimator registry of :mod:`repro.api.specs`:

* an experiment registers itself with :func:`register_experiment`,
  declaring a **name**, a typed **parameter spec** (reusing
  :class:`~repro.api.specs.ParamSpec`), and a **plan function** that
  enumerates independent cells -- e.g. one ``(scenario, repetition)`` pair
  per cell for Figure 6 -- plus a reduction back into an
  :class:`ExperimentResult`;
* :func:`run_experiment` coerces the parameters, derives one
  :class:`numpy.random.SeedSequence` child per cell with
  :func:`repro.parallel.spawn_task_seeds` (keyed by the cell's index in the
  fan-out, never by execution order), ships the cells through
  ``ExecutionBackend.map``, and reduces the ordered results;
* :func:`list_experiments` / :func:`describe_experiment` provide the same
  introspection surface as ``available_estimators`` / ``describe_estimators``.

Because every cell draws only from its own seed child and the reduction
consumes results in cell order, an experiment's ``rows`` are **bit-identical
across the serial, thread and process backends and across worker counts**
-- the determinism contract established for the Monte-Carlo grid in PR 3,
now enforced one layer up.  ``--repetitions 50 --backend process`` therefore
reproduces the paper's repetition counts with the same bytes a serial run
would produce, just faster.

Serialization: :class:`ExperimentResult` joins the ``repro.result/v1``
envelope (kind ``experiment-result``).  Execution metadata (wall time,
backend, worker count) lives only on the in-memory ``runtime`` attribute
and is *excluded* from the JSON payload, so serialized experiment results
are byte-identical across backends -- the property the CI smoke job diffs.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.api.specs import EstimatorSpec, ParamSpec, build_estimator
from repro.core.estimator import SumEstimator
from repro.evaluation.runner import ProgressiveResult
from repro.parallel.backends import ExecutionBackend, resolve_backend
from repro.parallel.seeding import spawn_task_seeds
from repro.utils.exceptions import ValidationError
from repro.utils.serialization import envelope, unwrap

__all__ = [
    "ExperimentDefinition",
    "ExperimentPlan",
    "ExperimentResult",
    "register_experiment",
    "run_experiment",
    "list_experiments",
    "describe_experiment",
]


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    Attributes
    ----------
    experiment:
        The experiment id (``"fig4"``, ``"table2"``, ...).
    description:
        One-line description of what was measured.
    rows:
        The table the paper's figure corresponds to (one dict per row).
    parameters:
        The workload parameters used.
    progressive:
        The underlying progressive replay result(s), when applicable.
    runtime:
        Execution metadata (``wall_time_s``, ``backend``, ``n_workers``,
        ``n_cells``) recorded by :func:`run_experiment`; ``None`` for
        hand-built results.  Not serialized: the JSON payload of an
        experiment depends only on its parameters and seed, never on where
        or how fast it ran.
    """

    experiment: str
    description: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    parameters: dict[str, Any] = field(default_factory=dict)
    progressive: dict[str, ProgressiveResult] = field(default_factory=dict)
    runtime: dict[str, Any] | None = None

    # ------------------------------------------------------------------ #
    # Serialization (repro.api.results contract)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON representation under the shared result envelope.

        Execution metadata is stripped (both this result's ``runtime`` and
        the ``runtime`` of any nested progressive replay): serialized
        experiments are byte-identical across execution backends and
        worker counts.
        """
        progressive = {}
        for key, result in self.progressive.items():
            payload = result.to_dict()
            payload["runtime"] = None
            progressive[key] = payload
        return envelope(
            "experiment-result",
            {
                "experiment": self.experiment,
                "description": self.description,
                "rows": self.rows,
                "parameters": self.parameters,
                "progressive": progressive,
            },
        )

    @classmethod
    def from_dict(cls, payload: "dict[str, Any]") -> "ExperimentResult":
        """Rebuild an :class:`ExperimentResult` serialized with :meth:`to_dict`."""
        body = unwrap(payload, "experiment-result")
        body["progressive"] = {
            key: ProgressiveResult.from_dict(item)
            for key, item in body["progressive"].items()
        }
        return cls(**body)


@dataclass
class ExperimentPlan:
    """The executable shape of one experiment run.

    Attributes
    ----------
    cells:
        Picklable cell descriptors, one per independent unit of work (a
        ``(scenario, repetition)`` pair, a single replay, ...).  Cell
        *index* is the determinism key: cell ``i`` always receives seed
        child ``i``, whatever backend executes it.
    cell_fn:
        Module-level function ``fn(cell, seed_sequence, shared) -> Any``
        evaluating one cell.  Must be picklable by reference so the process
        backend can ship it.
    reduce_fn:
        ``fn(results) -> ExperimentResult`` consuming the cell results in
        cell order.  Runs in the calling process (closures are fine).
    shared:
        Optional read-only mapping broadcast to every cell invocation
        (pickled with each chunk on the process backend).
    """

    cells: list[Any]
    cell_fn: Callable[[Any, np.random.SeedSequence, Mapping[str, Any]], Any]
    reduce_fn: Callable[[list[Any]], ExperimentResult]
    shared: Mapping[str, Any] | None = None


@dataclass(frozen=True)
class ExperimentDefinition:
    """A registered experiment: plan factory plus declared interface."""

    name: str
    summary: str
    plan: Callable[..., ExperimentPlan]
    params: tuple[ParamSpec, ...] = ()
    #: ``None``: the experiment evaluates a fixed estimator set and rejects
    #: overrides.  Otherwise a zero-argument factory for the default set.
    default_estimators: Callable[[], Mapping[str, Any]] | None = None

    def param(self, name: str) -> ParamSpec | None:
        """The declared parameter called ``name``, if any."""
        for spec in self.params:
            if spec.name == name:
                return spec
        return None

    def coerce_params(self, overrides: Mapping[str, Any]) -> dict[str, Any]:
        """Declared parameters with defaults filled and overrides coerced.

        Unknown parameter names raise :class:`ValidationError` listing the
        valid ones (the same contract as estimator specs); ``None`` values
        mean "use the default".
        """
        resolved = {spec.name: spec.default for spec in self.params}
        for key, value in overrides.items():
            if value is None:
                continue
            spec = self.param(key)
            if spec is None:
                valid = ", ".join(s.name for s in self.params) or "(none)"
                raise ValidationError(
                    f"unknown parameter {key!r} for experiment "
                    f"{self.name!r}; valid parameters: {valid}"
                )
            resolved[key] = spec.coerce(value)
        return resolved

    def resolve_estimators(
        self,
        estimators: "Mapping[str, Any] | Sequence[Any] | None",
    ) -> "dict[str, SumEstimator] | None":
        """Build the estimator set evaluated by this experiment.

        Accepts a mapping ``{label: estimator-or-spec}``, a sequence of
        estimator specs (labelled by their canonical spec string), or
        ``None`` for the experiment's default set.  Experiments with a
        fixed estimator set (``default_estimators is None``) reject
        overrides.
        """
        if self.default_estimators is None:
            if estimators is not None:
                raise ValidationError(
                    f"experiment {self.name!r} evaluates a fixed estimator "
                    "set and does not accept an estimators override"
                )
            return None
        if estimators is None:
            estimators = self.default_estimators()
        if isinstance(estimators, Mapping):
            named = dict(estimators)
        else:
            named = {_spec_label(item): item for item in estimators}
        if not named:
            raise ValidationError("at least one estimator is required")
        return {name: build_estimator(spec) for name, spec in named.items()}


def _spec_label(spec: Any) -> str:
    if isinstance(spec, SumEstimator):
        return spec.name
    return EstimatorSpec.of(spec).to_string()


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #

_REGISTRY: dict[str, ExperimentDefinition] = {}


def register_experiment(
    name: str,
    *,
    summary: str,
    params: "tuple[ParamSpec, ...] | list[ParamSpec]" = (),
    default_estimators: "Callable[[], Mapping[str, Any]] | None" = None,
) -> Callable[[Callable[..., ExperimentPlan]], Callable[..., ExperimentPlan]]:
    """Decorator registering a plan function as a named experiment.

    Usage::

        @register_experiment(
            "figure6",
            summary="estimator quality across the 3x3 synthetic grid",
            params=(ParamSpec("repetitions", int, default=5), ...),
            default_estimators=default_estimators,
        )
        def _plan_figure6(params, estimators):
            return ExperimentPlan(cells=..., cell_fn=..., reduce_fn=...)

    The plan function receives the coerced parameter dict and the built
    estimator mapping (``None`` for fixed-estimator experiments) and
    returns an :class:`ExperimentPlan`.  Duplicate names raise
    :class:`ValidationError`.
    """
    key = name.strip().lower()

    def decorate(plan: Callable[..., ExperimentPlan]) -> Callable[..., ExperimentPlan]:
        if key in _REGISTRY:
            raise ValidationError(f"experiment {key!r} is already registered")
        seen: set[str] = set()
        for spec in params:
            if spec.name in seen:
                raise ValidationError(
                    f"experiment {key!r} declares parameter {spec.name!r} twice"
                )
            seen.add(spec.name)
        definition = ExperimentDefinition(
            name=key,
            summary=summary,
            plan=plan,
            params=tuple(params),
            default_estimators=default_estimators,
        )
        _REGISTRY[key] = definition
        return plan

    return decorate


def _ensure_registered() -> None:
    # The built-in experiments register themselves on import; pull the
    # module in lazily so harness <-> experiments stays acyclic.
    from repro.evaluation import experiments  # noqa: F401


def get_experiment(name: str) -> ExperimentDefinition:
    """Look up an experiment by name (case-insensitive)."""
    _ensure_registered()
    key = str(name).strip().lower()
    if key not in _REGISTRY:
        raise ValidationError(
            f"unknown experiment {name!r}; available: {', '.join(list_experiments())}"
        )
    return _REGISTRY[key]


def list_experiments() -> list[str]:
    """Sorted experiment names."""
    _ensure_registered()
    return sorted(_REGISTRY)


def describe_experiment(name: str | None = None) -> dict[str, Any]:
    """Introspect the registry: summaries, parameters, defaults.

    Mirrors :func:`repro.api.specs.describe_estimators`: a JSON-safe
    mapping ``{name: description}`` (restricted to one experiment when
    ``name`` is given) so tooling can render help text without running
    anything.
    """
    _ensure_registered()
    names = [get_experiment(name).name] if name is not None else list_experiments()
    out: dict[str, Any] = {}
    for key in names:
        definition = _REGISTRY[key]
        out[key] = {
            "summary": definition.summary,
            "accepts_estimators": definition.default_estimators is not None,
            "params": [
                {
                    "name": spec.name,
                    "type": spec.kind.__name__,
                    "default": spec.default,
                    "choices": list(spec.choices) if spec.choices is not None else None,
                    "doc": spec.doc,
                }
                for spec in definition.params
            ],
        }
    return out


# ---------------------------------------------------------------------- #
# Execution
# ---------------------------------------------------------------------- #

#: Shared-context key the cell function rides under (module-level functions
#: pickle by reference, so this costs nothing on the process backend).
_CELL_FN_KEY = "__experiment_cell_fn__"


def _execute_cell(
    task: "tuple[Any, np.random.SeedSequence]", shared: Mapping[str, Any]
) -> Any:
    """Backend task wrapper: unpack ``(cell, seed)`` and dispatch."""
    cell, seed = task
    return shared[_CELL_FN_KEY](cell, seed, shared)


def run_experiment(
    name: str,
    *,
    backend: "str | ExecutionBackend | None" = None,
    workers: "int | None" = None,
    estimators: "Mapping[str, Any] | Sequence[Any] | None" = None,
    **params: Any,
) -> ExperimentResult:
    """Run a registered experiment, fanning its cells over a backend.

    Parameters
    ----------
    name:
        Experiment name (see :func:`list_experiments`).
    backend, workers:
        Execution backend for the cell fan-out (a
        :data:`repro.parallel.BACKENDS` name, a backend instance, or
        ``None`` for the process-wide default).  The result ``rows`` are
        bit-identical whatever is chosen here.
    estimators:
        Optional estimator override (mapping ``{label: estimator-or-spec}``
        or sequence of specs) for experiments that accept one.
    **params:
        Declared experiment parameters (see :func:`describe_experiment`);
        unknown names raise :class:`ValidationError` listing the valid
        ones.  ``None`` values fall back to the declared default.

    Per-cell seeds are ``SeedSequence`` children of the experiment's
    ``seed`` parameter keyed by cell index, so repetition streams never
    depend on the execution schedule.
    """
    definition = get_experiment(name)
    coerced = definition.coerce_params(params)
    built = definition.resolve_estimators(estimators)
    plan = definition.plan(coerced, built)
    seeds = spawn_task_seeds(coerced.get("seed", 0), len(plan.cells))
    exec_backend = resolve_backend(backend, workers)
    shared = dict(plan.shared or {})
    shared[_CELL_FN_KEY] = plan.cell_fn
    start = time.perf_counter()
    results = exec_backend.map(_execute_cell, list(zip(plan.cells, seeds)), shared=shared)
    result = plan.reduce_fn(results)
    result.runtime = {
        "wall_time_s": time.perf_counter() - start,
        "backend": exec_backend.name,
        "n_workers": exec_backend.n_workers,
        "n_cells": len(plan.cells),
    }
    return result
