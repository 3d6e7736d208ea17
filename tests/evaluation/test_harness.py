"""Tests for the declarative experiment harness (repro.evaluation.harness).

Three contracts are enforced here:

* **registry** -- every figure/table of the paper is registered with a
  typed parameter spec, introspection mirrors the estimator registry, and
  misuse (unknown experiments/parameters, estimator overrides on
  fixed-set experiments) fails loudly;
* **determinism** -- experiment rows are bit-identical across the serial,
  thread and process backends and across worker counts, because per-cell
  streams are ``SeedSequence`` children keyed by cell index;
* **serialization** -- every registered experiment round-trips through the
  ``repro.result/v1`` envelope with execution metadata stripped.
"""

from __future__ import annotations

import json

import pytest

from repro.api import from_dict
from repro.api.specs import ParamSpec
from repro.evaluation.harness import (
    ExperimentPlan,
    ExperimentResult,
    describe_experiment,
    get_experiment,
    list_experiments,
    register_experiment,
    run_experiment,
)
from repro.parallel import shutdown_backends
from repro.utils.exceptions import ValidationError

#: Cheap estimator specs for fast harness tests.
CHEAP = {"naive": "naive", "bucket": "bucket"}

#: All canonical experiment names (the paper's figure suite).
ALL_EXPERIMENTS = {
    "figure2", "figure4", "figure5a", "figure5b", "figure5c", "figure6",
    "figure7a", "figure7b", "figure7c", "figure7d", "figure7e", "figure7f",
    "figure8", "figure9", "figure10", "figure11", "table2",
}

#: Scaled-down parameters per experiment, used by the round-trip sweep.
#: Every registered experiment must have an entry (asserted below), so a
#: new registration cannot silently skip the serialization contract.
QUICK_PARAMS: dict[str, dict] = {
    "figure2": {"n_points": 4},
    "figure4": {"n_points": 3, "estimators": CHEAP},
    "figure5a": {"n_points": 3, "estimators": CHEAP},
    "figure5b": {"n_points": 3, "estimators": CHEAP},
    "figure5c": {"n_points": 3, "estimators": CHEAP},
    "figure6": {"repetitions": 1, "scenarios": "ideal-w10", "estimators": CHEAP},
    "figure7a": {"n_points": 3, "n_streakers": 2, "estimators": CHEAP},
    "figure7b": {"n_points": 3, "inject_at": 60, "estimators": CHEAP},
    "figure7c": {"n_points": 3},
    "figure7d": {"n_points": 3},
    "figure7e": {"n_points": 3, "repetitions": 1},
    "figure7f": {"n_points": 3, "repetitions": 1},
    "figure8": {"n_points": 3},
    "figure9": {"n_points": 3},
    "figure10": {"n_points": 3, "mc_runs": 1},
    "figure11": {"repetitions": 1, "estimators": CHEAP},
    "table2": {},
}


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    yield
    shutdown_backends()


class TestRegistry:
    def test_all_figures_registered(self):
        assert set(list_experiments()) == ALL_EXPERIMENTS

    def test_names_are_case_insensitive(self):
        assert get_experiment("FIGURE6") is get_experiment("figure6")

    def test_unknown_experiment_lists_available(self):
        with pytest.raises(ValidationError, match="unknown experiment.*figure6"):
            get_experiment("figure99")

    def test_describe_mirrors_estimator_registry_shape(self):
        described = describe_experiment("figure6")["figure6"]
        assert described["accepts_estimators"] is True
        by_name = {param["name"]: param for param in described["params"]}
        assert by_name["repetitions"]["default"] == 5
        assert by_name["repetitions"]["type"] == "int"
        json.dumps(describe_experiment())  # the full registry is JSON-safe

    def test_unknown_parameter_lists_valid_ones(self):
        with pytest.raises(ValidationError, match="valid parameters: .*repetitions"):
            run_experiment("figure6", bogus=3)

    def test_parameter_type_coercion_and_rejection(self):
        definition = get_experiment("figure6")
        assert definition.coerce_params({"repetitions": "4"})["repetitions"] == 4
        with pytest.raises(ValidationError, match="expects an integer"):
            definition.coerce_params({"repetitions": "four"})

    def test_fixed_estimator_experiments_reject_overrides(self):
        with pytest.raises(ValidationError, match="fixed estimator set"):
            run_experiment("figure7c", estimators=CHEAP)

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValidationError, match="'repetitions' must be >= 1"):
            run_experiment("figure6", repetitions=0, estimators=CHEAP)

    def test_zero_n_points_rejected(self):
        # Exposed through the CLI's --n-points; must fail as validation,
        # not as a ZeroDivisionError inside a replay cell.
        with pytest.raises(ValidationError, match="'n_points' must be >= 1"):
            run_experiment("figure4", n_points=0, estimators=CHEAP)

    def test_unknown_scenario_rejected_before_running(self):
        with pytest.raises(ValidationError, match="unknown scenario"):
            run_experiment("figure6", scenarios="no-such-grid", estimators=CHEAP)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValidationError, match="already registered"):

            @register_experiment("figure6", summary="duplicate")
            def _dup(params, estimators):  # pragma: no cover - must not register
                return ExperimentPlan(cells=[], cell_fn=None, reduce_fn=None)

    def test_duplicate_parameter_declaration_rejected(self):
        with pytest.raises(ValidationError, match="twice"):

            @register_experiment(
                "harness-dup-param",
                summary="bad params",
                params=(ParamSpec("seed", int), ParamSpec("seed", int)),
            )
            def _bad(params, estimators):  # pragma: no cover - must not register
                return ExperimentPlan(cells=[], cell_fn=None, reduce_fn=None)


class TestDeterminismMatrix:
    """Rows are bit-identical across backends and worker counts."""

    #: serial vs process at 1 and 2 workers.
    MATRIX = [("serial", 1), ("process", 1), ("process", 2)]

    @pytest.fixture(scope="class")
    def figure6_reference(self):
        return run_experiment(
            "figure6",
            backend="serial",
            repetitions=2,
            scenarios="ideal-w10,rare-events-w10",
            estimators=CHEAP,
        )

    @pytest.fixture(scope="class")
    def figure11_reference(self):
        return run_experiment(
            "figure11", backend="serial", repetitions=2, estimators=CHEAP
        )

    @pytest.mark.parametrize(("backend", "workers"), MATRIX[1:],
                             ids=[f"{b}-{w}" for b, w in MATRIX[1:]])
    def test_figure6_rows_bit_identical(self, figure6_reference, backend, workers):
        result = run_experiment(
            "figure6",
            backend=backend,
            workers=workers,
            repetitions=2,
            scenarios="ideal-w10,rare-events-w10",
            estimators=CHEAP,
        )
        assert result.rows == figure6_reference.rows
        assert json.dumps(result.to_dict()) == json.dumps(figure6_reference.to_dict())

    @pytest.mark.parametrize(("backend", "workers"), MATRIX[1:],
                             ids=[f"{b}-{w}" for b, w in MATRIX[1:]])
    def test_figure11_rows_bit_identical(self, figure11_reference, backend, workers):
        result = run_experiment(
            "figure11", backend=backend, workers=workers, repetitions=2,
            estimators=CHEAP,
        )
        assert result.rows == figure11_reference.rows
        assert json.dumps(result.to_dict()) == json.dumps(figure11_reference.to_dict())

    def test_runtime_metadata_reflects_backend(self, figure6_reference):
        runtime = figure6_reference.runtime
        assert runtime["backend"] == "serial"
        assert runtime["n_workers"] == 1
        assert runtime["n_cells"] == 4  # 2 scenarios x 2 repetitions
        assert runtime["wall_time_s"] >= 0


class TestSerialization:
    def test_quick_params_cover_every_registered_experiment(self):
        assert set(QUICK_PARAMS) == set(list_experiments())

    @pytest.mark.parametrize("name", sorted(QUICK_PARAMS))
    def test_round_trip_through_json(self, name):
        result = run_experiment(name, **QUICK_PARAMS[name])
        payload = result.to_dict()
        text = json.dumps(payload, allow_nan=False)  # strict JSON always works
        rebuilt = from_dict(json.loads(text))
        assert isinstance(rebuilt, ExperimentResult)
        # Compare through the envelope: non-finite floats (a NaN
        # avg_reported_value in fig7e/f) round-trip as markers but are
        # never equal to themselves directly.
        assert rebuilt.to_dict() == payload
        assert json.dumps(rebuilt.to_dict(), allow_nan=False) == text
        assert rebuilt.parameters == result.parameters

    def test_runtime_metadata_is_not_serialized(self):
        result = run_experiment("table2")
        assert result.runtime is not None
        payload = result.to_dict()
        assert "runtime" not in payload
        assert from_dict(payload).runtime is None

    def test_progressive_replays_survive_with_runtime_stripped(self):
        result = run_experiment("figure4", n_points=3, estimators=CHEAP)
        payload = result.to_dict()
        rebuilt = from_dict(json.loads(json.dumps(payload, allow_nan=False)))
        assert set(rebuilt.progressive) == set(result.progressive)
        replay = next(iter(result.progressive.values()))
        restored = next(iter(rebuilt.progressive.values()))
        assert restored.runtime is None  # execution metadata stripped
        assert restored.sample_sizes == replay.sample_sizes
        assert restored.series.keys() == replay.series.keys()
