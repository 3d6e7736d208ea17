"""Tests for the estimator spec mini-language and plugin registry."""

from __future__ import annotations

import json

import pytest

from repro.api import specs as specs_module
from repro.api.specs import (
    EstimatorSpec,
    ParamSpec,
    available_estimators,
    build_estimator,
    describe_estimators,
    register_estimator,
)
from repro.core.bucket import (
    DEFAULT_STATIC_BUCKETS,
    BucketEstimator,
    DynamicBucketing,
    EquiHeightBucketing,
    EquiWidthBucketing,
)
from repro.core.estimator import SumEstimator
from repro.core.frequency import FrequencyEstimator
from repro.core.montecarlo import DEFAULT_SEED, MonteCarloConfig, MonteCarloEstimator
from repro.core.naive import NaiveEstimator
from repro.utils.exceptions import ValidationError


class TestRoundTrip:
    def test_every_registered_name_round_trips(self):
        for name in available_estimators():
            assert EstimatorSpec.parse(name).to_string() == name

    def test_every_registered_name_builds(self):
        for name in available_estimators():
            assert isinstance(build_estimator(name), SumEstimator)

    @pytest.mark.parametrize(
        "text",
        [
            "bucket(equiwidth:8)/monte-carlo?seed=3&engine=vectorized",
            "bucket(equiheight:3)",
            "bucket/frequency",
            "monte-carlo?seed=7&n_runs=2",
            "frequency?uniform=true",
            "bucket(dynamic)/naive?search=none",
        ],
    )
    def test_composite_specs_round_trip(self, text):
        spec = EstimatorSpec.parse(text)
        assert spec.to_string() == text
        # Re-parsing the canonical form is a fixed point.
        assert EstimatorSpec.parse(spec.to_string()) == spec

    def test_whitespace_and_case_normalised(self):
        spec = EstimatorSpec.parse("  Bucket / Frequency ")
        assert spec.to_string() == "bucket/frequency"


class TestParsing:
    def test_chain_structure(self):
        spec = EstimatorSpec.parse("bucket(equiwidth:8)/monte-carlo?seed=3")
        assert [c.name for c in spec.components] == ["bucket", "monte-carlo"]
        assert spec.components[0].args == ("equiwidth:8",)
        assert spec.param_value("seed") == "3"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "no-such-estimator",
            "bucket(",
            "bucket)",
            "bucket()",
            "bucket(equiwidth,)",
            "naive/frequency",  # naive takes no base
            "bucket?bogus=1",
            "monte-carlo?seed=abc",
            "monte-carlo?engine=warp",
            "monte-carlo?seed=1&seed=2",
            "monte-carlo?seed",
            "monte-carlo?seed=",
            "monte-carlo?",
            "a?b=1?c=2",
            "bucket//frequency",
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValidationError):
            EstimatorSpec.parse(bad)

    def test_unknown_component_lists_available(self):
        with pytest.raises(ValidationError, match="available:"):
            EstimatorSpec.parse("magic")

    def test_unknown_parameter_lists_valid_ones(self):
        with pytest.raises(ValidationError, match="n_buckets, search"):
            EstimatorSpec.parse("bucket?whatever=1")

    def test_unknown_parameter_on_paramless_spec(self):
        with pytest.raises(ValidationError, match="accepts no parameters"):
            EstimatorSpec.parse("naive?seed=1")

    @pytest.mark.parametrize(
        "bad",
        [
            "bucket(equiwidth:x)",
            "bucket(warp)",
            "bucket(dynamic:3)",
            "bucket(equiwidth:4)?n_buckets=8",
            "bucket?n_buckets=8",  # dynamic strategy takes no bucket count
            "bucket(equiwidth,equiheight)",
            "naive(arg)",
        ],
    )
    def test_bad_structural_args_rejected_at_build(self, bad):
        spec_or_error = None
        try:
            spec_or_error = EstimatorSpec.parse(bad)
        except ValidationError:
            return  # rejected at parse time is fine too
        with pytest.raises(ValidationError):
            spec_or_error.build()


class TestBuilding:
    def test_composite_bucket_monte_carlo(self):
        estimator = build_estimator("bucket(equiwidth:8)/monte-carlo?seed=3")
        assert isinstance(estimator, BucketEstimator)
        assert isinstance(estimator.strategy, EquiWidthBucketing)
        assert estimator.strategy.n_buckets == 8
        assert isinstance(estimator.base, MonteCarloEstimator)
        # 'auto' search uses the cheap naive estimator under a MC base.
        assert isinstance(estimator.search_base, NaiveEstimator)

    def test_bucket_frequency_chain_matches_legacy_alias(self):
        chained = build_estimator("bucket/frequency")
        legacy = build_estimator("bucket-frequency")
        assert isinstance(chained, BucketEstimator)
        assert isinstance(chained.base, FrequencyEstimator)
        assert type(chained.strategy) is type(legacy.strategy)
        assert type(chained.base) is type(legacy.base)

    def test_equiheight_via_param(self):
        estimator = build_estimator("bucket(equiheight)?n_buckets=5")
        assert isinstance(estimator.strategy, EquiHeightBucketing)
        assert estimator.strategy.n_buckets == 5

    def test_equiwidth_default_bucket_count(self):
        estimator = build_estimator("bucket(equiwidth)")
        assert estimator.strategy.n_buckets == DEFAULT_STATIC_BUCKETS

    def test_default_bucket_is_dynamic(self):
        estimator = build_estimator("bucket")
        assert isinstance(estimator.strategy, DynamicBucketing)
        assert isinstance(estimator.base, NaiveEstimator)
        assert estimator.search_base is None

    def test_search_override(self):
        estimator = build_estimator("bucket/frequency?search=naive")
        assert isinstance(estimator.search_base, NaiveEstimator)

    def test_build_estimator_passthrough(self):
        instance = NaiveEstimator()
        assert build_estimator(instance) is instance

    def test_build_estimator_rejects_params_on_instance(self):
        with pytest.raises(ValidationError):
            build_estimator(NaiveEstimator(), seed=1)

    def test_kwargs_equivalent_to_query_params(self):
        a = build_estimator("monte-carlo", seed=5, engine="loop")
        b = build_estimator("monte-carlo?seed=5&engine=loop")
        assert a._seed == b._seed == 5
        assert a.config.engine == b.config.engine == "loop"


class TestDefaultsSingleSource:
    """Satellite: seed/engine defaults must come from MonteCarloConfig."""

    def test_monte_carlo_param_defaults_match_config(self):
        config = MonteCarloConfig()
        params = {
            p["name"]: p for p in describe_estimators("monte-carlo")["monte-carlo"]["params"]
        }
        assert params["engine"]["default"] == config.engine
        assert params["n_runs"]["default"] == config.n_runs
        assert params["n_count_steps"]["default"] == config.n_count_steps
        assert params["seed"]["default"] == DEFAULT_SEED

    def test_built_defaults_match_config(self):
        estimator = build_estimator("monte-carlo")
        config = MonteCarloConfig()
        assert estimator.config.engine == config.engine
        assert estimator.config.n_runs == config.n_runs
        assert estimator.config.n_count_steps == config.n_count_steps
        assert estimator._seed == DEFAULT_SEED


class TestWithParams:
    def test_with_params_replaces(self):
        spec = EstimatorSpec.parse("monte-carlo?seed=1").with_params(seed=9)
        assert spec.param_value("seed") == "9"
        assert spec.to_string() == "monte-carlo?seed=9"

    def test_with_params_validates(self):
        with pytest.raises(ValidationError):
            EstimatorSpec.parse("monte-carlo").with_params(bogus=1)

    def test_with_default_params_fills_only_missing(self):
        spec = EstimatorSpec.parse("monte-carlo?engine=loop")
        assert spec.with_default_params(engine="vectorized").param_value("engine") == "loop"
        assert (
            EstimatorSpec.parse("monte-carlo")
            .with_default_params(engine="loop")
            .param_value("engine")
            == "loop"
        )

    def test_with_default_params_skips_undeclared(self):
        spec = EstimatorSpec.parse("naive")
        assert spec.with_default_params(engine="loop") is spec


class TestDescribe:
    def test_describe_covers_all_and_is_json_safe(self):
        info = describe_estimators()
        assert sorted(info) == available_estimators()
        json.dumps(info)  # must be strict-JSON-serializable

    def test_describe_single(self):
        info = describe_estimators("bucket")
        assert list(info) == ["bucket"]
        assert info["bucket"]["accepts_base"] is True
        assert "equiwidth" in info["bucket"]["args"]

    def test_describe_unknown_rejected(self):
        with pytest.raises(ValidationError):
            describe_estimators("magic")


class TestPluginRegistration:
    def test_register_and_build_plugin(self):
        @register_estimator(
            "test-plugin-estimator",
            summary="test-only plugin",
            params=(ParamSpec("scale", float, default=1.0),),
        )
        def _build(args, base, **params):
            estimator = NaiveEstimator()
            estimator.name = f"test-plugin-{params['scale']}"
            return estimator

        try:
            assert "test-plugin-estimator" in available_estimators()
            built = build_estimator("test-plugin-estimator?scale=2.5")
            assert built.name == "test-plugin-2.5"
        finally:
            specs_module._REGISTRY.pop("test-plugin-estimator", None)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValidationError, match="already registered"):
            register_estimator("naive", summary="dup")(lambda args, base, **kw: None)

    def test_invalid_name_rejected(self):
        with pytest.raises(ValidationError):
            register_estimator("Bad Name!", summary="x")

    def test_duplicate_param_declaration_rejected(self):
        with pytest.raises(ValidationError, match="twice"):
            register_estimator(
                "test-dup-param",
                summary="x",
                params=(ParamSpec("a", int), ParamSpec("a", int)),
            )(lambda args, base, **kw: None)


class TestBackendParams:
    """Satellite: backend/workers are typed ParamSpecs on monte-carlo."""

    def test_round_trip(self):
        text = "monte-carlo?backend=process&workers=4"
        spec = EstimatorSpec.parse(text)
        assert spec.to_string() == text

    def test_builds_into_config(self):
        estimator = build_estimator("monte-carlo?backend=process&workers=4")
        assert estimator.config.backend == "process"
        assert estimator.config.n_workers == 4

    def test_defaults_follow_config(self):
        estimator = build_estimator("monte-carlo")
        config = MonteCarloConfig()
        assert estimator.config.backend == config.backend is None
        assert estimator.config.n_workers == config.n_workers is None

    def test_unknown_backend_lists_choices(self):
        for name in ("warp-drive", "thread"):
            with pytest.raises(ValidationError, match="'serial', 'process'"):
                EstimatorSpec.parse(f"monte-carlo?backend={name}")
        with pytest.raises(ValidationError, match="serial"):
            MonteCarloConfig(backend="warp-drive")

    def test_non_integer_workers_rejected(self):
        with pytest.raises(ValidationError):
            EstimatorSpec.parse("monte-carlo?workers=two")
        with pytest.raises(ValidationError):
            MonteCarloConfig(n_workers=0)

    def test_described_in_registry(self):
        params = {
            p["name"]: p
            for p in describe_estimators("monte-carlo")["monte-carlo"]["params"]
        }
        assert params["backend"]["choices"] == ["serial", "process"]
        assert params["workers"]["type"] == "int"

    def test_monte_carlo_bucket_accepts_backend(self):
        estimator = build_estimator("monte-carlo-bucket?backend=process&workers=2")
        assert estimator.base.config.backend == "process"
        assert estimator.base.config.n_workers == 2
