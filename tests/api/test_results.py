"""Tests for the unified serializable result model (repro.api.results)."""

from __future__ import annotations

import json
import math

import pytest

from repro.api import OpenWorldSession, RESULT_SCHEMA, from_dict, result_kinds, to_dict
from repro.core.estimator import Estimate
from repro.datasets.registry import load_dataset
from repro.evaluation.runner import EstimateSeries, ProgressiveResult, ProgressiveRunner
from repro.query.executor import QueryResult
from repro.utils.exceptions import ValidationError


@pytest.fixture(scope="module")
def gdp_session():
    dataset = load_dataset("us-gdp")
    return OpenWorldSession.from_sample(dataset.sample(), dataset.attribute)


class TestEstimateRoundTrip:
    def test_round_trip_real_estimate(self, gdp_session):
        estimate = gdp_session.estimate(spec="bucket")
        payload = estimate.to_dict()
        assert payload["schema"] == RESULT_SCHEMA
        assert payload["kind"] == "estimate"
        text = json.dumps(payload, allow_nan=False)  # strict JSON
        rebuilt = Estimate.from_dict(json.loads(text))
        for field in (
            "observed", "delta", "corrected", "count_estimate",
            "missing_count", "value_estimate", "coverage", "cv_squared",
            "estimator",
        ):
            assert getattr(rebuilt, field) == getattr(estimate, field)
        # Serialization is a fixed point (tuples in details normalize to
        # lists on the first round-trip, then stay stable).
        assert rebuilt.to_dict() == json.loads(text)

    def test_round_trip_non_finite_fields(self):
        estimate = Estimate(
            observed=10.0,
            delta=float("inf"),
            corrected=float("inf"),
            count_estimate=float("inf"),
            missing_count=float("inf"),
            value_estimate=float("nan"),
            coverage=0.1,
            cv_squared=float("-inf"),
            estimator="divergent",
            details={"grid": [1.0, float("nan")]},
        )
        text = json.dumps(estimate.to_dict(), allow_nan=False)
        rebuilt = Estimate.from_dict(json.loads(text))
        assert rebuilt.delta == float("inf")
        assert math.isnan(rebuilt.value_estimate)
        assert rebuilt.cv_squared == float("-inf")
        assert rebuilt.details["grid"][0] == 1.0
        assert math.isnan(rebuilt.details["grid"][1])

    def test_reliable_flag_serialized_but_derived_on_rebuild(self, gdp_session):
        estimate = gdp_session.estimate(spec="naive")
        payload = estimate.to_dict()
        assert payload["reliable"] == estimate.reliable
        assert Estimate.from_dict(payload).reliable == estimate.reliable


class TestQueryResultRoundTrip:
    def test_round_trip(self, gdp_session):
        answer = gdp_session.query("SELECT SUM(gdp) FROM data WHERE gdp > 100")
        text = json.dumps(answer.to_dict(), allow_nan=False)
        rebuilt = QueryResult.from_dict(json.loads(text))
        assert rebuilt == answer

    def test_min_max_trust_flag_survives(self, gdp_session):
        answer = gdp_session.query("SELECT MIN(gdp) FROM data")
        rebuilt = QueryResult.from_dict(answer.to_dict())
        assert rebuilt.trusted == answer.trusted


class TestSeriesRoundTrip:
    @pytest.fixture(scope="class")
    def progressive_result(self):
        dataset = load_dataset("us-gdp")
        return ProgressiveRunner(["naive", "frequency"]).run(dataset, step=40)

    def test_estimate_series_round_trip(self, progressive_result):
        series = progressive_result.series["naive"]
        text = json.dumps(series.to_dict(), allow_nan=False)
        rebuilt = EstimateSeries.from_dict(json.loads(text))
        assert rebuilt == series

    def test_progressive_result_round_trip(self, progressive_result):
        text = json.dumps(progressive_result.to_dict(), allow_nan=False)
        rebuilt = ProgressiveResult.from_dict(json.loads(text))
        assert rebuilt == progressive_result


class TestDispatch:
    def test_generic_to_dict_from_dict(self, gdp_session):
        estimate = gdp_session.estimate(spec="naive")
        rebuilt = from_dict(to_dict(estimate))
        assert rebuilt == estimate

    def test_result_kinds_cover_all_models(self):
        assert result_kinds() == [
            "estimate",
            "estimate-series",
            "experiment-result",
            "progressive-result",
            "query-result",
            "session-snapshot",
        ]

    def test_session_snapshot_dispatch(self, gdp_session):
        snapshot = gdp_session.snapshot()
        rebuilt = from_dict(to_dict(snapshot))
        assert rebuilt == snapshot

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown result kind"):
            from_dict({"schema": RESULT_SCHEMA, "kind": "mystery"})

    def test_wrong_schema_rejected(self, gdp_session):
        payload = gdp_session.estimate(spec="naive").to_dict()
        payload["schema"] = "repro.result/v999"
        with pytest.raises(ValidationError, match="unsupported schema"):
            Estimate.from_dict(payload)

    def test_wrong_kind_rejected(self, gdp_session):
        payload = gdp_session.estimate(spec="naive").to_dict()
        with pytest.raises(ValidationError, match="expected kind"):
            QueryResult.from_dict(payload)

    def test_to_dict_rejects_foreign_objects(self):
        with pytest.raises(ValidationError, match="to_dict"):
            to_dict(object())

    def test_non_mapping_rejected(self):
        with pytest.raises(ValidationError):
            from_dict("not a dict")
        with pytest.raises(ValidationError):
            Estimate.from_dict([1, 2, 3])


class TestRuntimeMetadata:
    """Satellite: optional runtime metadata under repro.result/v1."""

    def test_monte_carlo_estimate_serializes_runtime(self, gdp_session):
        # No exact backend pin: the suite may run with a forced default
        # (pytest --backend process), and the metadata must reflect it.
        estimate = gdp_session.estimate(spec="monte-carlo?seed=1&n_runs=2")
        payload = estimate.to_dict()
        assert payload["runtime"]["backend"] in ("serial", "process")
        assert payload["runtime"]["n_workers"] >= 1
        assert payload["runtime"]["wall_time_s"] > 0
        rebuilt = Estimate.from_dict(json.loads(json.dumps(payload, allow_nan=False)))
        assert rebuilt.runtime == estimate.runtime

    def test_closed_form_estimate_runtime_is_null(self, gdp_session):
        payload = gdp_session.estimate(spec="naive").to_dict()
        assert payload["runtime"] is None

    def test_old_payload_without_runtime_round_trips(self, gdp_session):
        payload = gdp_session.estimate(spec="naive").to_dict()
        del payload["runtime"]  # simulate a payload written before the field
        rebuilt = Estimate.from_dict(payload)
        assert rebuilt.runtime is None
        assert rebuilt.corrected == payload["corrected"]
