"""Tests for the top-level public API surface (repro.__init__)."""

from __future__ import annotations

import pytest

import repro


class TestPublicApi:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} listed in __all__ but missing"

    def test_docstring_quickstart_snippet(self):
        # The snippet from the package docstring must keep working.
        sample = repro.ObservedSample.from_entity_values(
            [("acme", 120.0, 3), ("globex", 45.0, 1), ("initech", 80.0, 2)],
            attribute="employees",
        )
        estimate = repro.BucketEstimator().estimate(sample, "employees")
        assert estimate.observed <= estimate.corrected

    def test_build_estimator_reachable_from_top_level(self):
        estimator = repro.build_estimator("frequency")
        assert isinstance(estimator, repro.FrequencyEstimator)
        assert "frequency" in repro.available_estimators()

    def test_exceptions_catchable_via_base(self):
        with pytest.raises(repro.ReproError):
            repro.parse_query("not a query")

    def test_readme_source_pairs_snippet(self):
        sources = [
            repro.DataSource.from_pairs(
                "web-list", [("acme", 1200), ("globex", 400), ("hooli", 90_000)], "employees"
            ),
            repro.DataSource.from_pairs(
                "news", [("hooli", 90_000), ("acme", 1150)], "employees"
            ),
            repro.DataSource.from_pairs(
                "crowd", [("hooli", 90_000), ("pied-piper", 35)], "employees"
            ),
        ]
        result = repro.integrate(sources, attribute="employees")
        estimate = repro.BucketEstimator().estimate(result.sample, "employees")
        assert estimate.corrected >= estimate.observed

        db = repro.Database()
        db.add_integration_result("us_tech_companies", result)
        answer = repro.OpenWorldExecutor(db).execute(
            "SELECT SUM(employees) FROM us_tech_companies WHERE employees > 100"
        )
        assert answer.corrected >= answer.observed
