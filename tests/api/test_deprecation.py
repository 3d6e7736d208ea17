"""Contracts of :func:`repro.api.build_estimator` and ``OpenWorldExecutor``.

The class names keep the deprecated entry points these contracts were
first pinned on; both entry points are removed.
"""

from __future__ import annotations

import pytest

from repro.api import build_estimator
from repro.core.bucket import BucketEstimator
from repro.core.montecarlo import DEFAULT_SEED, MonteCarloConfig
from repro.core.naive import NaiveEstimator
from repro.datasets.registry import load_dataset
from repro.query.database import Database
from repro.query.executor import OpenWorldExecutor
from repro.utils.exceptions import ValidationError


@pytest.fixture
def gdp_database():
    dataset = load_dataset("us-gdp")
    database = Database()
    database.add_sample("data", dataset.sample())
    return database


class TestMakeEstimatorShim:
    def test_still_builds_every_legacy_name(self):
        assert isinstance(build_estimator("naive"), NaiveEstimator)
        assert isinstance(build_estimator("monte-carlo-bucket"), BucketEstimator)
        equiwidth = build_estimator("bucket-equiwidth", n_buckets=7)
        assert equiwidth.strategy.n_buckets == 7

    def test_unknown_kwargs_now_rejected(self):
        """Satellite bug: **kw used to swallow unknown kwargs silently."""
        with pytest.raises(ValidationError, match="accepts no parameters"):
            build_estimator("naive", n_buckets=4)
        with pytest.raises(ValidationError, match="valid parameters"):
            build_estimator("monte-carlo", buckets=3)

    def test_seed_engine_defaults_from_single_source(self):
        """Satellite bug: per-lambda defaults used to drift from the config."""
        estimator = build_estimator("monte-carlo")
        config = MonteCarloConfig()
        assert estimator.config.engine == config.engine
        assert estimator._seed == DEFAULT_SEED


class TestOpenWorldExecutorShim:
    def test_both_keywords_rejected(self, gdp_database):
        # The estimator keyword no longer exists, so any use of it fails.
        with pytest.raises(TypeError):
            OpenWorldExecutor(
                gdp_database,
                sum_estimator=NaiveEstimator(),
                estimator=NaiveEstimator(),
            )

    def test_unknown_keyword_rejected(self, gdp_database):
        with pytest.raises(TypeError):
            OpenWorldExecutor(gdp_database, estimater=NaiveEstimator())

    def test_spec_string_accepted(self, gdp_database):
        executor = OpenWorldExecutor(gdp_database, sum_estimator="bucket/frequency")
        assert isinstance(executor.sum_estimator, BucketEstimator)
        answer = executor.execute("SELECT SUM(gdp) FROM data")
        assert answer.corrected >= answer.observed
