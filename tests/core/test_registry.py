"""Tests for the estimator registry, by registered name (``repro.api``)."""

from __future__ import annotations

import pytest

from repro.api import available_estimators, build_estimator
from repro.core.bucket import BucketEstimator
from repro.core.estimator import SumEstimator
from repro.core.frequency import FrequencyEstimator
from repro.core.montecarlo import MonteCarloEstimator
from repro.core.naive import NaiveEstimator
from repro.utils.exceptions import ValidationError


class TestRegistry:
    def test_available_estimators_non_empty(self):
        names = available_estimators()
        assert "naive" in names
        assert "frequency" in names
        assert "bucket" in names
        assert "monte-carlo" in names

    def test_make_naive(self):
        assert isinstance(build_estimator("naive"), NaiveEstimator)

    def test_make_frequency(self):
        assert isinstance(build_estimator("frequency"), FrequencyEstimator)

    def test_make_bucket(self):
        assert isinstance(build_estimator("bucket"), BucketEstimator)

    def test_make_monte_carlo(self):
        assert isinstance(build_estimator("monte-carlo"), MonteCarloEstimator)

    def test_case_and_whitespace_insensitive(self):
        assert isinstance(build_estimator("  Naive "), NaiveEstimator)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            build_estimator("not-an-estimator")

    def test_equiwidth_accepts_bucket_count(self):
        estimator = build_estimator("bucket-equiwidth", n_buckets=7)
        assert estimator.strategy.n_buckets == 7

    def test_monte_carlo_accepts_seed(self):
        estimator = build_estimator("monte-carlo", seed=5)
        assert isinstance(estimator, MonteCarloEstimator)

    def test_every_registered_name_constructs(self, simple_sample):
        for name in available_estimators():
            estimator = build_estimator(name)
            assert isinstance(estimator, SumEstimator)

    def test_frequency_uniform_variant(self):
        estimator = build_estimator("frequency-uniform")
        assert estimator.assume_uniform is True

    def test_unknown_kwargs_rejected(self):
        # Regression: the old lambda registry silently swallowed unknown
        # kwargs via **kw (naive with n_buckets=4 succeeded).
        with pytest.raises(ValidationError):
            build_estimator("naive", n_buckets=4)
        with pytest.raises(ValidationError, match="valid parameters"):
            build_estimator("bucket-equiwidth", buckets=7)

    def test_accepts_spec_strings(self):
        estimator = build_estimator("bucket/frequency")
        assert isinstance(estimator, BucketEstimator)
        assert isinstance(estimator.base, FrequencyEstimator)
