"""Tests for the bucket estimator's search_base optimisation (MC + bucket)."""

from __future__ import annotations

import pytest

from repro.api import build_estimator
from repro.core.bucket import BucketEstimator, DynamicBucketing
from repro.core.frequency import FrequencyEstimator
from repro.core.montecarlo import MonteCarloConfig, MonteCarloEstimator
from repro.core.naive import NaiveEstimator


class TestSearchBase:
    def test_boundaries_found_with_search_base(self, skewed_run):
        sample = skewed_run.sample()
        plain = BucketEstimator(strategy=DynamicBucketing(), base=NaiveEstimator())
        combined = BucketEstimator(
            strategy=DynamicBucketing(),
            base=FrequencyEstimator(),
            search_base=NaiveEstimator(),
        )
        # The bucket boundaries are determined by the (shared) search base, so
        # the two decompositions must agree on boundaries even though the
        # per-bucket estimates differ.
        plain_bounds = [(b.low, b.high) for b in plain.buckets(sample, "value")]
        combined_bounds = [(b.low, b.high) for b in combined.buckets(sample, "value")]
        assert plain_bounds == combined_bounds

    def test_final_estimates_use_base_not_search_base(self, skewed_run):
        sample = skewed_run.sample()
        combined = BucketEstimator(
            strategy=DynamicBucketing(),
            base=FrequencyEstimator(),
            search_base=NaiveEstimator(),
        )
        for bucket in combined.buckets(sample, "value"):
            if bucket.estimate is not None:
                assert bucket.estimate.estimator.startswith("frequency")

    def test_mc_bucket_combination_is_finite(self, skewed_run):
        sample = skewed_run.sample()
        estimator = BucketEstimator(
            strategy=DynamicBucketing(),
            base=MonteCarloEstimator(
                config=MonteCarloConfig(n_runs=1, n_count_steps=3), seed=0
            ),
            search_base=NaiveEstimator(),
        )
        estimate = estimator.estimate(sample, "value")
        assert estimate.corrected >= estimate.observed

    def test_registry_monte_carlo_bucket_uses_search_base(self):
        estimator = build_estimator("monte-carlo-bucket")
        assert isinstance(estimator, BucketEstimator)
        assert isinstance(estimator.base, MonteCarloEstimator)
        assert isinstance(estimator.search_base, NaiveEstimator)

    def test_no_search_base_leaves_buckets_untouched(self, simple_sample):
        estimator = BucketEstimator()
        assert estimator.search_base is None
        buckets = estimator.buckets(simple_sample, "value")
        for bucket in buckets:
            if bucket.estimate is not None:
                assert bucket.estimate.estimator == "naive"

    def test_toy_example_value_unchanged_by_search_base(self, toy_sample_four_sources):
        # Using naive for both search and final estimation must reproduce the
        # Table 2 value exactly, whether passed as base or as search_base.
        explicit = BucketEstimator(
            strategy=DynamicBucketing(),
            base=NaiveEstimator(),
            search_base=NaiveEstimator(),
        ).estimate(toy_sample_four_sources, "employees")
        assert explicit.corrected == pytest.approx(14500.0)
