"""The paper's primary contribution: unknown-unknowns impact estimators.

The estimators take an :class:`~repro.data.sample.ObservedSample` (the
integrated multiset sample ``S`` with fused values ``K``) and produce an
:class:`~repro.core.estimator.Estimate` of the impact ``Δ = φ_D − φ_K`` of
the entities no source ever observed, plus the corrected query answer
``φ̂_D = φ_K + Δ̂``.

Public entry points
-------------------
* :class:`NaiveEstimator` -- Chao92 count × mean value (Section 3.1).
* :class:`FrequencyEstimator` -- Chao92 count × singleton mean (Section 3.2).
* :class:`BucketEstimator` -- per-value-bucket estimation with dynamic or
  static bucketing (Section 3.3, Algorithm 1).
* :class:`MonteCarloEstimator` -- simulation-fitted count estimate robust to
  streakers (Section 3.4, Algorithms 2-3).
* :func:`sum_upper_bound` -- worst-case bound for SUM (Section 4).
* :func:`estimate_sum` / :func:`estimate_count` / :func:`estimate_avg` /
  :func:`estimate_min` / :func:`estimate_max` -- aggregate-level helpers
  (Section 5).
"""

from repro.core.fstatistics import FrequencyStatistics
from repro.core.species import (
    chao84_estimate,
    chao92_estimate,
    good_turing_coverage,
    jackknife_estimate,
    ace_estimate,
    SpeciesRichnessEstimate,
)
from repro.core.estimator import Estimate, SumEstimator
from repro.core.naive import NaiveEstimator
from repro.core.frequency import FrequencyEstimator
from repro.core.bucket import (
    Bucket,
    BucketEstimator,
    BucketingStrategy,
    DynamicBucketing,
    EquiWidthBucketing,
    EquiHeightBucketing,
)
from repro.core.montecarlo import MonteCarloEstimator, MonteCarloConfig
from repro.core.bounds import sum_upper_bound, good_turing_missing_mass_bound, UpperBound
from repro.core.aggregates import (
    AggregateEstimate,
    ExtremeEstimate,
    estimate_sum,
    estimate_count,
    estimate_avg,
    estimate_min,
    estimate_max,
)

__all__ = [
    "FrequencyStatistics",
    "chao84_estimate",
    "chao92_estimate",
    "good_turing_coverage",
    "jackknife_estimate",
    "ace_estimate",
    "SpeciesRichnessEstimate",
    "Estimate",
    "SumEstimator",
    "NaiveEstimator",
    "FrequencyEstimator",
    "Bucket",
    "BucketEstimator",
    "BucketingStrategy",
    "DynamicBucketing",
    "EquiWidthBucketing",
    "EquiHeightBucketing",
    "MonteCarloEstimator",
    "MonteCarloConfig",
    "sum_upper_bound",
    "good_turing_missing_mass_bound",
    "UpperBound",
    "AggregateEstimate",
    "ExtremeEstimate",
    "estimate_sum",
    "estimate_count",
    "estimate_avg",
    "estimate_min",
    "estimate_max",
]
