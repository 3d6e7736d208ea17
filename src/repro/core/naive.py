"""The naive estimator (Section 3.1).

``Δ̂_naive = φ_K / c · (N̂_Chao92 − c)``: the Chao92 estimate of how many
unique entities are missing, each assumed to carry the mean observed value
(mean substitution).  It is the baseline every other estimator improves on;
with a publicity-value correlation it systematically over- or
under-estimates because the observed mean is itself biased.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.estimator import Estimate, SumEstimator
from repro.core.fstatistics import FrequencyStatistics
from repro.core.incremental import IncrementalSampleState
from repro.core.pieces import PieceStatistics, abs_delta_bound
from repro.core.species import chao92_estimate
from repro.data.sample import ObservedSample


class NaiveEstimator(SumEstimator):
    """Chao92 count estimate × mean-substitution value estimate (Eq. 3 / 8)."""

    name = "naive"

    #: Δ̂_naive is a pure function of the f-statistics histogram and the
    #: observed SUM, both of which the incremental state maintains
    #: exactly -- so the delta path is O(|delta|) and bit-identical.
    supports_updates = True

    def estimate(self, sample: ObservedSample, attribute: str) -> Estimate:
        """Estimate the unknown-unknowns impact on ``SUM(attribute)``.

        Degenerate samples in which every observed entity is a singleton
        have zero estimated coverage; the Chao92 count estimate and hence
        ``Δ̂`` are reported as ``inf`` (matching the division by ``n − f₁``
        in Equation 8), and the caller decides how to handle it.
        """
        self._check_attribute(sample, attribute)
        return self._estimate_from(self._statistics(sample), sample.sum(attribute))

    # ------------------------------------------------------------------ #
    # Shared math (the batch path is the parity oracle)
    # ------------------------------------------------------------------ #

    def _estimate_state(self, state: IncrementalSampleState) -> Estimate:
        """Estimate from any state exposing ``statistics``/``observed_sum``."""
        return self._estimate_from(state.statistics(), state.observed_sum())

    def _estimate_from(self, stats: FrequencyStatistics, observed_sum: float) -> Estimate:
        richness = chao92_estimate(stats)
        mean_value = observed_sum / stats.c
        if math.isinf(richness.n_hat):
            delta = float("inf") if observed_sum > 0 else float("-inf") if observed_sum < 0 else 0.0
        else:
            delta = mean_value * (richness.n_hat - stats.c)
        return self._assemble_estimate(
            stats,
            observed_sum,
            delta=delta,
            count_estimate=richness.n_hat,
            value_estimate=mean_value,
            details={"chao92_coverage": richness.coverage, "chao92_cv_squared": richness.cv_squared},
        )

    def _score_pieces(self, pieces: PieceStatistics) -> "tuple[np.ndarray, np.ndarray]":
        """Vectorized ``|Δ̂|`` of many pieces with an error bound.

        Mirrors :meth:`_estimate_from` (through Chao92) operation for
        operation; see :func:`~repro.core.pieces.abs_delta_bound`.
        """
        n, c, total = pieces.n, pieces.c, pieces.value_sum
        coverage, cv_sq = pieces.coverage_cv_squared()
        with np.errstate(divide="ignore", invalid="ignore"):
            n_hat = c / coverage + n * (1.0 - coverage) / coverage * cv_sq
            missing = n_hat - c
            delta = (total / c) * missing
            gain = missing / c
        return abs_delta_bound(delta, gain, total, pieces.value_err, coverage <= 0)
