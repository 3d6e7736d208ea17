"""The frequency estimator (Section 3.2).

Instead of assuming missing entities look like the *average* observed entity
(mean substitution), the frequency estimator assumes they look like the
*singletons* -- the entities observed exactly once, which are the best
available proxy for what has not been observed at all:

``Δ̂_freq = φ_f1 / f₁ · (N̂_Chao92 − c) = φ_f1 · (c + γ̂²·n) / (n − f₁)``.

This makes the estimate robust against popular high-impact entities (the
"Google effect"): well-known large companies stop being singletons quickly
and therefore stop inflating the value estimate for the missing entities.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimator import Estimate, SumEstimator
from repro.core.fstatistics import FrequencyStatistics
from repro.core.incremental import IncrementalSampleState
from repro.core.pieces import PieceStatistics, abs_delta_bound
from repro.data.sample import ObservedSample


class FrequencyEstimator(SumEstimator):
    """Chao92 count estimate × singleton-mean value estimate (Eq. 9 / 10).

    Parameters
    ----------
    assume_uniform:
        When True, drop the skew correction (``γ̂² = 0``), which turns the
        estimator into the pure Good-Turing form of Equation 10.  The paper
        notes this variant still converges, just more slowly, and is handy
        as a quick completeness check.
    """

    name = "frequency"

    #: Equation 9 reads only the f-statistics histogram and the singleton
    #: SUM; both are maintained exactly by the incremental state (the
    #: singleton sum re-sums sequentially after a promotion, preserving
    #: the batch summation order), so updates are O(|delta|) amortized.
    supports_updates = True

    def __init__(self, assume_uniform: bool = False) -> None:
        self.assume_uniform = bool(assume_uniform)
        if self.assume_uniform:
            self.name = "frequency-uniform"

    def estimate(self, sample: ObservedSample, attribute: str) -> Estimate:
        """Estimate the unknown-unknowns impact on ``SUM(attribute)``."""
        self._check_attribute(sample, attribute)
        return self._estimate_from(
            self._statistics(sample),
            sample.sum(attribute),
            sample.singleton_sum(attribute),
        )

    # ------------------------------------------------------------------ #
    # Shared math (the batch path is the parity oracle)
    # ------------------------------------------------------------------ #

    def _estimate_state(self, state: IncrementalSampleState) -> Estimate:
        """Estimate from any state exposing the three estimator inputs."""
        return self._estimate_from(
            state.statistics(), state.observed_sum(), state.singleton_sum()
        )

    def _estimate_from(
        self,
        stats: FrequencyStatistics,
        observed_sum: float,
        singleton_sum: float,
    ) -> Estimate:
        n = stats.n
        c = stats.c
        f1 = stats.singletons
        gamma_sq = 0.0 if self.assume_uniform else stats.cv_squared()

        if f1 == 0:
            # No singletons: the sample looks complete and Equation 9
            # evaluates to zero regardless of the skew correction.
            delta = 0.0
            count_estimate = float(c)
            value_estimate = 0.0
        elif n - f1 == 0:
            # Every observed entity is a singleton: zero coverage, the
            # estimate diverges exactly like the Chao92 count it builds on.
            delta = float("inf") if singleton_sum > 0 else float("-inf") if singleton_sum < 0 else 0.0
            count_estimate = float("inf")
            value_estimate = singleton_sum / f1
        else:
            delta = singleton_sum * (c + gamma_sq * n) / (n - f1)
            count_estimate = c + f1 * (c + gamma_sq * n) / (n - f1)
            value_estimate = singleton_sum / f1

        return self._assemble_estimate(
            stats,
            observed_sum,
            delta=delta,
            count_estimate=count_estimate,
            value_estimate=value_estimate,
            details={
                "singleton_sum": singleton_sum,
                "singleton_count": f1,
                "gamma_squared_used": gamma_sq,
            },
        )

    def _score_pieces(self, pieces: PieceStatistics) -> "tuple[np.ndarray, np.ndarray]":
        """Vectorized ``|Δ̂|`` of many pieces with an error bound.

        Mirrors :meth:`_estimate_from` operation for operation; see
        :func:`~repro.core.pieces.abs_delta_bound`.
        """
        n, c, f1, total = pieces.n, pieces.c, pieces.f1, pieces.singleton_sum
        _, cv_sq = pieces.coverage_cv_squared()
        gamma_sq = np.zeros_like(cv_sq) if self.assume_uniform else cv_sq
        scale = c + gamma_sq * n
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = total * scale / (n - f1)
            gain = scale / (n - f1)
        # f1 == 0 gives exactly 0 whatever the sum (the first branch).
        no_singletons = f1 == 0
        delta[no_singletons] = 0.0
        gain[no_singletons] = 0.0
        return abs_delta_bound(
            delta, gain, total, pieces.singleton_err, ~no_singletons & (n == f1)
        )
