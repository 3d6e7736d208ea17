"""Estimator inputs of many sub-samples at once, for the bucket search.

The dynamic bucket search (Algorithm 1) scores every two-way split of a
value range.  Each side of a split is a *piece*: a sub-sample described
by its f-statistics (``n``, ``c``, ``f₁`` and ``Σ j(j−1)·f_j``) and by
its value sums (``SUM(value)`` and the singleton ``SUM``).
:class:`PieceStatistics` holds those inputs for many pieces as parallel
arrays, so the closed-form estimators can score all splits of a range in
a few vectorized operations.

The integer fields are exact, and every floating-point step on them is
the same IEEE operation, in the same order, as the scalar path
(:class:`~repro.core.fstatistics.FrequencyStatistics`, Chao92 and the
estimators' ``_estimate_from``).  Only the value sums differ: they come
from prefix sums, not from the batch path's own summation order.  Each
sum therefore carries a rigorous bound on its absolute error, and
:func:`abs_delta_bound` carries that bound through to ``|Δ̂|``.  The
scores are a filter; the bucket search re-checks every split the bound
cannot rule out with the exact batch arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["PieceStatistics", "abs_delta_bound", "UNIT_ROUNDOFF"]

#: Unit roundoff of IEEE double precision (half an ulp of 1.0).
UNIT_ROUNDOFF = 2.0**-53

# Slack on computed error bounds: the bound is itself evaluated in
# floating point, so it is widened by far more than its own rounding.
_BOUND_SLACK = 1.0 + 1e-9


class PieceStatistics(NamedTuple):
    """Exact f-statistics and approximate value sums of many pieces.

    Every field is a 1-D array with one entry per piece.  ``n``, ``c``,
    ``f1`` and ``moment`` (``Σ j(j−1)·f_j``) are exact ``int64``.
    ``value_sum`` and ``singleton_sum`` approximate the batch path's
    sums; the true batch sums differ from them by at most
    ``value_err`` and ``singleton_err``.
    """

    n: np.ndarray
    c: np.ndarray
    f1: np.ndarray
    moment: np.ndarray
    value_sum: np.ndarray
    value_err: np.ndarray
    singleton_sum: np.ndarray
    singleton_err: np.ndarray

    @classmethod
    def from_prefix_sums(
        cls,
        counts: np.ndarray,
        c: np.ndarray,
        sums: np.ndarray,
        abs_prefixes: np.ndarray,
        size: int,
    ) -> "PieceStatistics":
        """Pieces whose sums are differences of sequential prefix sums.

        ``counts`` stacks ``n``, ``f1`` and ``moment``; ``sums`` stacks the
        value and singleton sums; ``abs_prefixes`` is, per piece, the sum
        of the ``|value|`` prefix sums the piece's sums were formed from
        (both prefixes of a difference).  A prefix sum of ``k`` values is
        off by at most ``γ_k·Σ|x|`` and the batch path's own sum of a
        piece by at most ``γ_size·Σ_piece|x|`` (``γ_k = k·u/(1−k·u)``), so
        ``4·γ_size·abs_prefixes + 2u·|sum|`` bounds the distance between
        a prefix-sum difference and the batch sum.
        """
        gamma = 1.01 * (size + 1) * UNIT_ROUNDOFF
        errors = 4.0 * gamma * abs_prefixes + 2.0 * UNIT_ROUNDOFF * np.abs(sums)
        return cls(
            n=counts[0],
            c=c,
            f1=counts[1],
            moment=counts[2],
            value_sum=sums[0],
            value_err=errors[0],
            singleton_sum=sums[1],
            singleton_err=errors[1],
        )

    def coverage_cv_squared(self) -> "tuple[np.ndarray, np.ndarray]":
        """``Ĉ`` and ``γ̂²`` per piece, operation for operation as
        :meth:`FrequencyStatistics.sample_coverage` and
        :meth:`FrequencyStatistics.cv_squared`."""
        n, c = self.n, self.c
        coverage = 1.0 - self.f1 / n
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma_sq = (c / coverage) * self.moment / (n * (n - 1)) - 1.0
        gamma_sq = np.where((n < 2) | (coverage <= 0), 0.0, np.maximum(gamma_sq, 0.0))
        return coverage, gamma_sq


def abs_delta_bound(
    delta: np.ndarray,
    gain: np.ndarray,
    total: np.ndarray,
    total_err: np.ndarray,
    diverges: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Approximate ``|Δ̂|`` per piece and a bound on its absolute error.

    ``delta`` was computed from the approximate sum ``total`` by the
    estimator's own formula, which applies two rounded operations to the
    sum and otherwise reads exact inputs; ``gain`` is the factor
    ``|∂Δ̂/∂sum|`` those operations multiply the sum by.  The exact
    ``Δ̂`` then differs by at most ``gain·total_err`` plus the rounding
    of those two operations on either side.

    Where ``diverges`` holds, the estimator returns ``±inf`` for a
    non-zero sum and ``0`` for a zero sum.  Those pieces come back as
    ``inf`` when the sum is surely non-zero, as ``0`` when the sum is
    exact, and as ``nan`` (undecided: re-check exactly) otherwise; their
    error is 0.
    """
    magnitude = np.abs(delta)
    with np.errstate(invalid="ignore"):  # diverging pieces are reset below
        err = (gain * total_err + 8.0 * UNIT_ROUNDOFF * magnitude) * _BOUND_SLACK
    # A zero bound means every value in the piece is 0, so the sum is
    # exact and the same operations give the same Δ̂.
    err[total_err == 0] = 0.0
    undecided = diverges & (np.abs(total) <= total_err) & (total_err > 0)
    magnitude[diverges] = np.where(total[diverges] == 0, 0.0, np.inf)
    magnitude[undecided] = np.nan
    err[diverges] = 0.0
    return magnitude, err
