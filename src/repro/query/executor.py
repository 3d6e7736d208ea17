"""Closed-world and open-world execution of aggregate queries.

The closed-world executor returns the classical answer over the integrated
database ``K``.  The open-world executor additionally estimates the impact
of unknown unknowns on the answer using any estimator from
:mod:`repro.core`, implementing the paper's overall goal
``φ̂_D = φ_K + Δ̂(S)`` at the query-engine level:

* SUM   -- corrected by the configured SUM estimator,
* COUNT -- corrected by the Chao92 (or Monte-Carlo) count estimate,
* AVG   -- corrected by the bucket-weighted average (Section 5),
* MIN / MAX -- the observed extreme is returned together with a trust flag
  ("the estimator believes no smaller/larger entity is missing").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.core.aggregates import (
    estimate_avg,
    estimate_count,
    estimate_max,
    estimate_min,
)
from repro.core.bucket import BucketEstimator
from repro.core.estimator import SumEstimator
from repro.core.montecarlo import MonteCarloEstimator
from repro.query.ast import AggregateFunction, Query
from repro.query.database import Database
from repro.query.parser import parse_query
from repro.query.table import Table
from repro.utils.exceptions import QueryError
from repro.utils.serialization import envelope, unwrap


@dataclass(frozen=True)
class QueryResult:
    """Result of executing an aggregate query.

    Attributes
    ----------
    query:
        The original query string.
    aggregate:
        The aggregate function name ("SUM", ...).
    observed:
        The closed-world answer over ``K``.
    corrected:
        The open-world estimate (equals ``observed`` for closed-world
        execution, and for MIN/MAX, where the observed extreme is reported).
    trusted:
        For MIN/MAX under open-world execution: whether the observed extreme
        is believed to be the true extreme.  ``None`` for other aggregates.
    matching_rows:
        Number of rows that satisfied the WHERE clause.
    details:
        Estimator diagnostics (empty for closed-world execution).
    """

    query: str
    aggregate: str
    observed: float
    corrected: float
    trusted: bool | None = None
    matching_rows: int = 0
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def delta(self) -> float:
        """Estimated impact of unknown unknowns on the answer."""
        return self.corrected - self.observed

    # ------------------------------------------------------------------ #
    # Serialization (repro.api.results contract)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON representation under the shared result envelope."""
        return envelope(
            "query-result",
            {
                "query": self.query,
                "aggregate": self.aggregate,
                "observed": self.observed,
                "corrected": self.corrected,
                "delta": self.delta,
                "trusted": self.trusted,
                "matching_rows": self.matching_rows,
                "details": self.details,
            },
        )

    @classmethod
    def from_dict(cls, payload: "dict[str, Any]") -> "QueryResult":
        """Rebuild a :class:`QueryResult` serialized with :meth:`to_dict`."""
        body = unwrap(payload, "query-result")
        body.pop("delta", None)  # derived property, not a field
        return cls(**body)


def _closed_world_value(table: Table, query: Query) -> tuple[float, int]:
    """The classical aggregate over the predicate-filtered table."""
    filtered = table.filter(query) if query.predicate is not None else table
    function = query.aggregate.function
    if function is AggregateFunction.COUNT:
        return float(len(filtered)), len(filtered)
    column = query.aggregate.column
    assert column is not None
    values = [
        float(v)
        for v in filtered.column(column)
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    ]
    if not values:
        raise QueryError(
            f"no numeric values of column {column!r} satisfy the predicate"
        )
    if function is AggregateFunction.SUM:
        return float(sum(values)), len(filtered)
    if function is AggregateFunction.AVG:
        return float(sum(values) / len(values)), len(filtered)
    if function is AggregateFunction.MIN:
        return float(min(values)), len(filtered)
    if function is AggregateFunction.MAX:
        return float(max(values)), len(filtered)
    raise QueryError(f"unsupported aggregate {function.value!r}")


class ClosedWorldExecutor:
    """Traditional query execution: the database is assumed complete."""

    def __init__(self, database: Database) -> None:
        self.database = database

    def execute(self, query: "str | Query") -> QueryResult:
        """Execute ``query`` and return the closed-world answer."""
        parsed = parse_query(query) if isinstance(query, str) else query
        table = self.database.table(parsed.table)
        observed, matching = _closed_world_value(table, parsed)
        return QueryResult(
            query=query if isinstance(query, str) else "",
            aggregate=parsed.aggregate.function.value,
            observed=observed,
            corrected=observed,
            matching_rows=matching,
        )


class OpenWorldExecutor:
    """Query execution corrected for unknown unknowns.

    Parameters
    ----------
    database:
        The database holding the integrated tables (with lineage counts).
    sum_estimator:
        Estimator used for SUM queries: a built
        :class:`~repro.core.estimator.SumEstimator`, an estimator spec
        string such as ``"bucket(equiwidth:8)/monte-carlo?seed=3"``, or a
        parsed :class:`~repro.api.specs.EstimatorSpec` (default: dynamic
        bucket).
    count_method:
        "chao92" (default) or "monte-carlo" for COUNT queries.
    """

    def __init__(
        self,
        database: Database,
        sum_estimator: "SumEstimator | str | None" = None,
        count_method: str = "chao92",
        monte_carlo: MonteCarloEstimator | None = None,
    ) -> None:
        if sum_estimator is None:
            resolved: SumEstimator = BucketEstimator()
        elif isinstance(sum_estimator, SumEstimator):
            resolved = sum_estimator
        else:
            from repro.api.specs import build_estimator

            resolved = build_estimator(sum_estimator)
        self.database = database
        self.sum_estimator = resolved
        self.count_method = count_method
        self.monte_carlo = monte_carlo

    def execute(self, query: "str | Query") -> QueryResult:
        """Execute ``query`` and return the unknown-unknowns-corrected answer."""
        parsed = parse_query(query) if isinstance(query, str) else query
        table = self.database.table(parsed.table)
        observed, matching = _closed_world_value(table, parsed)
        filtered = table.filter(parsed) if parsed.predicate is not None else table
        function = parsed.aggregate.function
        query_text = query if isinstance(query, str) else ""

        if function is AggregateFunction.COUNT:
            # COUNT(*) needs duplicate counts but no attribute values; reuse
            # any numeric column, or fall back to unit values.
            sample = self._sample_for_count(filtered)
            result = estimate_count(
                sample, method=self.count_method, monte_carlo=self.monte_carlo
            )
            return QueryResult(
                query=query_text,
                aggregate="COUNT",
                observed=observed,
                corrected=result.corrected,
                matching_rows=matching,
                details=result.details,
            )

        column = parsed.aggregate.column
        assert column is not None
        sample = filtered.to_sample(column)

        if function is AggregateFunction.SUM:
            estimate = self.sum_estimator.estimate(sample, column)
            return QueryResult(
                query=query_text,
                aggregate="SUM",
                observed=observed,
                corrected=estimate.corrected,
                matching_rows=matching,
                details={
                    "estimator": estimate.estimator,
                    "count_estimate": estimate.count_estimate,
                    "coverage": estimate.coverage,
                    "reliable": estimate.reliable,
                },
            )
        if function is AggregateFunction.AVG:
            bucket = (
                self.sum_estimator
                if isinstance(self.sum_estimator, BucketEstimator)
                else BucketEstimator()
            )
            result = estimate_avg(sample, column, bucket_estimator=bucket)
            return QueryResult(
                query=query_text,
                aggregate="AVG",
                observed=observed,
                corrected=result.corrected,
                matching_rows=matching,
                details=result.details,
            )
        if function in (AggregateFunction.MIN, AggregateFunction.MAX):
            bucket = (
                self.sum_estimator
                if isinstance(self.sum_estimator, BucketEstimator)
                else BucketEstimator()
            )
            if function is AggregateFunction.MIN:
                extreme = estimate_min(sample, column, bucket_estimator=bucket)
            else:
                extreme = estimate_max(sample, column, bucket_estimator=bucket)
            return QueryResult(
                query=query_text,
                aggregate=function.value,
                observed=observed,
                corrected=observed,
                trusted=extreme.trusted,
                matching_rows=matching,
                details={
                    "boundary_bucket_missing": extreme.boundary_bucket_missing,
                    **extreme.details,
                },
            )
        raise QueryError(f"unsupported aggregate {function.value!r}")

    @staticmethod
    def _sample_for_count(table: Table):
        """Build a sample for COUNT(*): values do not matter, counts do."""
        numeric_columns = [
            name
            for name in table.columns
            if name != "entity_id"
            and any(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in table.column(name)
            )
        ]
        if numeric_columns:
            try:
                return table.to_sample(numeric_columns[0])
            except QueryError:
                pass
        # No usable numeric column: substitute unit values (COUNT only needs
        # the observation counts).
        counts = {}
        values = {}
        for row, count in zip(table.rows, table.counts):
            entity_id = str(row["entity_id"])
            counts[entity_id] = count
            values[entity_id] = {"__unit__": 1.0}
        from repro.data.sample import ObservedSample

        return ObservedSample(counts, values)
