"""The observed sample ``S`` and the integrated database view ``K``.

:class:`ObservedSample` is the central statistical object of the library.
It captures, for one entity class and one (or more) numeric attributes:

* how many times each unique entity was observed across all data sources
  (the multiset sample ``S`` of the paper), and
* the fused attribute value of each unique entity (the integrated database
  ``K`` the analyst queries).

Every estimator in :mod:`repro.core` consumes an ``ObservedSample``; the
query engine, the simulator and the dataset generators all produce one.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.utils.exceptions import InsufficientDataError, ValidationError


@dataclass(frozen=True)
class SampleSummary:
    """Lightweight numeric summary of an :class:`ObservedSample`.

    Attributes
    ----------
    n:
        Total number of observations (with duplicates), ``|S|``.
    c:
        Number of unique entities observed, ``|K|``.
    f1:
        Number of singletons (entities observed exactly once).
    f2:
        Number of doubletons (entities observed exactly twice).
    """

    n: int
    c: int
    f1: int
    f2: int


class ObservedSample:
    """Immutable snapshot of the integrated sample ``S`` / database ``K``.

    Parameters
    ----------
    counts:
        Mapping from entity id to the number of times the entity was
        observed across all sources (must be >= 1).
    values:
        Mapping from entity id to a mapping of attribute name -> fused
        numeric value.  Every entity in ``counts`` must appear in ``values``.
    source_sizes:
        Optional per-source contribution sizes ``[n_1, ..., n_l]``; required
        by the Monte-Carlo estimator.  When omitted the sample behaves as if
        produced by a single source of size ``n``.
    """

    def __init__(
        self,
        counts: Mapping[str, int],
        values: Mapping[str, Mapping[str, float]],
        source_sizes: Sequence[int] | None = None,
    ) -> None:
        if not counts:
            raise InsufficientDataError("an ObservedSample needs at least one observed entity")
        clean_counts: dict[str, int] = {}
        for entity_id, count in counts.items():
            if count < 1:
                raise ValidationError(
                    f"entity {entity_id!r} has non-positive observation count {count}"
                )
            clean_counts[entity_id] = int(count)
        clean_values: dict[str, dict[str, float]] = {}
        for entity_id in clean_counts:
            if entity_id not in values:
                raise ValidationError(f"entity {entity_id!r} has a count but no values")
            clean_values[entity_id] = {
                attr: float(val) for attr, val in values[entity_id].items()
            }
        self._counts = clean_counts
        self._values = clean_values
        if source_sizes is None:
            self._source_sizes: tuple[int, ...] = (sum(clean_counts.values()),)
        else:
            sizes = tuple(int(s) for s in source_sizes)
            if any(s < 0 for s in sizes):
                raise ValidationError("source sizes must be non-negative")
            if sum(sizes) != sum(clean_counts.values()):
                raise ValidationError(
                    "source sizes must sum to the total number of observations "
                    f"({sum(sizes)} != {sum(clean_counts.values())})"
                )
            self._source_sizes = sizes
        self._frequency_cache: dict[int, int] | None = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_entity_values(
        cls,
        entries: Iterable[tuple[str, float, int]],
        attribute: str,
        source_sizes: Sequence[int] | None = None,
    ) -> "ObservedSample":
        """Build a single-attribute sample from ``(entity_id, value, count)`` triples."""
        counts: dict[str, int] = {}
        values: dict[str, dict[str, float]] = {}
        for entity_id, value, count in entries:
            counts[entity_id] = count
            values[entity_id] = {attribute: float(value)}
        return cls(counts, values, source_sizes=source_sizes)

    # ------------------------------------------------------------------ #
    # Basic statistics
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Total number of observations (with duplicates), ``|S|``."""
        return sum(self._counts.values())

    @property
    def c(self) -> int:
        """Number of unique observed entities, ``|K|``."""
        return len(self._counts)

    @property
    def counts(self) -> dict[str, int]:
        """Copy of the per-entity observation counts."""
        return dict(self._counts)

    @property
    def entity_ids(self) -> list[str]:
        """Observed entity ids (insertion order)."""
        return list(self._counts)

    @property
    def source_sizes(self) -> tuple[int, ...]:
        """Per-source contribution sizes ``[n_1, ..., n_l]``."""
        return self._source_sizes

    @property
    def num_sources(self) -> int:
        """Number of contributing data sources ``l``."""
        return len(self._source_sizes)

    @property
    def attributes(self) -> list[str]:
        """Attribute names present on every observed entity."""
        if not self._values:
            return []
        common: set[str] | None = None
        for attrs in self._values.values():
            keys = set(attrs)
            common = keys if common is None else common & keys
        return sorted(common or set())

    def count(self, entity_id: str) -> int:
        """Observation count of one entity (ValidationError if unknown)."""
        if entity_id not in self._counts:
            raise ValidationError(f"entity {entity_id!r} not present in sample")
        return self._counts[entity_id]

    def value(self, entity_id: str, attribute: str) -> float:
        """Fused value of ``attribute`` for one entity."""
        if entity_id not in self._values:
            raise ValidationError(f"entity {entity_id!r} not present in sample")
        attrs = self._values[entity_id]
        if attribute not in attrs:
            raise ValidationError(
                f"entity {entity_id!r} has no attribute {attribute!r}"
            )
        return attrs[attribute]

    def values(self, attribute: str) -> np.ndarray:
        """All fused values of ``attribute``, one per unique entity."""
        return np.array(
            [self.value(entity_id, attribute) for entity_id in self._counts], dtype=float
        )

    def values_by_entity(self) -> dict[str, dict[str, float]]:
        """Deep copy of the full per-entity attribute-value mapping.

        Preserves first-seen entity order; used to adopt a sample as
        incremental session state (:meth:`repro.api.OpenWorldSession.from_sample`).
        """
        return {eid: dict(attrs) for eid, attrs in self._values.items()}

    def has_attribute(self, attribute: str) -> bool:
        """True if every observed entity carries ``attribute``."""
        return all(attribute in attrs for attrs in self._values.values())

    def summary(self) -> SampleSummary:
        """Return the (n, c, f1, f2) summary."""
        freq = self.frequency_counts()
        return SampleSummary(n=self.n, c=self.c, f1=freq.get(1, 0), f2=freq.get(2, 0))

    # ------------------------------------------------------------------ #
    # Frequency statistics
    # ------------------------------------------------------------------ #

    def frequency_counts(self) -> dict[int, int]:
        """The f-statistics: ``{j: number of entities observed exactly j times}``."""
        if self._frequency_cache is None:
            self._frequency_cache = dict(Counter(self._counts.values()))
        return dict(self._frequency_cache)

    def singletons(self) -> list[str]:
        """Entity ids observed exactly once."""
        return [eid for eid, count in self._counts.items() if count == 1]

    def sum(self, attribute: str) -> float:
        """Observed aggregate ``SELECT SUM(attribute) FROM K`` (φ_K)."""
        return float(self.values(attribute).sum())

    def mean(self, attribute: str) -> float:
        """Observed aggregate ``SELECT AVG(attribute) FROM K``."""
        return float(self.values(attribute).mean())

    def min(self, attribute: str) -> float:
        """Observed aggregate ``SELECT MIN(attribute) FROM K``."""
        return float(self.values(attribute).min())

    def max(self, attribute: str) -> float:
        """Observed aggregate ``SELECT MAX(attribute) FROM K``."""
        return float(self.values(attribute).max())

    def std(self, attribute: str) -> float:
        """Sample standard deviation (ddof=1) of the observed values.

        Used by the upper bound (Section 4).  Returns 0.0 when only one
        unique entity has been observed.
        """
        vals = self.values(attribute)
        if vals.size < 2:
            return 0.0
        return float(vals.std(ddof=1))

    def singleton_sum(self, attribute: str) -> float:
        """Sum of ``attribute`` over singletons only (φ_f1 in the paper)."""
        return float(
            sum(self.value(eid, attribute) for eid in self.singletons())
        )

    # ------------------------------------------------------------------ #
    # Restriction (used by the bucket estimators)
    # ------------------------------------------------------------------ #

    def restrict_to_entities(self, entity_ids: Iterable[str]) -> "ObservedSample | None":
        """Sub-sample containing only ``entity_ids`` (None if that would be empty).

        The per-source sizes of the restriction are unknown in general, so
        the restricted sample reports a single pseudo-source.
        """
        keep = [eid for eid in entity_ids if eid in self._counts]
        if not keep:
            return None
        # The parent's counts and value maps are already validated and
        # private (never mutated), so the restriction shares them instead
        # of re-validating and copying every entity.
        restricted = ObservedSample.__new__(ObservedSample)
        restricted._counts = {eid: self._counts[eid] for eid in keep}
        restricted._values = {eid: self._values[eid] for eid in keep}
        restricted._source_sizes = (sum(restricted._counts.values()),)
        restricted._frequency_cache = None
        return restricted

    def restrict_to_value_range(
        self,
        attribute: str,
        low: float,
        high: float,
        include_high: bool = True,
    ) -> "ObservedSample | None":
        """Sub-sample of entities whose ``attribute`` value falls in [low, high].

        ``include_high=False`` makes the upper boundary exclusive, which the
        bucket estimators use to form non-overlapping consecutive buckets.
        Returns ``None`` when no entity falls in the range.
        """
        if low > high:
            raise ValidationError(f"low ({low}) must not exceed high ({high})")
        selected = []
        for eid in self._counts:
            val = self.value(eid, attribute)
            if include_high:
                inside = low <= val <= high
            else:
                inside = low <= val < high
            if inside:
                selected.append(eid)
        return self.restrict_to_entities(selected)

    # ------------------------------------------------------------------ #
    # Dunder / misc
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.c

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.summary()
        return (
            f"ObservedSample(n={s.n}, c={s.c}, f1={s.f1}, f2={s.f2}, "
            f"sources={self.num_sources})"
        )
