"""Record types: real-world entities and per-source observations of them.

The paper assumes that, after cleaning, each record in the integrated table
corresponds to exactly one real-world entity and that we know how many times
the entity was observed across the data sources (Section 2).  We therefore
distinguish two types:

* :class:`Entity` -- a unique real-world entity (e.g. one company) with its
  attribute values.  Used for ground-truth populations and for the
  integrated, deduplicated database ``K``.
* :class:`Observation` -- one *mention* of an entity by one data source.  The
  multiset of observations forms the sample ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.utils.exceptions import ValidationError


@dataclass(frozen=True)
class Entity:
    """A unique real-world entity with its attribute values.

    Parameters
    ----------
    entity_id:
        A stable identifier for the entity (e.g. the canonical company name
        after entity resolution).
    attributes:
        Mapping from attribute name to value.  Values used in aggregate
        queries must be numeric; other attributes may be any type.
    """

    entity_id: str
    attributes: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.entity_id:
            raise ValidationError("entity_id must be a non-empty string")
        # Freeze the attribute mapping so Entity instances are safely hashable
        # by identity and never mutated after construction.
        object.__setattr__(self, "attributes", dict(self.attributes))

    def value(self, attribute: str) -> Any:
        """Return the value of ``attribute``.

        Raises
        ------
        KeyError
            If the entity does not carry the attribute.
        """
        return self.attributes[attribute]

    def numeric_value(self, attribute: str) -> float:
        """Return the value of ``attribute`` as a float.

        Raises
        ------
        ValidationError
            If the value is missing or not numeric.
        """
        if attribute not in self.attributes:
            raise ValidationError(
                f"entity {self.entity_id!r} has no attribute {attribute!r}"
            )
        value = self.attributes[attribute]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(
                f"attribute {attribute!r} of entity {self.entity_id!r} is not numeric: {value!r}"
            )
        return float(value)

    def with_attribute(self, attribute: str, value: Any) -> "Entity":
        """Return a copy of the entity with ``attribute`` set to ``value``."""
        merged = dict(self.attributes)
        merged[attribute] = value
        return Entity(self.entity_id, merged)


@dataclass(frozen=True)
class Observation:
    """A single mention of an entity by a data source.

    In a crowdsourcing setting this is one crowd answer; in a web-integration
    setting one extracted record from one page.

    Parameters
    ----------
    entity_id:
        Identifier of the (already entity-resolved) real-world entity.
    attributes:
        The attribute values reported by this particular source.  Different
        sources may disagree; :mod:`repro.data.cleaning` fuses them.
    source_id:
        Identifier of the contributing data source (crowd worker, web page,
        ...).
    sequence:
        Optional arrival index of this observation in the answer stream.
        Used by the progressive evaluation harness to replay "estimates over
        time" experiments; ``-1`` means "unknown / not ordered".  It must
        fit in a signed 64-bit integer, the width the segment log stores.
    """

    entity_id: str
    attributes: Mapping[str, Any] = field(default_factory=dict)
    source_id: str = "unknown"
    sequence: int = -1

    def __post_init__(self) -> None:
        # Ids are dictionary keys of the session state and names in the
        # segment log: a non-string id would be stored as one key and
        # restored (from JSON or the log) as another.
        if not isinstance(self.entity_id, str) or not self.entity_id:
            raise ValidationError("entity_id must be a non-empty string")
        if not isinstance(self.source_id, str) or not self.source_id:
            raise ValidationError("source_id must be a non-empty string")
        if not -(2**63) <= self.sequence < 2**63:
            raise ValidationError(
                f"sequence must fit in a signed 64-bit integer, got {self.sequence}"
            )
        object.__setattr__(self, "attributes", dict(self.attributes))

    def value(self, attribute: str) -> Any:
        """Return the reported value of ``attribute`` (KeyError if absent)."""
        return self.attributes[attribute]

    def has_attribute(self, attribute: str) -> bool:
        """True if this observation reports ``attribute``."""
        return attribute in self.attributes
