"""Tests for repro.data.records."""

from __future__ import annotations

import pytest

from repro.data.records import Entity, Observation
from repro.utils.exceptions import ValidationError


class TestEntity:
    def test_basic_construction(self):
        entity = Entity("acme", {"employees": 120})
        assert entity.entity_id == "acme"
        assert entity.value("employees") == 120

    def test_empty_id_rejected(self):
        with pytest.raises(ValidationError):
            Entity("", {})

    def test_numeric_value(self):
        entity = Entity("acme", {"employees": 120})
        assert entity.numeric_value("employees") == pytest.approx(120.0)

    def test_numeric_value_missing_attribute(self):
        entity = Entity("acme", {})
        with pytest.raises(ValidationError):
            entity.numeric_value("employees")

    def test_numeric_value_non_numeric(self):
        entity = Entity("acme", {"sector": "tech"})
        with pytest.raises(ValidationError):
            entity.numeric_value("sector")

    def test_numeric_value_bool_rejected(self):
        entity = Entity("acme", {"active": True})
        with pytest.raises(ValidationError):
            entity.numeric_value("active")

    def test_value_keyerror_for_missing(self):
        entity = Entity("acme", {})
        with pytest.raises(KeyError):
            entity.value("employees")

    def test_with_attribute_returns_new_entity(self):
        entity = Entity("acme", {"employees": 120})
        updated = entity.with_attribute("revenue", 10.0)
        assert updated.value("revenue") == 10.0
        assert "revenue" not in entity.attributes

    def test_attributes_copied_on_construction(self):
        attrs = {"employees": 1}
        entity = Entity("acme", attrs)
        attrs["employees"] = 999
        assert entity.value("employees") == 1


class TestObservation:
    def test_basic_construction(self):
        obs = Observation("acme", {"employees": 120}, source_id="w1", sequence=3)
        assert obs.entity_id == "acme"
        assert obs.source_id == "w1"
        assert obs.sequence == 3

    def test_defaults(self):
        obs = Observation("acme")
        assert obs.source_id == "unknown"
        assert obs.sequence == -1

    def test_empty_entity_id_rejected(self):
        with pytest.raises(ValidationError):
            Observation("")

    def test_empty_source_id_rejected(self):
        with pytest.raises(ValidationError):
            Observation("acme", source_id="")

    @pytest.mark.parametrize(
        "fields",
        [{"entity_id": 5}, {"entity_id": ["x"]}, {"source_id": 5}],
        ids=["int-entity-id", "list-entity-id", "int-source-id"],
    )
    def test_non_string_ids_rejected(self, fields):
        with pytest.raises(ValidationError, match="must be a non-empty string"):
            Observation(**{"entity_id": "acme", **fields})

    def test_sequence_must_fit_int64(self):
        assert Observation("acme", sequence=2**63 - 1).sequence == 2**63 - 1
        assert Observation("acme", sequence=-(2**63)).sequence == -(2**63)
        for sequence in (2**63, -(2**63) - 1, 2**70):
            with pytest.raises(ValidationError, match="64-bit"):
                Observation("acme", sequence=sequence)

    def test_has_attribute(self):
        obs = Observation("acme", {"employees": 120})
        assert obs.has_attribute("employees")
        assert not obs.has_attribute("revenue")

    def test_value(self):
        obs = Observation("acme", {"employees": 120})
        assert obs.value("employees") == 120
