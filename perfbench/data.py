"""Seeded inputs and the in-process oracle they are checked against.

Every input the benchmark sends is drawn here from ``--seed``: the same
seed gives the same population, seed mentions and ingest chunks.  The
server only ever sees the generated observations.

:class:`Oracle` replays the same observations into an in-process
:class:`repro.api.session.OpenWorldSession` and renders the bytes the
server must serve through :func:`repro.serving.http.dumps_result`.
"""

from __future__ import annotations

import itertools
import random
import zlib

from repro.api.session import OpenWorldSession
from repro.data.records import Observation
from repro.serving.http import dumps_result

ATTRIBUTE = "value"
SQL = f"SELECT SUM({ATTRIBUTE}) FROM data"


def stream_rng(seed: int, label: str) -> random.Random:
    """An independent generator per (seed, purpose) pair."""
    return random.Random(seed * 1_000_003 + zlib.crc32(label.encode()))


class Population:
    """Entities with continuous values and skewed publicity."""

    def __init__(self, seed: int, label: str, n_entities: int, n_sources: int) -> None:
        self.seed, self.label = seed, label
        rng = stream_rng(seed, f"{label}/population")
        self.ids = [f"e{index:06d}" for index in range(n_entities)]
        self.values = {
            entity: round(rng.lognormvariate(4.0, 1.0), 4) for entity in self.ids
        }
        weights = [rng.paretovariate(1.5) for _ in self.ids]
        total = sum(weights)
        self.cumulative = list(itertools.accumulate(w / total for w in weights))
        self.sources = [f"s{index:03d}" for index in range(n_sources)]

    def mention(self, entity: str, source: str) -> dict:
        return {
            "entity_id": entity,
            "source_id": source,
            "attributes": {ATTRIBUTE: self.values[entity]},
        }

    def popular(self, rng: random.Random, k: int) -> list[str]:
        """``k`` entity draws weighted by publicity (with repeats)."""
        return rng.choices(self.ids, cum_weights=self.cumulative, k=k)

    def seed_mentions(self, per_source: int) -> list[dict]:
        """Each source lists ``per_source`` distinct entities.

        Entities no source drew are then listed once each by a random
        source, so every seed observes the whole population: the
        distinct-value count, which sets the bucket estimator's cost,
        does not depend on the seed.
        """
        rng = stream_rng(self.seed, f"{self.label}/seed-mentions")
        mentions = []
        covered: set[str] = set()
        for source in self.sources:
            listed: list[str] = []
            seen: set[str] = set()
            while len(listed) < per_source:
                for entity in self.popular(rng, per_source):
                    if entity not in seen and len(listed) < per_source:
                        seen.add(entity)
                        listed.append(entity)
            covered |= seen
            mentions.extend(self.mention(entity, source) for entity in listed)
        mentions.extend(
            self.mention(entity, rng.choice(self.sources))
            for entity in self.ids
            if entity not in covered
        )
        return mentions


class Chunks:
    """An endless, seeded stream of small ingest chunks."""

    def __init__(
        self, population: Population, size: int, pool: "list[str] | None" = None
    ) -> None:
        self._population = population
        self._rng = stream_rng(population.seed, f"{population.label}/chunks")
        self._size = size
        self._pool = pool

    def next(self) -> list[dict]:
        rng = self._rng
        if self._pool is None:
            entities = self._population.popular(rng, self._size)
        else:
            entities = rng.choices(self._pool, k=self._size)
        return [
            self._population.mention(entity, rng.choice(self._population.sources))
            for entity in entities
        ]


def observations(mentions: list[dict]) -> list[Observation]:
    return [
        Observation(
            entity_id=item["entity_id"],
            attributes=item["attributes"],
            source_id=item["source_id"],
        )
        for item in mentions
    ]


class Oracle:
    """The in-process facade replaying what the server acknowledged."""

    def __init__(self, estimator: str) -> None:
        self.session = OpenWorldSession(ATTRIBUTE, estimator=estimator)

    def ingest(self, mentions: list[dict]) -> dict:
        """Ingest a chunk; returns the fields the server's ack must carry."""
        self.session.ingest(observations(mentions))
        return {
            "state_version": self.session.state_version,
            "n": self.session.n,
            "c": self.session.c,
        }

    @property
    def version(self) -> int:
        return self.session.state_version

    def estimate_bytes(self) -> bytes:
        return dumps_result(self.session.estimate().to_dict())

    def query_bytes(self) -> bytes:
        return dumps_result(self.session.query(SQL).to_dict())

    def snapshot_bytes(self) -> bytes:
        return dumps_result(self.session.snapshot().to_dict())
