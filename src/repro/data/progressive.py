"""The first-seen integration state every prefix replay and store folds.

Every progressive experiment ("estimate quality after k crowd answers",
i.e. every figure of Section 6) replays one arrival-ordered stream at a
ladder of prefix sizes.  :meth:`repro.simulation.sampler.SamplingRun.
samples_at` folds the stream once into one :class:`IntegrationState` and
snapshots it at each size, so a replay over ``k`` prefixes costs O(n)
stream work plus the O(c) copy per snapshot instead of O(n·k) -- the
FO+MOD idea of maintaining a view under appends rather than evaluating
it again.
"""

from __future__ import annotations

from repro.data.records import Observation


class IntegrationState:
    """Incrementally maintained first-seen integration state.

    One implementation of the "chunked == batch, bit-identical" invariant
    (DESIGN.md), shared by :meth:`~repro.simulation.sampler.SamplingRun.
    samples_at` (prefix replay over a fixed stream) and both session
    stores (open-ended appends): per-entity counts and first-seen fused
    values in first-seen order, per-source contribution sizes in
    first-seen-source order, plus the frequency histogram ``{j: f_j}``
    maintained under each append.
    """

    __slots__ = ("counts", "values", "per_source", "frequencies", "n")

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.values: dict[str, dict[str, float]] = {}
        self.per_source: dict[str, int] = {}
        self.frequencies: dict[int, int] = {}
        self.n = 0

    def integrate(self, obs: Observation, attribute: str) -> None:
        """Fold one observation into the state (first-seen value fusion)."""
        entity = obs.entity_id
        old = self.counts.get(entity, 0)
        self.counts[entity] = old + 1
        if old:
            remaining = self.frequencies[old] - 1
            if remaining:
                self.frequencies[old] = remaining
            else:
                del self.frequencies[old]
        else:
            self.values[entity] = {attribute: float(obs.value(attribute))}
        self.frequencies[old + 1] = self.frequencies.get(old + 1, 0) + 1
        self.per_source[obs.source_id] = self.per_source.get(obs.source_id, 0) + 1
        self.n += 1
