"""The multi-source sampling process (data integration as sampling, §2.2).

``l`` data sources each draw ``n_j`` entities *without replacement* from the
ground truth according to a publicity distribution; the draws are then
integrated into the multiset sample ``S``.  The resulting
:class:`SamplingRun` keeps the full arrival-ordered observation stream so
the evaluation harness can replay "estimate quality over time" experiments
(every figure of Section 6 is such a replay).  :meth:`SamplingRun.
samples_at` is the one prefix replay: it folds the stream once and
snapshots the integrated sample at each prefix size.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from repro.data.progressive import IntegrationState
from repro.data.records import Observation
from repro.data.sources import DataSource
from repro.data.sample import ObservedSample
from repro.simulation.population import Population
from repro.simulation.publicity import PublicityModel, UniformPublicity
from repro.utils.exceptions import InsufficientDataError, ValidationError
from repro.utils.rng import ensure_rng
from repro.utils.sampling import gumbel_topk_indices


@dataclass
class SamplingRun:
    """The outcome of one simulated integration run.

    Attributes
    ----------
    population:
        The ground truth that was sampled.
    attribute:
        The attribute carried by every observation.
    sources:
        The per-source draws.
    stream:
        All observations in arrival order (used for progressive replay).
    """

    population: Population
    attribute: str
    sources: list[DataSource] = field(default_factory=list)
    stream: list[Observation] = field(default_factory=list)

    @property
    def total_observations(self) -> int:
        """Total number of observations across all sources."""
        return len(self.stream)

    def sample(self) -> ObservedSample:
        """The fully integrated sample over all observations."""
        if not self.stream:
            raise InsufficientDataError("cannot integrate an empty observation stream")
        return self.sample_at(len(self.stream))

    def sample_at(self, n_observations: int) -> ObservedSample:
        """The integrated sample after the first ``n_observations`` arrivals."""
        return self.samples_at([n_observations])[0]

    def samples_at(self, prefix_sizes: Sequence[int]) -> list[ObservedSample]:
        """The integrated sample at each prefix size, in one pass over the stream.

        The one prefix replay: every observation is folded once into one
        :class:`~repro.data.progressive.IntegrationState` (the rule both
        session stores fold with: counts and first-seen values in
        first-seen order, per-source sizes in first-seen-source order),
        and each size snapshots it.  ``ObservedSample`` copies its
        inputs, so the snapshots are independent of each other.  Sizes
        must be >= 1 and non-decreasing; sizes past the stream's end are
        clamped to it.
        """
        state = IntegrationState()
        observations = iter(self.stream)
        samples: list[ObservedSample] = []
        previous = 0
        for size in prefix_sizes:
            if size < 1:
                raise ValidationError(f"prefix sizes must be >= 1, got {size}")
            if size < previous:
                raise ValidationError(
                    f"prefix sizes must be non-decreasing, got {size} after {previous}"
                )
            previous = size
            for obs in islice(observations, size - state.n):
                state.integrate(obs, self.attribute)
            samples.append(
                ObservedSample(
                    state.counts,
                    state.values,
                    source_sizes=list(state.per_source.values()),
                )
            )
        return samples

    def prefix_sizes(self, step: int) -> list[int]:
        """Evenly spaced prefix sizes ``step, 2·step, ..., total`` for replay."""
        if step < 1:
            raise ValidationError(f"step must be >= 1, got {step}")
        sizes = list(range(step, self.total_observations + 1, step))
        if not sizes or sizes[-1] != self.total_observations:
            sizes.append(self.total_observations)
        return sizes


class MultiSourceSampler:
    """Simulates ``l`` sources sampling without replacement from a population.

    Parameters
    ----------
    population:
        The ground truth ``D``.
    attribute:
        The numeric attribute each observation reports.
    publicity:
        The publicity model (default: uniform).
    """

    def __init__(
        self,
        population: Population,
        attribute: str,
        publicity: PublicityModel | None = None,
    ) -> None:
        self.population = population
        self.attribute = attribute
        self.publicity = publicity or UniformPublicity()
        # Validate the attribute once up front.
        for entity in population:
            entity.numeric_value(attribute)

    # ------------------------------------------------------------------ #
    # Source-level sampling
    # ------------------------------------------------------------------ #

    def draw_source(
        self,
        source_id: str,
        size: int,
        rng: "int | np.random.Generator | None" = None,
    ) -> DataSource:
        """One source drawing ``size`` distinct entities (publicity-weighted)."""
        if size < 1:
            raise ValidationError(f"source size must be >= 1, got {size}")
        generator = ensure_rng(rng)
        probabilities = self.publicity.for_population(self.population)
        draw = min(size, self.population.size)
        # Gumbel top-k in descending key order is distributed exactly like
        # sequential weighted sampling without replacement (see DESIGN.md),
        # but runs in one vectorized pass instead of O(N·k).
        indices = gumbel_topk_indices(probabilities, draw, generator, ordered=True)
        observations = []
        for seq, index in enumerate(indices):
            entity = self.population[int(index)]
            observations.append(
                Observation(
                    entity_id=entity.entity_id,
                    attributes={self.attribute: entity.numeric_value(self.attribute)},
                    source_id=source_id,
                    sequence=seq,
                )
            )
        return DataSource(source_id=source_id, observations=observations)

    # ------------------------------------------------------------------ #
    # Full integration runs
    # ------------------------------------------------------------------ #

    def run(
        self,
        source_sizes: Sequence[int],
        seed: "int | np.random.Generator | None" = None,
        arrival: str = "interleaved",
    ) -> SamplingRun:
        """Simulate all sources and build the arrival-ordered stream.

        Parameters
        ----------
        source_sizes:
            ``[n_1, ..., n_l]`` -- how many entities each source reports.
        seed:
            RNG seed / generator for reproducibility.
        arrival:
            How observations from different sources arrive over time:

            * ``"interleaved"`` (default) -- observations are drawn uniformly
              at random across sources, modelling crowd answers trickling in
              concurrently;
            * ``"roundrobin"`` -- one observation per source in turn;
            * ``"sequential"`` -- source 1 finishes before source 2 starts
              (the extreme streaker setting of Figure 7a).
        """
        if len(source_sizes) == 0:
            raise ValidationError("at least one source size is required")
        rng = ensure_rng(seed)
        sources = [
            self.draw_source(f"source-{j:03d}", int(size), rng)
            for j, size in enumerate(source_sizes)
        ]
        stream = self._order_stream(sources, arrival, rng)
        return SamplingRun(
            population=self.population,
            attribute=self.attribute,
            sources=sources,
            stream=stream,
        )

    @staticmethod
    def _order_stream(
        sources: Sequence[DataSource],
        arrival: str,
        rng: np.random.Generator,
    ) -> list[Observation]:
        if arrival == "sequential":
            stream = [obs for source in sources for obs in source.observations]
        elif arrival == "roundrobin":
            # One observation per source in turn; indexing by rank avoids the
            # quadratic pop(0) queue shuffling of the naive implementation.
            longest = max((len(source.observations) for source in sources), default=0)
            stream = [
                source.observations[rank]
                for rank in range(longest)
                for source in sources
                if rank < len(source.observations)
            ]
        elif arrival == "interleaved":
            # Picking a source with probability proportional to its remaining
            # observations is the same as picking a uniformly random remaining
            # observation, so the arrival order is a uniform shuffle of the
            # source labels with within-source order preserved.  One
            # permutation replaces the O(n²) weighted-pick/pop(0) loop.
            labels = np.repeat(
                np.arange(len(sources)),
                [len(source.observations) for source in sources],
            )
            cursors = [0] * len(sources)
            stream = []
            for label in rng.permutation(labels):
                source = sources[label]
                stream.append(source.observations[cursors[label]])
                cursors[label] += 1
        else:
            raise ValidationError(
                f"unknown arrival mode {arrival!r}; expected interleaved, "
                "roundrobin or sequential"
            )
        # Stamp the global arrival sequence so downstream replay is explicit.
        return [
            Observation(
                entity_id=obs.entity_id,
                attributes=dict(obs.attributes),
                source_id=obs.source_id,
                sequence=position,
            )
            for position, obs in enumerate(stream)
        ]


def simulate_integration(
    population: Population,
    attribute: str,
    n_sources: int,
    source_size: int,
    publicity: PublicityModel | None = None,
    seed: "int | np.random.Generator | None" = None,
    arrival: str = "interleaved",
) -> SamplingRun:
    """Convenience wrapper: ``n_sources`` equal-sized sources, one call."""
    if n_sources < 1:
        raise ValidationError(f"n_sources must be >= 1, got {n_sources}")
    sampler = MultiSourceSampler(population, attribute, publicity=publicity)
    return sampler.run([source_size] * n_sources, seed=seed, arrival=arrival)
