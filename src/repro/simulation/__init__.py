"""Simulation of the paper's data-integration-as-sampling process (§2.2, §6.2).

The simulator has three layers:

1. :mod:`repro.simulation.population` -- ground-truth populations ``D``:
   unique entities with attribute values (e.g. 100 entities with values
   10, 20, ..., 1000 as in the synthetic experiments).
2. :mod:`repro.simulation.publicity` -- publicity distributions: how likely
   each entity is to be mentioned by a source (uniform, exponential with
   skew λ, Zipf), and the publicity-value correlation ρ.
3. :mod:`repro.simulation.sampler` -- the multi-source sampling process:
   each source draws without replacement from the population according to
   the publicity distribution; the draws are integrated into an
   :class:`~repro.data.sample.ObservedSample`.

:mod:`repro.simulation.streaker` builds the imbalanced-source scenarios of
Section 6.3 and :mod:`repro.simulation.scenarios` bundles the exact
configurations used by each figure.
"""

from repro.simulation.population import Population, linear_value_population, make_population
from repro.simulation.publicity import (
    PublicityModel,
    UniformPublicity,
    ExponentialPublicity,
    ZipfPublicity,
    correlate_values_with_publicity,
)
from repro.simulation.sampler import (
    MultiSourceSampler,
    SamplingRun,
    simulate_integration,
)
from repro.simulation.streaker import (
    successive_streakers_run,
    inject_streaker_run,
)
from repro.simulation.scenarios import SyntheticScenario, SCENARIOS, get_scenario

__all__ = [
    "Population",
    "linear_value_population",
    "make_population",
    "PublicityModel",
    "UniformPublicity",
    "ExponentialPublicity",
    "ZipfPublicity",
    "correlate_values_with_publicity",
    "MultiSourceSampler",
    "SamplingRun",
    "simulate_integration",
    "successive_streakers_run",
    "inject_streaker_run",
    "SyntheticScenario",
    "SCENARIOS",
    "get_scenario",
]
