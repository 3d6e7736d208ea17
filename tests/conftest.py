"""Shared fixtures for the test suite.

The suite can be re-run with every Monte-Carlo estimate sharded over a
parallel backend (the CI process-backend smoke job)::

    pytest tests/ --backend process --workers 2

The options set the process-wide default backend of :mod:`repro.parallel`,
which every ``MonteCarloConfig(backend=None)`` follows; because estimates
are bit-identical across backends, the whole suite must pass unchanged.
"""

from __future__ import annotations

import pytest

from repro.data.sample import ObservedSample
from repro.parallel import set_default_backend, shutdown_backends


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--backend",
        action="store",
        default=None,
        choices=["serial", "process"],
        help="run every backend-less Monte-Carlo estimate on this backend",
    )
    parser.addoption(
        "--workers",
        action="store",
        type=int,
        default=None,
        help="worker count for --backend",
    )


def pytest_configure(config: pytest.Config) -> None:
    backend = config.getoption("--backend")
    if backend is not None:
        set_default_backend(backend, config.getoption("--workers"))


def pytest_unconfigure(config: pytest.Config) -> None:
    if config.getoption("--backend") is not None:
        set_default_backend(None)
        shutdown_backends()
from repro.datasets.toy_example import toy_sample
from repro.simulation.population import linear_value_population
from repro.simulation.publicity import ExponentialPublicity, correlate_values_with_publicity
from repro.simulation.sampler import MultiSourceSampler


@pytest.fixture
def toy_sample_four_sources() -> ObservedSample:
    """The Appendix F toy sample before adding source s5 (n=7, c=3, f1=1)."""
    return toy_sample(include_fifth=False)


@pytest.fixture
def toy_sample_five_sources() -> ObservedSample:
    """The Appendix F toy sample after adding source s5 (n=9, c=4, f1=1)."""
    return toy_sample(include_fifth=True)


@pytest.fixture
def simple_sample() -> ObservedSample:
    """A small hand-made sample with known statistics.

    Counts: a=3, b=2, c=1, d=1  =>  n=7, c=4, f1=2, f2=1, f3=1.
    Values: a=10, b=20, c=30, d=40.
    """
    return ObservedSample.from_entity_values(
        [("a", 10.0, 3), ("b", 20.0, 2), ("c", 30.0, 1), ("d", 40.0, 1)],
        attribute="value",
    )


@pytest.fixture
def synthetic_run():
    """A deterministic synthetic integration run (uniform publicity, 10 sources)."""
    population = linear_value_population(size=60)
    sampler = MultiSourceSampler(population, "value")
    return sampler.run([20] * 10, seed=123)


@pytest.fixture
def skewed_run():
    """A skewed, value-correlated synthetic run (the 'realistic' setting)."""
    population = linear_value_population(size=60)
    population = correlate_values_with_publicity(population, "value", 1.0, seed=7)
    sampler = MultiSourceSampler(
        population, "value", publicity=ExponentialPublicity(4.0)
    )
    return sampler.run([20] * 10, seed=7)
