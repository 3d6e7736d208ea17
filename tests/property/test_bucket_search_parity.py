"""Parity of the dynamic bucket search: sorted prefix-sum search vs the loop.

The naive and frequency estimators provide a vectorized split scorer, so
``DynamicBucketing`` searches index ranges of the value-sorted sample.  A
search estimator without a scorer takes the original loop, which
materializes and estimates every candidate split.  Wrapping the search
estimator in :class:`LoopOnly` (no scorer) therefore reaches the loop
through the public constructor, and the two searches must serve the same
bytes.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import build_estimator
from repro.core.bucket import BucketEstimator, DynamicBucketing, _SortedSearch
from repro.core.estimator import Estimate, SumEstimator
from repro.core.frequency import FrequencyEstimator
from repro.core.naive import NaiveEstimator
from repro.core.pieces import PieceStatistics
from repro.data.sample import ObservedSample
from repro.datasets import available_datasets, load_dataset
from repro.serving.http import dumps_result


class LoopOnly(SumEstimator):
    """Delegates ``estimate`` and nothing else: no vectorized scorer."""

    def __init__(self, inner: SumEstimator) -> None:
        self.inner = inner
        self.name = inner.name

    def estimate(self, sample: ObservedSample, attribute: str) -> Estimate:
        return self.inner.estimate(sample, attribute)


#: spec -> (base, loop-searched twin) factories; the twin re-estimates its
#: final buckets with the same base, so its payload is the loop's.
SPECS = {
    "bucket": lambda: BucketEstimator(
        base=NaiveEstimator(), search_base=LoopOnly(NaiveEstimator())
    ),
    "bucket/frequency": lambda: BucketEstimator(
        base=FrequencyEstimator(), search_base=LoopOnly(FrequencyEstimator())
    ),
    "bucket?search=frequency": lambda: BucketEstimator(
        base=NaiveEstimator(), search_base=LoopOnly(FrequencyEstimator())
    ),
}


def _payload(estimator: SumEstimator, sample: ObservedSample, attribute: str) -> bytes:
    return dumps_result(estimator.estimate(sample, attribute).to_dict())


def assert_search_parity(sample: ObservedSample, attribute: str) -> None:
    for spec, loop_twin in SPECS.items():
        fast = build_estimator(spec)
        assert _payload(fast, sample, attribute) == _payload(
            loop_twin(), sample, attribute
        ), spec


def _sample(entries: "list[tuple[float, int]]", attribute: str = "v") -> ObservedSample:
    return ObservedSample.from_entity_values(
        [(f"e{i}", value, count) for i, (value, count) in enumerate(entries)],
        attribute=attribute,
    )


# ---------------------------------------------------------------------- #
# Generated samples
# ---------------------------------------------------------------------- #

#: Values that stress the error bound: ties, signs, zeros of both signs,
#: integers, ±1e15 beside 1e-9, and decimals whose sums round
#: differently in different orders (near-tied split totals).
_awkward = st.sampled_from(
    [0.0, -0.0, 1.0, 2.0, -3.0, 1e-9, -1e-9, 2.5e-9, 1e15, -1e15, 1e15 + 2.0, 7.0]
    + [0.1, 0.2, 0.3, 0.4, 0.6000000000000001, 0.7, 1.1, 1 / 3, 2 / 3]
)
_values = st.one_of(
    _awkward,
    st.integers(min_value=-50, max_value=50).map(float),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def samples(draw) -> ObservedSample:
    size = draw(st.integers(min_value=1, max_value=36))
    pool = draw(st.lists(_values, min_size=1, max_size=size))
    # Drawing from a small pool makes ties (and all-tied samples) common.
    values = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    if draw(st.booleans()):
        counts = [1] * size  # all-singleton sample: diverging estimates
    else:
        counts = draw(
            st.lists(st.integers(min_value=1, max_value=6), min_size=size, max_size=size)
        )
    return _sample(list(zip(values, counts)))


class TestGeneratedParity:
    @given(samples())
    @settings(max_examples=150, deadline=None)
    def test_payloads_byte_identical(self, sample):
        assert_search_parity(sample, "v")

    @given(samples())
    @settings(max_examples=40, deadline=None)
    def test_buckets_identical(self, sample):
        fast = BucketEstimator(strategy=DynamicBucketing())
        loop = BucketEstimator(
            strategy=DynamicBucketing(),
            base=NaiveEstimator(),
            search_base=LoopOnly(NaiveEstimator()),
        )
        fast_buckets = fast.buckets(sample, "v")
        loop_buckets = loop.buckets(sample, "v")
        assert [(b.low, b.high) for b in fast_buckets] == [
            (b.low, b.high) for b in loop_buckets
        ]
        for ours, theirs in zip(fast_buckets, loop_buckets):
            assert ours.sample.counts == theirs.sample.counts
            assert ours.sample.entity_ids == theirs.sample.entity_ids
            assert ours.estimate == theirs.estimate

    @given(samples())
    @settings(max_examples=10, deadline=None)
    def test_monte_carlo_boundaries(self, sample):
        spec = "bucket/monte-carlo?n_runs=1&n_count_steps=2"
        fast = build_estimator(spec)
        loop = BucketEstimator(base=fast.base, search_base=LoopOnly(NaiveEstimator()))
        assert [(b.low, b.high) for b in fast.buckets(sample, "v")] == [
            (b.low, b.high) for b in loop.buckets(sample, "v")
        ]


class TestScorerArithmetic:
    """Fed the batch path's own sums, a scorer is exact: it repeats the
    scalar path's operations, so any drift is a bug, not rounding."""

    @given(st.lists(samples(), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_exact_sums_give_exact_abs_delta(self, batch):
        counts = [list(s.counts.values()) for s in batch]
        pieces = PieceStatistics(
            n=np.array([sum(k) for k in counts], dtype=np.int64),
            c=np.array([len(k) for k in counts], dtype=np.int64),
            f1=np.array([k.count(1) for k in counts], dtype=np.int64),
            moment=np.array([sum(j * (j - 1) for j in k) for k in counts], dtype=np.int64),
            value_sum=np.array([s.sum("v") for s in batch]),
            value_err=np.zeros(len(batch)),
            singleton_sum=np.array([s.singleton_sum("v") for s in batch]),
            singleton_err=np.zeros(len(batch)),
        )
        for estimator in (
            NaiveEstimator(),
            FrequencyEstimator(),
            FrequencyEstimator(assume_uniform=True),
        ):
            score, err = estimator._score_pieces(pieces)
            expected = [abs(estimator.estimate(s, "v").delta) for s in batch]
            assert score.tolist() == expected, estimator.name
            assert not err.any()


# ---------------------------------------------------------------------- #
# Deterministic cases
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name", available_datasets())
def test_datasets(name):
    dataset = load_dataset(name)
    assert_search_parity(dataset.sample(), dataset.attribute)


def _perfbench_shaped(seed: int) -> ObservedSample:
    """160 entities, log-normal values rounded to 4 places, Pareto(1.5)
    publicity, 12 sources listing 36 distinct entities each; entities no
    source listed are mentioned once."""
    rng = random.Random(seed)
    ids = [f"e{index:06d}" for index in range(160)]
    values = {entity: round(rng.lognormvariate(4.0, 1.0), 4) for entity in ids}
    weights = [rng.paretovariate(1.5) for _ in ids]
    counts: dict[str, int] = {}
    for _ in range(12):
        listed: set[str] = set()
        while len(listed) < 36:
            listed.add(rng.choices(ids, weights=weights)[0])
        for entity in listed:
            counts[entity] = counts.get(entity, 0) + 1
    for entity in ids:
        counts.setdefault(entity, 1)
    return _sample([(values[entity], counts[entity]) for entity in counts], "value")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_perfbench_population_shape(seed):
    assert_search_parity(_perfbench_shaped(seed), "value")


@pytest.mark.parametrize(
    "entries",
    [
        # Prefix-sum scores order these splits differently from the exact
        # sums: only the exact re-check picks the loop's split.
        [(0.4, 2), (0.6000000000000001, 3), (0.5, 1), (0.2, 1), (0.2, 2)],
        [
            (0.4, 1), (0.6000000000000001, 2), (0.8, 2), (1.1, 1),
            (0.6000000000000001, 2), (1.0, 1), (0.1, 2), (0.1, 1), (0.8, 2),
            (0.30000000000000004, 2), (0.8, 1), (0.8, 1),
        ],
        [
            (1e-09, 3), (1e15, 2), (-1e15, 1), (1.1, 1), (0.7, 3), (-1e15, 2),
            (0.3, 1), (0.3, 1), (0.1, 1), (0.1, 1), (-1e15, 1), (0.3, 2),
            (3.3, 1), (0.1, 3),
        ],
        # The right piece's sum 0.3 is a difference of prefixes near
        # -1e16: its error comes from both prefixes, not from |0.3|.
        [(-1e16, 2), (0.3, 1)],
        [(-1e16, 3), (1.0, 1), (1.0, 1)],
        # -0.0 is listed before 0.0: the split is named -0.0, as the
        # loop's sorted(set(values)) keeps the first of equal values.
        [(-0.0, 1), (1.0, 2), (0.0, 1), (1.0, 1), (100.0, 1), (1.0, 1)],
    ],
)
def test_rounding_sensitive_cases(entries):
    assert_search_parity(_sample(entries), "v")


def test_one_entity_sample():
    assert_search_parity(_sample([(5.0, 2)]), "v")
    assert_search_parity(_sample([(-5.0, 1)]), "v")


def test_search_without_scorer_or_with_extreme_values_takes_the_loop():
    sample = _sample([(1.0, 1), (2.0, 2), (3.0, 1)])
    values = sample.values("v")
    assert _SortedSearch.create(sample, values, NaiveEstimator()) is not None
    assert _SortedSearch.create(sample, values, LoopOnly(NaiveEstimator())) is None
    huge = _sample([(1e300, 1), (2.0, 2)])
    assert _SortedSearch.create(huge, huge.values("v"), NaiveEstimator()) is None
    assert_search_parity(huge, "v")


def test_continuous_values_at_scale():
    rng = np.random.default_rng(11)
    values = rng.lognormal(8.0, 1.5, 400)
    counts = rng.geometric(0.5, 400)
    assert_search_parity(
        _sample([(float(v), int(k)) for v, k in zip(values, counts)]), "v"
    )
