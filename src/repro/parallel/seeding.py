"""Deterministic seed splitting for parallel task fan-out.

Sharding a Monte-Carlo computation across workers must not change its
answer: the paper's estimates are only trustworthy to compare across
configurations if the simulated draws are identical no matter *where* they
ran.  A single shared :class:`numpy.random.Generator` cannot provide that --
its stream depends on the order in which tasks consume it, which is exactly
what a work-stealing pool does not guarantee.

The scheme used throughout :mod:`repro.parallel` instead derives one
independent child :class:`numpy.random.SeedSequence` per task, keyed by the
task's *index* in the fan-out (e.g. the θ_N grid-row index of the
Monte-Carlo search):

* the caller's seed becomes a root ``SeedSequence``,
* ``root.spawn(n)`` yields ``n`` children whose entropy depends only on the
  root entropy and the child index (``spawn_key``), never on execution
  order, thread identity, or worker count,
* task ``i`` builds ``default_rng(children[i])`` locally, wherever it runs.

Results gathered back in task order are therefore **bit-identical** across
the serial and process backends and across any number of workers.
See DESIGN.md ("Parallel execution and seed splitting") for the argument.
"""

from __future__ import annotations

import numpy as np

from repro.utils.exceptions import ValidationError

__all__ = ["root_seed_sequence", "spawn_task_seeds"]


def root_seed_sequence(
    seed_or_rng: "int | np.random.Generator | np.random.SeedSequence | None",
) -> np.random.SeedSequence:
    """Normalise a user-facing seed into a root :class:`SeedSequence`.

    ``None`` draws fresh OS entropy (non-deterministic, like
    :func:`numpy.random.default_rng`).  An integer seeds the sequence
    directly, so the same integer always yields the same task seeds.  An
    existing ``SeedSequence`` is returned unchanged.  A ``Generator`` is
    supported for API compatibility with :func:`repro.utils.rng.ensure_rng`:
    its stream supplies the root entropy, which advances the generator --
    deterministic for a given generator state, and distinct across repeated
    calls (mirroring how a shared generator behaves in serial code).
    """
    if seed_or_rng is None:
        return np.random.SeedSequence()
    if isinstance(seed_or_rng, np.random.SeedSequence):
        return seed_or_rng
    if isinstance(seed_or_rng, np.random.Generator):
        entropy = seed_or_rng.integers(0, 2**63 - 1, size=4)
        return np.random.SeedSequence([int(word) for word in entropy])
    if isinstance(seed_or_rng, (int, np.integer)):
        return np.random.SeedSequence(int(seed_or_rng))
    raise ValidationError(
        "expected None, an int, a numpy Generator or SeedSequence, got "
        f"{type(seed_or_rng).__name__}"
    )


def spawn_task_seeds(
    seed_or_rng: "int | np.random.Generator | np.random.SeedSequence | None",
    n_tasks: int,
) -> list[np.random.SeedSequence]:
    """One independent child :class:`SeedSequence` per task, keyed by index.

    ``spawn_task_seeds(seed, n)[i]`` depends only on ``seed`` and ``i``:
    growing ``n`` keeps the existing children stable, and the schedule that
    later executes the tasks cannot influence their streams.
    """
    if n_tasks < 0:
        raise ValidationError(f"n_tasks must be non-negative, got {n_tasks}")
    return root_seed_sequence(seed_or_rng).spawn(n_tasks)
