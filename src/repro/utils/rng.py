"""Deterministic random-number helpers.

All stochastic components of the library (random schedulers, workload
generators, the Gillespie simulator) accept either an explicit
``random.Random`` instance or a seed.  Centralizing the conversion here keeps
experiments reproducible: the same seed always yields the same schedule, the
same inputs and the same trajectories.
"""

from __future__ import annotations

import random

RngLike = random.Random | int | None


def make_rng(seed_or_rng: RngLike = None) -> random.Random:
    """Return a ``random.Random``: pass through instances, seed integers, or None.

    ``None`` produces an unseeded generator (non-reproducible); tests and
    benchmarks always pass explicit seeds.
    """
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def spawn_rngs(seed: int, count: int) -> list[random.Random]:
    """Derive ``count`` independent generators from a master seed.

    Each child is seeded from the master stream so replicate ``i`` is stable
    even if the number of replicates changes the code path elsewhere.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    master = random.Random(seed)
    return [random.Random(master.getrandbits(64)) for _ in range(count)]


def choose_distinct_pair(rng: random.Random, n: int) -> tuple[int, int]:
    """Pick an ordered pair of distinct agent indices uniformly at random."""
    if n < 2:
        raise ValueError("need at least two agents to form an interaction pair")
    first = rng.randrange(n)
    second = rng.randrange(n - 1)
    if second >= first:
        second += 1
    return first, second
