"""The compiled StableCircles tables agree with the decoded-state criterion.

``StableCircles.is_converged_counts`` answers from the present codes through
the per-protocol ``stable_circles_tables`` (a symmetric exchange bitmask, the
output and the diagonal color per code), and ``is_converged_rows`` answers a
whole replicate count matrix in numpy.  Both must agree with
``_is_converged_support``, which decodes the states and calls
``should_exchange`` pair by pair.

k=2 is checked over every support subset.  At k=3 (18 reachable states) the
checked subsets are every subset whose outputs agree — the only subsets on
which the verdict can be True — plus every subset of at most three codes,
which covers the disagreeing-output rejections.  Larger closures are sampled.
"""

import random
from itertools import combinations

import pytest

from repro.compile import compile_protocol
from repro.core.circles import CirclesProtocol, CirclesVariant, ExchangeRule, OutputRule
from repro.protocols.circles_ties import TieReportCircles
from repro.protocols.circles_unordered import UnorderedCirclesProtocol
from repro.simulation.convergence import StableCircles, stable_circles_tables

np = pytest.importorskip("numpy")

CRITERION = StableCircles()


def _counts(compiled, codes, rng=None):
    counts = [0] * compiled.num_states
    for code in codes:
        counts[code] = rng.randint(1, 3) if rng is not None else 1
    return counts


def _assert_agrees(protocol, compiled, subsets, rng=None):
    subsets = list(subsets)
    matrix = np.array([_counts(compiled, codes, rng) for codes in subsets], dtype=np.int64)
    rows = CRITERION.is_converged_rows(protocol, compiled, matrix).tolist()
    positives = 0
    for codes, counts, row in zip(subsets, matrix.tolist(), rows):
        expected = CRITERION._is_converged_support(
            protocol, [compiled.decode(code) for code in codes]
        )
        assert CRITERION.is_converged_counts(protocol, compiled, counts) is expected, codes
        assert row is expected, codes
        positives += expected
    return positives


def _agreeing_subsets(compiled):
    by_output: dict[int, list[int]] = {}
    for code, state in enumerate(compiled.states):
        by_output.setdefault(state.out, []).append(code)
    for codes in by_output.values():
        for size in range(1, len(codes) + 1):
            yield from combinations(codes, size)


def test_every_support_subset_k2():
    protocol = CirclesProtocol(2)
    compiled = compile_protocol(protocol)
    d = compiled.num_states
    subsets = [
        tuple(code for code in range(d) if mask >> code & 1) for mask in range(1 << d)
    ]
    assert _assert_agrees(protocol, compiled, subsets) > 0


def test_every_relevant_support_subset_k3():
    protocol = CirclesProtocol(3)
    compiled = compile_protocol(protocol)
    small = (
        codes
        for size in range(0, 4)
        for codes in combinations(range(compiled.num_states), size)
    )
    assert _assert_agrees(protocol, compiled, small) > 0
    assert _assert_agrees(protocol, compiled, _agreeing_subsets(compiled)) > 0


@pytest.mark.parametrize(
    "protocol",
    [
        CirclesProtocol(4),
        CirclesProtocol(3, CirclesVariant(ExchangeRule.SUM_WEIGHT, OutputRule.EPIDEMIC)),
        CirclesProtocol(4, CirclesVariant(exchange_rule=ExchangeRule.SUM_WEIGHT)),
    ],
    ids=["k4", "ablation-k3", "sum-weight-k4"],
)
def test_random_support_subsets(protocol):
    compiled = compile_protocol(protocol)
    rng = random.Random(protocol.num_colors)
    subsets = [
        tuple(rng.sample(range(compiled.num_states), rng.randint(1, 6))) for _ in range(300)
    ]
    # Random subsets almost never agree on an output, so half the sample is
    # drawn inside one output class, where the verdict can go either way.
    by_output: dict[int, list[int]] = {}
    for code, state in enumerate(compiled.states):
        by_output.setdefault(state.out, []).append(code)
    for _ in range(300):
        pool = by_output[rng.randrange(protocol.num_colors)]
        subsets.append(tuple(rng.sample(pool, rng.randint(1, len(pool)))))
    assert _assert_agrees(protocol, compiled, subsets, rng) > 0


@pytest.mark.parametrize("protocol", [TieReportCircles(2), UnorderedCirclesProtocol(2)])
def test_circles_shaped_protocols_are_rejected_like_the_reference(protocol):
    compiled = compile_protocol(protocol)
    counts = [1] * compiled.num_states
    with pytest.raises(TypeError):
        CRITERION._is_converged_support(protocol, list(compiled.states))
    with pytest.raises(TypeError):
        CRITERION.is_converged_counts(protocol, compiled, counts)
    with pytest.raises(TypeError):
        CRITERION.is_converged_rows(protocol, compiled, np.array([counts]))


def test_tables_are_built_once_per_compiled_protocol():
    compiled = compile_protocol(CirclesProtocol(3))
    assert stable_circles_tables(compiled) is stable_circles_tables(compiled)
    unstable, _, _ = stable_circles_tables(compiled)
    for p, row in enumerate(unstable):
        for q in range(compiled.num_states):
            assert (row >> q & 1) == (unstable[q] >> p & 1)
