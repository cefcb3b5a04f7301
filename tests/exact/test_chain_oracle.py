"""The count-tuple chain against a straightforward frozenset BFS, row for row.

:func:`reference_chain.reference_chain` walks decoded configurations with
``Multiset`` copies and ``protocol.transition``; the chain under test walks
count tuples over compiled (or chain-numbered) codes.  In ``Fraction`` mode
both must produce the same configuration set, the same rows under the index
map between them, and the same change probabilities — on the golden inputs,
the tied k=3 input, and seeded random table protocols.  The quotient chain
must equal the plain chain once its orbits are lifted.
"""

import random
from collections.abc import Hashable
from fractions import Fraction

import pytest

import repro  # noqa: F401  (populates the protocol registry)
from reference_chain import reference_chain

from repro.exact import ConfigurationChain, QuotientChain, closed_classes
from repro.exact.golden import GOLDEN_CASES
from repro.protocols.base import PopulationProtocol, TransitionResult
from repro.protocols.registry import get_protocol
from repro.utils.multiset import Multiset

TIED_K3 = ("circles", 3, (0, 0, 1, 1, 2, 2))


class RandomTableProtocol(PopulationProtocol[int]):
    """A seeded random δ over states ``0..d-1``, with self-loops and a sink.

    State ``d - 1`` absorbs: any interaction with it sends both agents there.
    About a quarter of the remaining entries are self-loops (no change).
    Color ``c`` starts in state ``c``; a state outputs itself modulo ``k``.
    """

    name = "random-table"

    def __init__(self, d: int, num_colors: int, seed: int) -> None:
        super().__init__(num_colors)
        rng = random.Random(seed)
        self.d = d
        sink = d - 1
        self.table: dict[tuple[int, int], tuple[int, int]] = {}
        for p in range(d):
            for q in range(d):
                if sink in (p, q):
                    result = (sink, sink)
                elif rng.random() < 0.25:
                    result = (p, q)
                else:
                    result = (rng.randrange(d), rng.randrange(d))
                self.table[p, q] = result

    def states(self):
        return range(self.d)

    def initial_state(self, color: int) -> int:
        return color

    def output(self, state: int) -> int:
        return state % self.num_colors

    def transition(self, initiator: int, responder: int) -> TransitionResult[int]:
        a, b = self.table[initiator, responder]
        return TransitionResult(a, b)

    def compile_signature(self) -> Hashable | None:
        return (type(self), self.d, self.num_colors, tuple(sorted(self.table.items())))


def random_cases(count: int = 24):
    rng = random.Random(2024)
    for seed in range(count):
        d = rng.randint(2, 6)
        k = rng.randint(1, min(d, 3))
        colors = tuple(rng.randrange(k) for _ in range(rng.randint(2, 6)))
        yield pytest.param(RandomTableProtocol(d, k, seed), colors, id=f"seed{seed}-d{d}-k{k}")


def assert_matches_reference(chain: ConfigurationChain, protocol, colors) -> None:
    initial = Multiset(protocol.initial_state(color) for color in colors)
    keys, rows, change = reference_chain(protocol, initial)
    assert set(chain.keys) == set(keys)
    # Discovery order is part of the contract: present states expand in repr order.
    assert chain.keys == keys
    mapping = [chain.index[key] for key in keys]
    for source, row in enumerate(rows):
        target = mapping[source]
        assert chain.rows[target] == {mapping[j]: p for j, p in row.items()}
        assert chain.change_probability[target] == change[source]


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "uncompiled"])
@pytest.mark.parametrize(
    "name,k,colors", [*GOLDEN_CASES, TIED_K3], ids=lambda value: str(value)
)
def test_registry_inputs_match_the_reference(name, k, colors, compiled, request):
    if not compiled:
        request.getfixturevalue("force_uncompiled")
    protocol = get_protocol(name, k)
    chain = ConfigurationChain.from_colors(protocol, colors, arithmetic="exact")
    assert (chain.compiled is not None) == compiled
    assert_matches_reference(chain, protocol, colors)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "uncompiled"])
@pytest.mark.parametrize("protocol,colors", list(random_cases()))
def test_random_tables_match_the_reference(protocol, colors, compiled, request):
    if not compiled:
        request.getfixturevalue("force_uncompiled")
    chain = ConfigurationChain.from_colors(protocol, colors, arithmetic="exact")
    assert (chain.compiled is not None) == compiled
    assert_matches_reference(chain, protocol, colors)


@pytest.mark.parametrize(
    "name,k,colors",
    [("circles", 2, (0, 0, 1, 1)), TIED_K3, ("exact-majority", 2, (0, 0, 1, 1))],
    ids=str,
)
def test_quotient_equals_the_plain_chain_after_lifting(name, k, colors):
    protocol = get_protocol(name, k)
    quotient = QuotientChain.from_colors(protocol, colors, arithmetic="exact")
    plain = ConfigurationChain.from_colors(protocol, colors, arithmetic="exact")
    assert quotient.is_quotiented
    position = {counts: index for index, counts in enumerate(plain.counts)}
    # The orbits partition the plain configurations.
    orbits = [quotient.orbit_keys(index) for index in range(quotient.num_configurations)]
    assert sum(len(orbit) for orbit in orbits) == plain.num_configurations
    assert set().union(*orbits) == set(plain.counts)
    orbit_of = {
        position[member]: index for index, orbit in enumerate(orbits) for member in orbit
    }
    # Strong lumping: each lumped row is the plain row of any orbit member,
    # summed per target orbit.
    for index, orbit in enumerate(orbits):
        for member in orbit:
            source = position[member]
            lumped: dict[int, Fraction] = {}
            for target, probability in plain.rows[source].items():
                lumped[orbit_of[target]] = lumped.get(orbit_of[target], 0) + probability
            assert lumped == quotient.rows[index]
            assert plain.change_probability[source] == quotient.change_probability[index]
    # Lifting the quotient's closed classes gives back the plain closed classes.
    lifted = {
        frozenset(quotient.decode(counts).frozen() for counts in source_class)
        for members in closed_classes(quotient.rows)
        for source_class in quotient.lift_class_counts(members)
    }
    assert lifted == {
        frozenset(plain.keys[member] for member in members)
        for members in closed_classes(plain.rows)
    }
