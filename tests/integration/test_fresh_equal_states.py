"""A δ that returns fresh objects equal to its inputs changes nothing.

Whether an interaction changed anything is read off the states δ returns,
by value: every engine must count such an interaction as unchanged, whatever
the identity of the returned objects.
"""

import pytest

from repro.chemistry.gillespie import simulate_crn
from repro.exact import ExactMarkovEngine
from repro.protocols.base import PopulationProtocol, TransitionResult
from repro.simulation.batch_engine import NUMPY_BURST_THRESHOLD, BatchConfigurationSimulation
from repro.simulation.convergence import SilentConfiguration
from repro.simulation.engine import AgentSimulation
from repro.simulation.observers import CallbackObserver
from repro.simulation.vector_engine import VectorReplicateSimulation
from repro.utils.multiset import Multiset

COLORS = [0, 0, 0, 1, 1, 2]
BUDGET = 3_000


class Token:
    """A state compared and hashed by value, so copies equal the original."""

    __slots__ = ("color",)

    def __init__(self, color: int) -> None:
        self.color = color

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Token) and other.color == self.color

    def __hash__(self) -> int:
        return hash(("token", self.color))

    def __repr__(self) -> str:
        return f"Token({self.color})"


class FreshCopies(PopulationProtocol[Token]):
    """δ(a, b) = (copy of a, copy of b): new objects, the same states."""

    name = "fresh-copies"

    def compile_signature(self):
        return (type(self), self.num_colors)

    def states(self):
        return [Token(color) for color in range(self.num_colors)]

    def initial_state(self, color: int) -> Token:
        self.validate_color(color)
        return Token(color)

    def output(self, state: Token) -> int:
        return state.color

    def transition(self, initiator: Token, responder: Token) -> TransitionResult[Token]:
        return TransitionResult(Token(initiator.color), Token(responder.color))


PROTOCOL = FreshCopies(3)


def _changed_deltas(simulation) -> list:
    seen = []
    simulation.add_observer(CallbackObserver(lambda *delta: seen.append(delta)))
    return seen


def test_delta_returns_new_objects():
    state = Token(1)
    result = PROTOCOL.transition(state, state)
    assert result.initiator is not state and result.responder is not state
    assert result.as_pair() == (state, state)


def test_agent_engine():
    simulation = AgentSimulation.from_colors(PROTOCOL, COLORS, seed=1)
    initial = simulation.states()
    seen = _changed_deltas(simulation)
    simulation.run(BUDGET)
    assert simulation.steps_taken == BUDGET
    assert simulation.interactions_changed == 0
    assert seen == []
    # Unchanged interactions write nothing back: every agent keeps its object.
    assert all(after is before for after, before in zip(simulation.states(), initial))


@pytest.mark.parametrize("uncompiled", [False, True], ids=["compiled", "interned"])
def test_batch_engine(uncompiled, request):
    if uncompiled:
        request.getfixturevalue("force_uncompiled")
    simulation = BatchConfigurationSimulation.from_colors(PROTOCOL, COLORS, seed=2)
    assert (simulation.compiled_protocol is None) == uncompiled
    seen = _changed_deltas(simulation)
    simulation.run(BUDGET)
    assert simulation.steps_taken == BUDGET
    assert simulation.interactions_changed == 0
    assert seen == []
    assert simulation.configuration() == Multiset(Token(c) for c in COLORS)


def test_vector_group_on_the_position_kernel():
    pytest.importorskip("numpy")
    colors = [index % 3 for index in range(NUMPY_BURST_THRESHOLD)]
    group = VectorReplicateSimulation.replicate_group_from_colors(PROTOCOL, colors, [3, 4])
    assert group._kernel is not None
    outcomes = group.run(BUDGET)
    assert [outcome.steps for outcome in outcomes] == [BUDGET, BUDGET]
    assert [outcome.interactions_changed for outcome in outcomes] == [0, 0]


def test_exact_chain_is_silent_at_once():
    engine = ExactMarkovEngine.from_colors(PROTOCOL, COLORS)
    assert engine.run(0, criterion=SilentConfiguration())
    assert engine.interactions_changed == 0
    assert engine.steps_taken == 0


def test_gillespie_fires_no_reaction():
    result = simulate_crn(PROTOCOL, {Token(0): 3, Token(1): 2, Token(2): 1}, seed=5)
    assert result.reactions_fired == 0
    assert result.exhausted
