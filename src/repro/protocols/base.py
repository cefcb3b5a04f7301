"""The abstract population-protocol interface.

A population protocol (Angluin et al. 2006, and §1 of the paper) is a tuple
``(Q, I, O, δ)``: a finite state set ``Q``, an input map ``I`` from input
colors to states, an output map ``O`` from states to colors, and a transition
function ``δ : Q × Q → Q × Q``.  Two interacting agents both learn the other's
state and update their own according to ``δ``; agents are anonymous, so the
whole population is described by the multiset of states (Definition 1.1).

Every protocol in this library implements :class:`PopulationProtocol`.  The
interface is deliberately *pure*: ``transition`` returns the new pair of
states and never mutates anything, which is what lets the same protocol run
under the agent-level engine, the configuration-level engine, the exhaustive
model checker and the Gillespie SSA without adaptation.
"""

from __future__ import annotations

import abc
from collections.abc import Hashable, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generic, TypeVar

if TYPE_CHECKING:
    from repro.simulation.convergence import ConvergenceCriterion

State = TypeVar("State", bound=Hashable)


@dataclass(frozen=True)
class TransitionResult(Generic[State]):
    """The outcome of one interaction: the two new states, nothing else.

    Whether an interaction changed anything is read off the states by every
    consumer (``result.as_pair() != (initiator, responder)``), so a protocol
    states each fact once.

    Attributes:
        initiator: the new state of the interaction's initiator (first agent).
        responder: the new state of the responder (second agent).
    """

    initiator: State
    responder: State

    def as_pair(self) -> tuple[State, State]:
        """The ``(initiator, responder)`` state pair."""
        return (self.initiator, self.responder)


class PopulationProtocol(abc.ABC, Generic[State]):
    """Abstract base class for population protocols.

    Subclasses must provide the number of input colors ``k`` (via the
    constructor or a property), the state set, and the four protocol maps.
    States must be hashable and immutable (tuples, frozen dataclasses or
    NamedTuples); the engines rely on this to store configurations as
    multisets.
    """

    #: Human-readable protocol name used by the registry and reports.
    name: str = "population-protocol"

    def __init__(self, num_colors: int) -> None:
        if num_colors < 1:
            raise ValueError(f"a protocol needs at least one input color, got {num_colors}")
        self._num_colors = num_colors

    @property
    def num_colors(self) -> int:
        """The number ``k`` of input colors."""
        return self._num_colors

    # -- protocol maps -------------------------------------------------------

    @abc.abstractmethod
    def states(self) -> Iterable[State]:
        """Enumerate the protocol's declared state set ``Q``.

        The declared set may be larger than the reachable set; experiment E1
        reports both.
        """

    @abc.abstractmethod
    def initial_state(self, color: int) -> State:
        """The input map ``I``: the state an agent with input ``color`` starts in."""

    @abc.abstractmethod
    def output(self, state: State) -> int:
        """The output map ``O``: the color an agent in ``state`` currently reports."""

    @abc.abstractmethod
    def transition(self, initiator: State, responder: State) -> TransitionResult[State]:
        """The transition function ``δ`` applied to one ordered interaction.

        Returns the two new states only.  An interaction counts as changed
        exactly when they differ from ``(initiator, responder)``; equal
        fresh objects count as unchanged.
        """

    # -- run defaults ------------------------------------------------------------

    def default_criterion(self) -> ConvergenceCriterion:
        """The stopping criterion every run path uses when none is named:
        output consensus unless the protocol knows better."""
        from repro.simulation.convergence import OutputConsensus

        return OutputConsensus()

    # -- derived helpers -------------------------------------------------------

    def compile_signature(self) -> Hashable | None:
        """A value identity for compiled-table caching (:mod:`repro.compile`).

        Two instances reporting the same non-``None`` signature promise to
        implement *identical* protocol maps, so compiled transition tables
        can be shared across them — which is what lets registry-driven sweeps
        (a fresh protocol instance per run) compile once per process instead
        of once per run.  The default is ``None``: tables are cached per
        instance only.  Protocols that are pure functions of their
        constructor parameters override this, always including ``type(self)``
        in the tuple so subclasses never collide with their parents.
        """
        return None

    def state_count(self) -> int:
        """The size of the declared state set (state complexity)."""
        return sum(1 for _ in self.states())

    def validate_color(self, color: int) -> None:
        """Raise ``ValueError`` when ``color`` is not a valid input color."""
        if not 0 <= color < self._num_colors:
            raise ValueError(
                f"color {color} out of range for a protocol with {self._num_colors} colors"
            )

    def is_symmetric(self) -> bool:
        """Whether ``δ(a, b)`` and ``δ(b, a)`` always mirror each other.

        Symmetric protocols do not exploit the initiator/responder asymmetry.
        The default implementation checks the declared state set exhaustively
        and is therefore only suitable for small state spaces; protocols that
        know their own symmetry can override it.
        """
        all_states = list(self.states())
        for a in all_states:
            for b in all_states:
                forward = self.transition(a, b)
                backward = self.transition(b, a)
                if (forward.initiator, forward.responder) != (
                    backward.responder,
                    backward.initiator,
                ):
                    return False
        return True

    def describe(self) -> dict[str, object]:
        """A metadata dictionary used in experiment reports."""
        return {
            "name": self.name,
            "num_colors": self._num_colors,
            "state_count": self.state_count(),
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self._num_colors})"
