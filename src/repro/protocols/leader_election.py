"""Leader election protocols.

The unordered-setting extension of §4 starts from "leader election between all
agents of the same color (using the asymmetry of interactions)".  Two
protocols are provided:

* :class:`LeaderElectionProtocol` — the classical two-state global leader
  election: every agent starts as a leader; when two leaders meet the
  responder is demoted.  Eventually exactly one leader remains (under weak
  fairness), and the count can never reach zero.
* :class:`PerColorLeaderElection` — the per-color variant the ordering
  protocol builds on: demotion only happens between two leaders *of the same
  color*, so eventually each color retains exactly one leader.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from repro.protocols.base import PopulationProtocol, TransitionResult


class LeaderState(NamedTuple):
    """A single bit: leader or follower."""

    leader: bool

    def __str__(self) -> str:
        return "L" if self.leader else "f"


class LeaderElectionProtocol(PopulationProtocol[LeaderState]):
    """Two-state global leader election (all agents start as leaders)."""

    name = "leader-election"

    def compile_signature(self):
        """Pure function of ``(class, k)``: compiled tables shared across instances."""
        return (type(self), self.num_colors)

    def __init__(self, num_colors: int = 1) -> None:
        super().__init__(num_colors)

    def states(self) -> Iterator[LeaderState]:
        yield LeaderState(True)
        yield LeaderState(False)

    def initial_state(self, color: int) -> LeaderState:
        return LeaderState(True)

    def output(self, state: LeaderState) -> int:
        """1 when the agent believes it is the leader, 0 otherwise."""
        return int(state.leader)

    def transition(
        self, initiator: LeaderState, responder: LeaderState
    ) -> TransitionResult[LeaderState]:
        if initiator.leader and responder.leader:
            return TransitionResult(initiator, LeaderState(False))
        return TransitionResult(initiator, responder)

    def is_symmetric(self) -> bool:
        """Leader election inherently uses the initiator/responder asymmetry."""
        return False


class ColorLeaderState(NamedTuple):
    """An input color plus the leader bit."""

    color: int
    leader: bool

    def __str__(self) -> str:
        return f"{'L' if self.leader else 'f'}{self.color}"


class PerColorLeaderElection(PopulationProtocol[ColorLeaderState]):
    """Leader election run independently within each color class (``2k`` states)."""

    name = "per-color-leader-election"

    def compile_signature(self):
        """Pure function of ``(class, k)``: compiled tables shared across instances."""
        return (type(self), self.num_colors)

    def states(self) -> Iterator[ColorLeaderState]:
        for color in range(self.num_colors):
            yield ColorLeaderState(color, True)
            yield ColorLeaderState(color, False)

    def initial_state(self, color: int) -> ColorLeaderState:
        self.validate_color(color)
        return ColorLeaderState(color, True)

    def output(self, state: ColorLeaderState) -> int:
        """The agent's color (leadership is internal bookkeeping)."""
        return state.color

    def transition(
        self, initiator: ColorLeaderState, responder: ColorLeaderState
    ) -> TransitionResult[ColorLeaderState]:
        if (
            initiator.leader
            and responder.leader
            and initiator.color == responder.color
        ):
            return TransitionResult(initiator, ColorLeaderState(responder.color, False))
        return TransitionResult(initiator, responder)

    def is_symmetric(self) -> bool:
        return False
