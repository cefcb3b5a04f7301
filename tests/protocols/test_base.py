"""Tests for the abstract protocol interface and TransitionResult."""

import pytest

from repro.core.circles import CirclesProtocol
from repro.protocols.base import PopulationProtocol, TransitionResult


class TestTransitionResult:
    def test_as_pair(self):
        result = TransitionResult("a", "b")
        assert result.as_pair() == ("a", "b")

    def test_is_frozen(self):
        result = TransitionResult(1, 2)
        with pytest.raises(AttributeError):
            result.initiator = 3  # type: ignore[misc]


class _CountingProtocol(PopulationProtocol[int]):
    """A trivial protocol used to exercise the base-class helpers."""

    name = "counting"

    def states(self):
        return range(self.num_colors)

    def initial_state(self, color: int) -> int:
        self.validate_color(color)
        return color

    def output(self, state: int) -> int:
        return state

    def transition(self, initiator: int, responder: int) -> TransitionResult[int]:
        # The responder adopts the larger value: a simple max-computing protocol.
        new_responder = max(initiator, responder)
        return TransitionResult(initiator, new_responder)


class TestBaseHelpers:
    def test_rejects_non_positive_k(self):
        with pytest.raises(ValueError):
            _CountingProtocol(0)

    def test_state_count_default_enumerates(self):
        assert _CountingProtocol(7).state_count() == 7

    def test_validate_color(self):
        protocol = _CountingProtocol(3)
        protocol.validate_color(2)
        with pytest.raises(ValueError):
            protocol.validate_color(3)

    def test_describe(self):
        info = _CountingProtocol(3).describe()
        assert info == {"name": "counting", "num_colors": 3, "state_count": 3}

    def test_is_symmetric_default_detects_asymmetry(self):
        # The max protocol changes only the responder, so it is not symmetric.
        assert not _CountingProtocol(3).is_symmetric()

    def test_repr_contains_k(self):
        assert "k=3" in repr(_CountingProtocol(3))
        assert "k=4" in repr(CirclesProtocol(4))
