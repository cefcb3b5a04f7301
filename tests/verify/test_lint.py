"""Lint diagnostics: deliberately broken protocols must be caught, the
registry must stay clean, and every registered protocol must declare a
compile signature."""

from collections.abc import Iterator
from typing import NamedTuple

import pytest

import repro  # noqa: F401  (populates the default protocol registry)
from repro.compile import compile_protocol
from repro.protocols.base import PopulationProtocol, TransitionResult
from repro.protocols.registry import DEFAULT_REGISTRY
from repro.verify.lint import (
    Severity,
    lint_compile_signature,
    lint_determinism,
)
from repro.verify.verifier import canonical_num_colors, verify_protocol

PROTOCOL_NAMES = DEFAULT_REGISTRY.names()


class _Bit(NamedTuple):
    value: int


class _TwoStateBase(PopulationProtocol):
    """A two-state scaffold: subclasses override ``transition`` to be broken."""

    name = "lint-scaffold"

    def states(self) -> Iterator:
        yield _Bit(0)
        yield _Bit(1)

    def initial_state(self, color: int):
        self.validate_color(color)
        return _Bit(color % 2)

    def output(self, state) -> int:
        return state.value


class _Identity(_TwoStateBase):
    """δ is the identity: sound, but without a compile signature."""

    def transition(self, initiator, responder) -> TransitionResult:
        return TransitionResult(initiator, responder)


class _Nondeterministic(_TwoStateBase):
    """Alternates behaviour per pair between calls: δ is not a pure function.

    Consecutive evaluations of the same mixed pair disagree, so the lint's
    re-evaluation is guaranteed to differ from whatever the compiled table
    recorded, regardless of how many times enumeration probed the pair.
    """

    def __init__(self, num_colors: int = 2) -> None:
        super().__init__(num_colors)
        self._toggle: dict = {}

    def transition(self, initiator, responder) -> TransitionResult:
        key = (initiator, responder)
        flipped = self._toggle[key] = not self._toggle.get(key, False)
        if flipped and initiator.value != responder.value:
            return TransitionResult(_Bit(0), _Bit(0))
        return TransitionResult(initiator, responder)


def test_nondeterministic_delta_is_an_error():
    protocol = _Nondeterministic()
    compiled = compile_protocol(protocol)
    diagnostics = lint_determinism(protocol, compiled)
    assert [d.code for d in diagnostics] == ["nondeterministic-delta"]
    assert diagnostics[0].severity is Severity.ERROR


def test_nondeterministic_delta_is_an_error_in_the_full_report():
    """Later passes re-evaluate δ too; they must not hide an alternating δ."""
    report = verify_protocol(_Nondeterministic())
    assert "nondeterministic-delta" in {d.code for d in report.diagnostics}


def test_missing_compile_signature_is_a_warning():
    protocol = _Identity(2)
    diagnostics = lint_compile_signature(protocol)
    assert [d.code for d in diagnostics] == ["missing-compile-signature"]
    assert diagnostics[0].severity is Severity.WARNING
    report = verify_protocol(protocol)
    assert "missing-compile-signature" in {
        d.code for d in report.diagnostics
    }


@pytest.mark.parametrize("protocol_name", PROTOCOL_NAMES)
def test_every_registered_protocol_overrides_compile_signature(protocol_name):
    """The registry-wide guard: per-instance compile caches silently defeat
    registry-driven sweeps, so every builtin must declare a value identity."""
    protocol = DEFAULT_REGISTRY.create(
        protocol_name, canonical_num_colors(protocol_name)
    )
    assert protocol.compile_signature() is not None
    assert lint_compile_signature(protocol) == []


@pytest.mark.parametrize("protocol_name", PROTOCOL_NAMES)
def test_registry_protocols_produce_no_errors(protocol_name):
    protocol = DEFAULT_REGISTRY.create(
        protocol_name, canonical_num_colors(protocol_name)
    )
    report = verify_protocol(protocol, name=protocol_name)
    assert not report.has_errors(), [
        d.to_dict() for d in report.diagnostics if d.severity >= Severity.ERROR
    ]
