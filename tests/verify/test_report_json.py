"""ProtocolReport's JSON round trip must be lossless, and the CLI must
exit non-zero exactly when ERROR diagnostics are present."""

import json

import pytest

import repro  # noqa: F401  (populates the default protocol registry)
from repro.protocols.registry import DEFAULT_REGISTRY
from repro.verify.lint import Diagnostic, Severity
from repro.verify.protolint import main as protolint_main
from repro.verify.report import ProtocolReport, summarize
from repro.verify.verifier import canonical_num_colors, verify_protocol


@pytest.fixture(scope="module")
def circles_report():
    return verify_protocol(DEFAULT_REGISTRY.create("circles", 2), name="circles")


def test_round_trip_through_json_is_lossless(circles_report):
    payload = json.loads(json.dumps(circles_report.to_dict()))
    restored = ProtocolReport.from_dict(payload)
    assert restored == circles_report
    assert restored.to_dict() == circles_report.to_dict()


def test_report_payload_is_json_safe(circles_report):
    def no_floats(value):
        assert not isinstance(value, float)
        if isinstance(value, dict):
            for key, inner in value.items():
                assert isinstance(key, str)
                no_floats(inner)
        elif isinstance(value, (list, tuple)):
            for inner in value:
                no_floats(inner)

    no_floats(circles_report.to_dict())


def test_severity_ordering_and_max(circles_report):
    assert Severity.INFO < Severity.WARNING < Severity.ERROR
    worst = circles_report.max_severity()
    assert worst is Severity.INFO
    assert not circles_report.has_errors()
    empty = ProtocolReport(name="x", num_colors=1, compiled=False)
    assert empty.max_severity() is None


def test_diagnostic_round_trip():
    diagnostic = Diagnostic(
        Severity.WARNING, "some-code", "a message", {"count": 3}
    )
    assert Diagnostic.from_dict(diagnostic.to_dict()) == diagnostic


def test_summarize_mentions_the_headline_facts(circles_report):
    line = summarize(circles_report)
    assert "circles" in line
    assert "always-correct=True" in line


def test_cli_clean_registry_exits_zero(capsys):
    assert protolint_main(["circles"]) == 0
    out = capsys.readouterr().out
    assert "circles_k2" in out and "circles_k3" in out


def test_cli_json_output_parses(capsys):
    assert protolint_main(["--json", "circles"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"circles_k2", "circles_k3"}
    assert payload["circles_k2"]["silence_certified"] is False
    assert payload["circles_k2"]["certified_invariants"]["population-size"] is True


def test_cli_out_writes_certificates(tmp_path, capsys):
    assert protolint_main(["--out", str(tmp_path), "circles"]) == 0
    written = sorted(path.name for path in tmp_path.glob("*.json"))
    assert written == ["circles-tie-report_k2.json", "circles_k2.json", "circles_k3.json"] or (
        written == ["circles_k2.json", "circles_k3.json"]
    )
    payload = json.loads((tmp_path / "circles_k2.json").read_text())
    assert payload["case"] == "circles_k2"
    assert "regenerate" in payload


def _make_broken_protocol(name, *, nondeterministic):
    """A two-state protocol without a compile signature (a WARNING); with
    ``nondeterministic`` its δ also alternates between calls (an ERROR)."""
    from collections.abc import Iterator
    from typing import NamedTuple

    from repro.protocols.base import PopulationProtocol, TransitionResult

    class Bit(NamedTuple):
        value: int

    class Broken(PopulationProtocol):
        def __init__(self, num_colors: int) -> None:
            super().__init__(num_colors)
            self._toggle: dict = {}

        def states(self) -> Iterator:
            yield Bit(0)
            yield Bit(1)

        def initial_state(self, color: int):
            self.validate_color(color)
            return Bit(color % 2)

        def output(self, state) -> int:
            return state.value

        def transition(self, initiator, responder) -> TransitionResult:
            key = (initiator, responder)
            flipped = self._toggle[key] = not self._toggle.get(key, False)
            if nondeterministic and flipped and initiator.value != responder.value:
                return TransitionResult(Bit(0), Bit(0))
            return TransitionResult(initiator, responder)

    Broken.name = name
    return Broken


def _codes(protocol) -> dict[str, Severity]:
    return {d.code: d.severity for d in verify_protocol(protocol).diagnostics}


def test_cli_fails_on_error_diagnostics(capsys):
    """Register a broken protocol, lint it, and expect a non-zero exit."""
    name = "lint-scaffold-broken"
    factory = _make_broken_protocol(name, nondeterministic=True)
    assert _codes(factory(2))["nondeterministic-delta"] is Severity.ERROR
    DEFAULT_REGISTRY.register(name, factory)
    try:
        assert protolint_main([name]) == 1
        err = capsys.readouterr().err
        assert "protolint" in err
        assert protolint_main([name, "--fail-on", "never"]) == 0
    finally:
        del DEFAULT_REGISTRY._factories[name]


def test_fail_on_warning_tightens_the_threshold(capsys):
    name = "lint-scaffold-warning"
    factory = _make_broken_protocol(name, nondeterministic=False)
    codes = _codes(factory(2))
    assert codes["missing-compile-signature"] is Severity.WARNING
    assert Severity.ERROR not in codes.values()
    DEFAULT_REGISTRY.register(name, factory)
    try:
        assert protolint_main([name]) == 0
        assert protolint_main([name, "--fail-on", "warning"]) == 1
    finally:
        del DEFAULT_REGISTRY._factories[name]


def test_canonical_num_colors_matches_the_conftest_policy():
    assert canonical_num_colors("circles") == 2
    assert canonical_num_colors("exact-majority") == 2
    with pytest.raises(KeyError):
        canonical_num_colors("definitely-not-registered")
