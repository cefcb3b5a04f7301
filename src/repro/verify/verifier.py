"""The verifier orchestrator: one protocol in, one :class:`ProtocolReport` out.

``verify_protocol`` runs every static pass over a protocol's compiled
δ-table — conservation-law discovery, candidate-invariant certification
(population size, Lemma 3.3's bra/ket counts), lexicographic ranking
synthesis (Theorem 3.4 as a one-shot certificate), color-symmetry detection,
and the lint passes (determinism, dead transitions, stable-class output
consistency, almost-sure correctness on small probes).
No pass simulates: everything is a statement about the finite transition
table or the exact configuration chain.

``verify_registry`` maps the pass over the protocol registry at each
protocol's canonical color count (plus an extra ``k`` for the circles
family, the paper's protagonist), which is what the ``protolint`` CLI and
the conformance matrix's static column consume.  Reports are cached per
``compile_signature()`` so the test matrix verifies each protocol once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.compile.compiled import DEFAULT_MAX_COMPILED_STATES, compile_protocol
from repro.compile.state_space import StateSpaceCapExceeded
from repro.core.greedy_sets import predicted_majority
from repro.core.invariants import braket_count_vectors
from repro.exact.chain import ChainTooLarge, ConfigurationChain
from repro.protocols.base import PopulationProtocol
from repro.protocols.registry import DEFAULT_REGISTRY
from repro.verify.conservation import (
    certify_candidates,
    check_conservation,
    discover_conservation_laws,
)
from repro.verify.effects import transition_effects
from repro.verify.lint import (
    Diagnostic,
    Severity,
    enabled_pairs,
    lint_compile_signature,
    lint_dead_transitions,
    lint_determinism,
    lint_stable_classes,
    stable_class_summary,
)
from repro.verify.ranking import (
    check_ranking,
    default_candidates,
    residual_preserves_brakets,
    synthesize_ranking,
)
from repro.verify.report import ProtocolReport
from repro.verify.symmetry import DEFAULT_MAX_SYMMETRY_COLORS, color_symmetries
from repro.workloads.registry import DEFAULT_WORKLOADS


@dataclass(frozen=True)
class VerifyOptions:
    """Caps and probe sizes; the defaults keep a registry pass interactive."""

    max_states: int = DEFAULT_MAX_COMPILED_STATES
    max_chain_configurations: int = 30_000
    max_symmetry_colors: int = DEFAULT_MAX_SYMMETRY_COLORS
    probe_agents: int = 5
    include_registry_workloads: bool = True


#: (compile_signature, options) -> report; mirrors the compile cache so the
#: conformance matrix and the golden tests verify each protocol once.
_REPORT_CACHE: dict[tuple, ProtocolReport] = {}


def majority_probe(num_colors: int, num_agents: int = 5) -> tuple[int, ...]:
    """A deterministic unique-majority input: three zeros plus a minority."""
    if num_colors <= 1:
        return (0,) * num_agents
    minority = [1 + (i % (num_colors - 1)) for i in range(num_agents - 3)]
    return tuple([0] * (num_agents - len(minority)) + minority)


def tied_probe(num_colors: int) -> tuple[int, ...] | None:
    """A deterministic two-way tie, or None for single-color protocols."""
    if num_colors <= 1:
        return None
    return (0, 0, 1, 1)


def _probe_colors(
    protocol: PopulationProtocol, options: VerifyOptions
) -> list[tuple[str, tuple[int, ...]]]:
    """Named deterministic probe inputs, majority probe first."""
    probes = [
        ("majority", majority_probe(protocol.num_colors, options.probe_agents))
    ]
    tied = tied_probe(protocol.num_colors)
    if tied is not None:
        probes.append(("tied", tied))
    if options.include_registry_workloads:
        for workload in DEFAULT_WORKLOADS.names():
            try:
                colors = DEFAULT_WORKLOADS.generate(
                    workload,
                    options.probe_agents,
                    protocol.num_colors,
                    seed=0,
                )
            except (ValueError, KeyError):
                continue  # workload constraints (e.g. needs more colors)
            probes.append((f"workload:{workload}", tuple(colors)))
    deduped: list[tuple[str, tuple[int, ...]]] = []
    seen: set[tuple[int, ...]] = set()
    for name, colors in probes:
        if colors in seen:
            continue
        seen.add(colors)
        deduped.append((name, colors))
    return deduped


def _uncompiled_report(
    protocol: PopulationProtocol, name: str, reason: str
) -> ProtocolReport:
    return ProtocolReport(
        name=name,
        num_colors=protocol.num_colors,
        compiled=False,
        diagnostics=[
            Diagnostic(
                Severity.INFO,
                "not-verified-state-cap",
                f"protocol {name!r} was not verified: {reason}",
            )
        ],
    )


def verify_protocol(
    protocol: PopulationProtocol,
    *,
    name: str | None = None,
    options: VerifyOptions | None = None,
) -> ProtocolReport:
    """Run every static pass over one protocol and assemble the report."""
    options = options or VerifyOptions()
    report_name = name or protocol.name
    signature = protocol.compile_signature()
    cache_key = None
    if signature is not None:
        cache_key = (signature, options, report_name)
        cached = _REPORT_CACHE.get(cache_key)
        if cached is not None:
            return cached

    try:
        compiled = compile_protocol(protocol, max_states=options.max_states)
    except StateSpaceCapExceeded as exc:
        return _uncompiled_report(protocol, report_name, str(exc))

    diagnostics: list[Diagnostic] = []
    diagnostics.extend(lint_compile_signature(protocol))
    # Determinism first: its re-evaluation must be the first call after the
    # table's, or a δ that alternates between calls could match it again.
    diagnostics.extend(lint_determinism(protocol, compiled))

    effects = transition_effects(compiled)
    num_changed_pairs = sum(len(effect.pairs) for effect in effects)

    laws = discover_conservation_laws(effects, compiled.num_states)
    if not check_conservation(laws, effects):  # pragma: no cover - solver bug guard
        diagnostics.append(
            Diagnostic(
                Severity.ERROR,
                "conservation-check-failed",
                "a discovered law does not annihilate every effect vector",
            )
        )

    candidates: dict[str, tuple[int, ...]] = {
        "population-size": (1,) * compiled.num_states
    }
    states = compiled.states
    if states and all(hasattr(state, "braket") for state in states):
        candidates.update(
            braket_count_vectors(states, protocol.num_colors)
        )
    certified = certify_candidates(candidates, effects)
    braket_names = [name_ for name_ in certified if name_ != "population-size"]
    braket_certified = (
        all(certified[name_] for name_ in braket_names) if braket_names else None
    )

    ranking = synthesize_ranking(effects, default_candidates(compiled))
    if not check_ranking(effects, ranking):  # pragma: no cover - synthesis bug guard
        diagnostics.append(
            Diagnostic(
                Severity.ERROR,
                "ranking-check-failed",
                "the synthesized ranking certificate does not re-verify",
            )
        )
    residual_pairs = sum(
        len(effects[index].pairs) for index in ranking.residual_indices
    )
    preserves = residual_preserves_brakets(compiled, effects, ranking)
    if not ranking.is_silence_certificate:
        diagnostics.append(
            Diagnostic(
                Severity.INFO,
                "no-silence-certificate",
                f"{residual_pairs} changed pair(s) admit unbounded adversarial "
                "schedules (no lexicographic ranking covers them)",
                {"residual_pairs": residual_pairs},
            )
        )

    symmetry = color_symmetries(
        compiled, max_colors=options.max_symmetry_colors
    )

    probes = _probe_colors(protocol, options)
    probe_summaries: list[dict] = []
    majority_verdicts: list[bool] = []
    enabled: set[tuple[int, int]] | None = set()
    for probe_name, colors in probes:
        try:
            chain = ConfigurationChain.from_colors(
                protocol,
                colors,
                arithmetic="float",
                max_configurations=options.max_chain_configurations,
            )
        except ChainTooLarge:
            enabled = None
            probe_summaries.append(
                {
                    "probe": probe_name,
                    "colors": list(colors),
                    "skipped": "chain too large",
                }
            )
            continue
        if enabled is not None:
            enabled |= enabled_pairs(compiled, chain)
        try:
            majority = predicted_majority(colors)
        except ValueError:
            majority = None
        summary = {"probe": probe_name, "colors": list(colors)}
        summary.update(stable_class_summary(chain, majority))
        probe_summaries.append(summary)
        diagnostics.extend(lint_stable_classes(probe_name, summary))
        if summary["always_correct"] is not None:
            majority_verdicts.append(bool(summary["always_correct"]))
    diagnostics.extend(lint_dead_transitions(compiled, enabled, len(probes)))

    always_correct = all(majority_verdicts) if majority_verdicts else None
    if always_correct is False:
        diagnostics.append(
            Diagnostic(
                Severity.INFO,
                "majority-not-certified",
                "some reachable stable class does not output the relative "
                "majority on a probed input; no always-correct certificate",
            )
        )

    report = ProtocolReport(
        name=report_name,
        num_colors=protocol.num_colors,
        compiled=True,
        state_names=tuple(str(state) for state in states),
        num_changed_pairs=num_changed_pairs,
        num_effects=len(effects),
        conservation=tuple(laws),
        certified_invariants={
            **certified,
            "braket-multiset (Lemma 3.3)": braket_certified,
        },
        ranking=ranking,
        silence_certified=ranking.is_silence_certificate,
        residual_transitions=residual_pairs,
        residual_preserves_brakets=preserves,
        symmetry=symmetry,
        probes=probe_summaries,
        always_correct=always_correct,
        diagnostics=diagnostics,
    )
    if cache_key is not None:
        _REPORT_CACHE[cache_key] = report
    return report


# -- registry-wide entry points ---------------------------------------------


def canonical_num_colors(protocol_name: str) -> int:
    """The smallest color count a registry protocol accepts (2, then 3, 1)."""
    for num_colors in (2, 3, 1):
        try:
            DEFAULT_REGISTRY.create(protocol_name, num_colors)
        except ValueError:
            continue
        return num_colors
    raise ValueError(f"no supported color count for protocol {protocol_name!r}")


#: Extra (name, k) cases beyond each protocol's canonical k: the circles
#: family is the paper's protagonist, so its certificates are also pinned at
#: k=3 where the weight structure is non-degenerate.
EXTRA_CASES: tuple[tuple[str, int], ...] = (("circles", 3),)


def registry_cases(
    names: Sequence[str] | None = None,
) -> list[tuple[str, str, int]]:
    """``(case id, protocol name, k)`` for a registry verification run."""
    selected = list(names) if names is not None else DEFAULT_REGISTRY.names()
    cases: list[tuple[str, str, int]] = []
    for protocol_name in selected:
        k = canonical_num_colors(protocol_name)
        cases.append((f"{protocol_name}_k{k}", protocol_name, k))
    for protocol_name, k in EXTRA_CASES:
        if protocol_name in selected:
            case_id = f"{protocol_name}_k{k}"
            if all(existing != case_id for existing, _, _ in cases):
                cases.append((case_id, protocol_name, k))
    return sorted(cases)


def verify_registry(
    names: Sequence[str] | None = None,
    options: VerifyOptions | None = None,
) -> dict[str, ProtocolReport]:
    """Verify every registered protocol (or a subset), keyed by case id."""
    reports: dict[str, ProtocolReport] = {}
    for case_id, protocol_name, k in registry_cases(names):
        protocol = DEFAULT_REGISTRY.create(protocol_name, k)
        reports[case_id] = verify_protocol(
            protocol, name=protocol_name, options=options
        )
    return reports
