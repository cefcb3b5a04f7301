"""Lint diagnostics over compiled protocols.

Each check returns :class:`Diagnostic` values at one of three severities:

* **ERROR** — the protocol violates a soundness contract the engines rely
  on: a non-deterministic ``transition``.  ``protolint`` exits non-zero on
  these.  (Whether a pair changes anything is read off the states δ
  returns, so there is no separate flag to contradict them.)
* **WARNING** — suspicious but not unsound: a stable class whose members
  disagree on outputs, a missing ``compile_signature`` override (per-instance
  compile caches silently defeat registry-driven sweeps).
* **INFO** — observations: transitions never enabled from the probed
  reachable spaces, analyses skipped because a cap was hit, certificates
  that could not be established.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.exact.absorption import closed_classes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.compile.compiled import CompiledProtocol
    from repro.exact.chain import ConfigurationChain
    from repro.protocols.base import PopulationProtocol


class Severity(enum.IntEnum):
    """Diagnostic severity; comparisons follow the obvious order."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name


@dataclass
class Diagnostic:
    """One finding: a severity, a stable machine-readable code, and details."""

    severity: Severity
    code: str
    message: str
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "severity": self.severity.name,
            "code": self.code,
            "message": self.message,
            "details": self.details,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Diagnostic":
        return cls(
            severity=Severity[payload["severity"]],
            code=payload["code"],
            message=payload["message"],
            details=dict(payload.get("details", {})),
        )


def max_severity(diagnostics: Sequence[Diagnostic]) -> Severity | None:
    """The worst severity present, or None for a clean report."""
    if not diagnostics:
        return None
    return max(diagnostic.severity for diagnostic in diagnostics)


# -- table-level checks -----------------------------------------------------


def lint_determinism(
    protocol: "PopulationProtocol", compiled: "CompiledProtocol"
) -> list[Diagnostic]:
    """Re-evaluate ``transition`` on every pair and diff its states against the table."""
    mismatches: list[list[str]] = []
    states = compiled.states
    index = compiled.index
    d = compiled.num_states
    for p in range(d):
        for q in range(d):
            result = protocol.transition(states[p], states[q])
            a = index.get(result.initiator)
            b = index.get(result.responder)
            if (a, b) != compiled.transition_codes(p, q)[:2]:
                mismatches.append([str(states[p]), str(states[q])])
    if not mismatches:
        return []
    return [
        Diagnostic(
            Severity.ERROR,
            "nondeterministic-delta",
            f"transition() disagrees with its own compiled table on "
            f"{len(mismatches)} pair(s); δ must be a pure function",
            {"count": len(mismatches), "examples": mismatches[:5]},
        )
    ]


def lint_compile_signature(protocol: "PopulationProtocol") -> list[Diagnostic]:
    """Flag protocols that never opt into the shared compile cache."""
    if protocol.compile_signature() is not None:
        return []
    return [
        Diagnostic(
            Severity.WARNING,
            "missing-compile-signature",
            f"protocol {protocol.name!r} does not override compile_signature(); "
            "compiled tables are cached per instance instead of per value, so "
            "registry-driven sweeps recompile every run",
        )
    ]


# -- reachability-based checks ----------------------------------------------


def enabled_pairs(
    compiled: "CompiledProtocol", chain: "ConfigurationChain"
) -> set[tuple[int, int]]:
    """Ordered state-code pairs co-realizable in some configuration of a probe chain.

    The chain holds the probe's whole reachable space (a space past the cap
    raises :class:`~repro.exact.chain.ChainTooLarge` instead; the caller
    then skips the lint, since a partial space would under-approximate
    enabledness).
    """
    recode = [compiled.index[state] for state in chain.states]  # probe codes -> ours
    pairs: set[tuple[int, int]] = set()
    for counts in chain.counts:
        present = [(recode[code], count) for code, count in enumerate(counts) if count]
        pairs.update((p, q) for p, count in present for q, _ in present if p != q or count > 1)
    return pairs


def lint_dead_transitions(
    compiled: "CompiledProtocol",
    enabled: set[tuple[int, int]] | None,
    probe_count: int,
) -> list[Diagnostic]:
    """Changed transitions never enabled from any probed reachable space."""
    if enabled is None or probe_count == 0:
        return [
            Diagnostic(
                Severity.INFO,
                "dead-transition-analysis-skipped",
                "reachability probes were truncated or absent; dead-transition "
                "analysis skipped",
            )
        ]
    d = compiled.num_states
    dead: list[list[str]] = []
    for p in range(d):
        base = p * d
        for q in range(d):
            if compiled.changed[base + q] and (p, q) not in enabled:
                dead.append([str(compiled.states[p]), str(compiled.states[q])])
    if not dead:
        return []
    return [
        Diagnostic(
            Severity.INFO,
            "dead-transitions",
            f"{len(dead)} changed pair(s) are never enabled from the "
            f"{probe_count} probed input(s) (small-n probes; may be live at "
            "larger n)",
            {"count": len(dead), "examples": dead[:5]},
        )
    ]


# -- stable-class checks ----------------------------------------------------


def stable_class_summary(
    chain: "ConfigurationChain", majority: int | None
) -> dict:
    """Closed-class analysis of one probe chain, via exact/absorption.

    Reuses :func:`repro.exact.absorption.closed_classes` so the static
    verdicts agree with the exact engine by construction.  ``always_correct``
    is True when every closed class consists solely of configurations whose
    agents all output ``majority`` — together with the chain's ergodicity
    under the uniform scheduler this certifies almost-sure correctness on
    this input.
    """
    classes = closed_classes(chain.weights)
    population = sum(count for _, count in chain.output_key(0))
    class_sizes = [len(members) for members in classes]
    consistent: list[bool] = []
    correct: list[bool] = []
    for members in classes:
        keys = {chain.output_key(member) for member in members}
        consistent.append(len(keys) == 1)
        correct.append(
            majority is not None
            and all(key == ((majority, population),) for key in keys)
        )
    return {
        "num_configurations": chain.num_configurations,
        "num_classes": len(classes),
        "class_sizes": class_sizes,
        "output_consistent": consistent,
        "majority": majority,
        "always_correct": (all(correct) if majority is not None else None),
    }


def lint_stable_classes(probe_name: str, summary: dict) -> list[Diagnostic]:
    """Diagnostics derived from one probe's stable-class summary."""
    inconsistent = [
        i for i, ok in enumerate(summary["output_consistent"]) if not ok
    ]
    if not inconsistent:
        return []
    return [
        Diagnostic(
            Severity.WARNING,
            "stable-class-output-unstable",
            f"probe {probe_name!r}: {len(inconsistent)} closed class(es) "
            "contain configurations with different output histograms; outputs "
            "keep oscillating after absorption",
            {"probe": probe_name, "classes": inconsistent},
        )
    ]
