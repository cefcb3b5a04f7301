"""Shared experiment plumbing.

An experiment produces an :class:`ExperimentResult`: a named table (headers +
rows) plus free-form notes.  Results render to aligned text (for the console)
and Markdown (for ``python -m repro.experiments.report``).  A tiny registry
lets examples and scripts run experiments by their identifier ("E1", "E2",
...).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.utils.tables import format_markdown_table, format_table

#: Sentinels for the experiments' exact-analysis columns, shared so every
#: table renders the two *different* situations the same way:
#: :data:`EXACT_INFEASIBLE` — the exact analysis could not run (the chain or
#: the fundamental-matrix solve exceeded its cap, or the cell is outside the
#: exact column's population range); :data:`EXACT_NOT_ALMOST_SURE` — the
#: analysis *did* run and proved the awaited event has probability < 1, so
#: no finite expectation exists.  "—" must never mean "∞" or vice versa.
EXACT_INFEASIBLE = "—"
EXACT_NOT_ALMOST_SURE = "∞"


@dataclass
class ExperimentResult:
    """A named table of results plus notes."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: list[Sequence[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        """Append one row (must match the header length)."""
        if len(values) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} columns, got {len(values)}"
            )
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        """Attach a free-form observation to the result."""
        self.notes.append(note)

    def to_text(self) -> str:
        """Render as an aligned plain-text report."""
        parts = [f"[{self.experiment_id}] {self.title}", format_table(self.headers, self.rows)]
        parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)

    def to_markdown(self) -> str:
        """Render as a Markdown section of the experiment report."""
        parts = [f"### {self.experiment_id} — {self.title}", ""]
        parts.append(format_markdown_table(self.headers, self.rows))
        if self.notes:
            parts.append("")
            parts.extend(f"* {note}" for note in self.notes)
        return "\n".join(parts)

    def column(self, name: str) -> list[Any]:
        """All values of one named column."""
        try:
            index = list(self.headers).index(name)
        except ValueError:
            raise KeyError(f"no column named {name!r}") from None
        return [row[index] for row in self.rows]


ExperimentFn = Callable[..., ExperimentResult]

_EXPERIMENTS: dict[str, ExperimentFn] = {}


def register_experiment(experiment_id: str, fn: ExperimentFn) -> None:
    """Register an experiment runner under its identifier ("E1", "E2", ...)."""
    _EXPERIMENTS[experiment_id.upper()] = fn


def get_experiment(experiment_id: str) -> ExperimentFn:
    """Look up an experiment runner by identifier (e.g. ``"E1"``)."""
    try:
        return _EXPERIMENTS[experiment_id.upper()]
    except KeyError:
        known = ", ".join(sorted(_EXPERIMENTS)) or "<none>"
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None


def experiment_catalog() -> list[str]:
    """All registered experiment identifiers."""
    return sorted(_EXPERIMENTS)
