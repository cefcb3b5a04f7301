"""Persistable run records.

A :class:`RunRecord` is what a sweep keeps of one run: the originating
:class:`~repro.api.spec.RunSpec`, the derived seed, and a flat, JSON-native
snapshot of the :class:`~repro.simulation.runner.RunResult`.  Unlike the live
``RunResult`` it deliberately drops the non-serializable payload (final
states, traces), so the round trip ``RunRecord.from_dict(record.to_dict())``
is *lossless by construction* — dataclass equality holds across JSON — and a
record plus its spec is enough to re-run and verify any single data point.

A :class:`SweepResult` is the ordered list of records a sweep produced, with
``to_json``/``from_json`` persistence and the groupby/aggregate helpers from
:mod:`repro.api.aggregate` attached as methods.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from pathlib import Path

from repro.api import aggregate as _aggregate
from repro.api.spec import RunSpec, SweepSpec, own_params
from repro.utils.atomic import atomic_write_text

#: Which generation of the run code produced a record.  A record is a pure
#: function of its spec *and* of that code: a change that samples the same
#: law through different draws (such as the batch engine's sparse regime, or
#: its dense regime drawing one interaction at a time below the kernel gate
#: and its re-measured regime thresholds, epoch 5),
#: that solves the same system in a different float order (such as the exact
#: engine's block-by-block solve, epoch 2, and its one visit-row solve,
#: epoch 4), or that reports more of a run (Circles runs with an explicit
#: criterion carry ket exchanges and energies, epoch 3) changes what
#: :func:`~repro.api.executor.execute_run` returns for an unchanged spec.  The result store writes the epoch on every line and
#: never serves a line of another epoch.  Bump it with every such change.
#: Derived seeds never move; spec SHAs moved once, at epoch 6, when specs
#: lost their inert ``compiled`` key, so older lines load as stale instead
#: of as records no spec can reach.  Epoch 7 carries the sparse regime's
#: geometric skip across check windows: batch and vector runs that go
#: sparse take one skip draw per event instead of one per window.
RECORD_EPOCH = 7


@dataclass(frozen=True)
class RunRecord:
    """One executed run: spec + derived seed + serializable outcome."""

    spec: RunSpec
    seed: int | None
    protocol_name: str
    num_agents: int
    num_colors: int
    engine: str
    scheduler_name: str
    converged: bool
    correct: bool
    steps: int
    interactions_changed: int
    majority: int | None = None
    unanimous: bool = False
    ket_exchanges: int | None = None
    initial_energy: int | None = None
    final_energy: int | None = None
    #: Runner-specific measurements (JSON-native values only).
    extras: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "extras", own_params(self.extras))

    def exact_result(self):
        """The analytical :class:`~repro.exact.result.DistributionResult`.

        Rebuilt from ``extras["exact"]`` for records produced with
        ``engine="exact"``; ``None`` for sampled runs.
        """
        payload = self.extras.get("exact")
        if payload is None:
            return None
        from repro.exact.result import DistributionResult

        return DistributionResult.from_dict(payload)

    def summary(self) -> dict[str, Any]:
        """A flat dictionary for tabular reports (extras inlined)."""
        base: dict[str, Any] = {
            "protocol": self.protocol_name,
            "workload": self.spec.workload,
            "n": self.num_agents,
            "k": self.num_colors,
            "engine": self.engine,
            "scheduler": self.scheduler_name,
            "seed": self.seed,
            "converged": self.converged,
            "correct": self.correct,
            "steps": self.steps,
            "interactions_changed": self.interactions_changed,
            "ket_exchanges": self.ket_exchanges,
        }
        base.update(self.extras)
        return base

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dictionary (inverse of :meth:`from_dict`)."""
        data = {
            "spec": self.spec.to_dict(),
            "seed": self.seed,
            "protocol_name": self.protocol_name,
            "num_agents": self.num_agents,
            "num_colors": self.num_colors,
            "engine": self.engine,
            "scheduler_name": self.scheduler_name,
            "converged": self.converged,
            "correct": self.correct,
            "steps": self.steps,
            "interactions_changed": self.interactions_changed,
            "majority": self.majority,
            "unanimous": self.unanimous,
            "ket_exchanges": self.ket_exchanges,
            "initial_energy": self.initial_energy,
            "final_energy": self.final_energy,
            "extras": dict(self.extras),
        }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> RunRecord:
        payload = dict(data)
        payload["spec"] = RunSpec.from_dict(payload["spec"])
        return cls(**payload)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> RunRecord:
        return cls.from_dict(json.loads(text))

    def write_json(self, path: str | Path, indent: int | None = 2) -> None:
        """Persist the record atomically (write-temp-then-rename).

        A killed process leaves either no file or a complete one — never a
        truncated record that would poison a later resume.
        """
        atomic_write_text(path, self.to_json(indent=indent) + "\n")


@dataclass
class SweepResult:
    """Every record a sweep produced, in expansion order."""

    spec: SweepSpec
    records: list[RunRecord]
    #: Sweep-level metadata (JSON-native).  Adaptive sweeps put their
    #: per-cell stopping diagnostics here under ``"stopping"`` — a list of
    #: ``{cell coordinates, reason, trials, mean, ci_low, ci_high,
    #: half_width}`` dictionaries in cell order — keeping the records
    #: themselves bit-identical to their fixed-trial counterparts.
    extras: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # -- analysis ---------------------------------------------------------------

    def groupby(self, *keys: str) -> dict[tuple, list[RunRecord]]:
        """Records grouped by the named fields, in first-seen order.

        Keys are record field names, summary keys (``"protocol"``, ``"n"``,
        ``"k"``, ``"workload"``, ``"engine"``, ``"scheduler"``) or extras keys.
        """
        return _aggregate.group_records(self.records, keys, _aggregate.record_value)

    def aggregate(
        self,
        value: str = "steps",
        by: Sequence[str] = ("protocol", "n", "k"),
        stats: Sequence[str] = ("mean", "median"),
    ) -> list[dict[str, Any]]:
        """Aggregate one numeric field per group; see :func:`repro.api.aggregate.aggregate_records`."""
        return _aggregate.aggregate_records(
            self.records, value=value, by=by, stats=stats, getter=_aggregate.record_value
        )

    # -- persistence ------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "records": [record.to_dict() for record in self.records],
            "extras": dict(self.extras),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> SweepResult:
        return cls(
            spec=SweepSpec.from_dict(data["spec"]),
            records=[RunRecord.from_dict(record) for record in data["records"]],
            extras=dict(data.get("extras", {})),
        )

    def to_json(self, indent: int | None = None) -> str:
        """Serialize losslessly; ``from_json`` restores equal records."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> SweepResult:
        return cls.from_dict(json.loads(text))

    def write_json(self, path: str | Path, indent: int | None = 2) -> None:
        """Persist the result atomically (write-temp-then-rename)."""
        atomic_write_text(path, self.to_json(indent=indent) + "\n")
