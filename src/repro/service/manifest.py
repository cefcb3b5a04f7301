"""Sweep manifests: the checkpoint/resume ledger of a store-backed sweep.

A :class:`SweepManifest` records what a sweep *is* (its SHA and the SHA of
every expanded run) and how far it has gotten (which run indices are done).
The :class:`~repro.api.executor.SweepRunner` saves it atomically after the
initial cache scan and after every completed executor round, so the file on
disk is always a consistent snapshot: a sweep killed mid-flight restarts by
reopening its manifest (found by recomputing the sweep SHA), re-serving the
done runs from the store and executing only the remainder.

The manifest is advisory metadata — the store's content-addressed records are
the source of truth.  On resume every "done" run is still looked up by its
spec SHA, so a manifest that overstates progress (e.g. its shard was
corrupted after the checkpoint) degrades to recomputation, never to a wrong
or missing record.

Saving skips the write when nothing would change: a manifest that was
loaded from (or last saved to) the same path and still holds the same
ledger is not rewritten, so a fully cached resubmission costs no fsynced
write.  New, stale-replaced and changed manifests are always written.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.utils.atomic import atomic_write_text


@dataclass
class SweepManifest:
    """Progress ledger for one sweep in one result store."""

    #: Content address of the :class:`~repro.api.spec.SweepSpec` (its
    #: :meth:`~repro.api.spec.SweepSpec.sha`); names the manifest file.
    sweep_sha: str
    #: The sweep's human-readable ``name`` field (may be empty).
    name: str
    #: Content address of every expanded run, in expansion order.
    run_shas: Sequence[str]
    #: Indices into ``run_shas`` whose records are persisted in the store.
    done: set[int] = field(default_factory=set)
    #: ``(path, to_dict())`` as last read from or written to disk; ``None``
    #: for a manifest that has never been on disk.
    _on_disk: tuple[str, dict[str, Any]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.run_shas = tuple(self.run_shas)
        self.done = {int(index) for index in self.done}

    # -- progress ----------------------------------------------------------------

    @property
    def total(self) -> int:
        return len(self.run_shas)

    def mark_done(self, index: int) -> None:
        self._check_index(index)
        self.done.add(index)

    def mark_pending(self, index: int) -> None:
        """Demote a run to pending (its stored record went missing/corrupt)."""
        self._check_index(index)
        self.done.discard(index)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.total:
            raise IndexError(f"run index {index} out of range for {self.total} runs")

    def pending(self) -> list[int]:
        """The indices still to execute, in expansion order."""
        return [index for index in range(self.total) if index not in self.done]

    @property
    def complete(self) -> bool:
        return len(self.done) == self.total

    def progress(self) -> dict[str, Any]:
        """A JSON-native progress snapshot (the ``/status`` building block)."""
        return {
            "sweep_sha": self.sweep_sha,
            "name": self.name,
            "total": self.total,
            "done": len(self.done),
            "pending": self.total - len(self.done),
            "complete": self.complete,
        }

    # -- persistence -------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "sweep_sha": self.sweep_sha,
            "name": self.name,
            "run_shas": list(self.run_shas),
            "done": sorted(self.done),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> SweepManifest:
        return cls(
            sweep_sha=data["sweep_sha"],
            name=data.get("name", ""),
            run_shas=data["run_shas"],
            done=set(data.get("done", ())),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> SweepManifest:
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> bool:
        """Write the manifest atomically — a kill leaves the previous snapshot.

        Skips the write when the file at ``path`` already holds this ledger
        (the manifest was loaded from or last saved to it and has not
        changed since).  Returns whether it wrote.
        """
        state = (str(path), self.to_dict())
        if state == self._on_disk and Path(path).exists():
            return False
        atomic_write_text(path, self.to_json() + "\n")
        self._on_disk = state
        return True

    @classmethod
    def load(cls, path: str | Path) -> SweepManifest:
        manifest = cls.from_json(Path(path).read_text(encoding="utf-8"))
        manifest._on_disk = (str(path), manifest.to_dict())
        return manifest
