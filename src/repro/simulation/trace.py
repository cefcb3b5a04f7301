"""Execution traces.

A trace records, per simulation step, which pair interacted, whether anything
changed and optional per-step metrics (energy, potential, output counts).
Traces power the examples' plots-as-text output and post-mortem debugging of
adversarial runs.  Recording is opt-in because a full trace of a long run is
large.

Recording is fed by the observer pipeline: attach a
:class:`~repro.simulation.observers.TraceObserver` to an
:class:`~repro.simulation.engine.AgentSimulation` (or pass it in
``observers=`` to the high-level run API).  It needs per-agent indices and
therefore exists on the agent engine only; the configuration-level engines
expose their executions through count-level observers instead.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class TraceEvent:
    """One recorded simulation step."""

    step: int
    initiator: int
    responder: int
    changed: bool
    metrics: dict[str, Any] = field(default_factory=dict)


class Trace:
    """An append-only list of :class:`TraceEvent` with simple queries."""

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        """Append one event."""
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> TraceEvent:
        return self._events[index]

    def events(self) -> list[TraceEvent]:
        """A copy of all recorded events."""
        return list(self._events)

    def changed_steps(self) -> list[int]:
        """The step indices at which some agent's state changed."""
        return [event.step for event in self._events if event.changed]

    def last_change_step(self) -> int | None:
        """The last step at which anything changed, or ``None``."""
        changed = self.changed_steps()
        return changed[-1] if changed else None

    def series(self, metric: str) -> list[tuple[int, Any]]:
        """The ``(step, value)`` series of a recorded metric, skipping absent steps."""
        return [
            (event.step, event.metrics[metric])
            for event in self._events
            if metric in event.metrics
        ]

    def filter(self, predicate: Callable[[TraceEvent], bool]) -> list[TraceEvent]:
        """All events satisfying ``predicate``."""
        return [event for event in self._events if predicate(event)]

