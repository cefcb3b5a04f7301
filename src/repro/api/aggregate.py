"""Groupby/aggregate helpers over sweep records.

Small, dependency-free table math for :class:`~repro.api.records.SweepResult`:
group records by named axes and reduce a numeric field with mean, median,
min, max, quantiles or a correctness ratio.  The helpers take the value
accessor as an argument so they stay decoupled from the record type (and
usable on any sequence of objects or summary dicts).
"""

from __future__ import annotations

import statistics
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.analysis.statistics import quantile

#: Record field aliases: table-friendly names -> attribute look-up chain.
_ALIASES = {
    "protocol": "protocol_name",
    "scheduler": "scheduler_name",
    "n": "num_agents",
    "k": "num_colors",
}


def record_value(record: Any, key: str) -> Any:
    """Resolve ``key`` on a :class:`~repro.api.records.RunRecord`.

    Accepts summary aliases (``"protocol"``, ``"n"``, ``"k"``, ...), record
    attributes, spec fields (``"workload"``, ...) and extras — in that order.
    """
    attr = _ALIASES.get(key, key)
    if hasattr(record, attr):
        return getattr(record, attr)
    if hasattr(record.spec, key):
        return getattr(record.spec, key)
    extras = getattr(record, "extras", {})
    if key in extras:
        return extras[key]
    raise KeyError(f"record has no field, spec axis or extra named {key!r}")


def group_records(
    records: Iterable[Any],
    keys: Sequence[str],
    getter: Callable[[Any, str], Any] = record_value,
) -> dict[tuple, list[Any]]:
    """Group records by a tuple of key values, preserving first-seen order."""
    groups: dict[tuple, list[Any]] = {}
    for record in records:
        group_key = tuple(getter(record, key) for key in keys)
        groups.setdefault(group_key, []).append(record)
    return groups


def _reduce(values: list[float], stat: str) -> float | list[float]:
    if stat == "mean":
        return statistics.fmean(values)
    if stat == "median":
        return quantile(values, 0.5)
    if stat == "min":
        return min(values)
    if stat == "max":
        return max(values)
    if stat == "sum":
        return sum(values)
    if stat == "count":
        return len(values)
    if stat.startswith("q"):  # "q25", "q90", ... interpolated like summarize()'s
        percent = int(stat[1:])
        if not 0 < percent < 100:
            raise ValueError(f"quantile {stat!r} must be strictly between q0 and q100")
        return quantile(values, percent / 100)
    raise ValueError(
        f"unknown statistic {stat!r}; use mean/median/min/max/sum/count or qNN"
    )


def aggregate_records(
    records: Iterable[Any],
    value: str = "steps",
    by: Sequence[str] = ("protocol", "n", "k"),
    stats: Sequence[str] = ("mean", "median"),
    getter: Callable[[Any, str], Any] = record_value,
) -> list[dict[str, Any]]:
    """One row per group: the group axes, ``trials``, ``correct`` and the stats.

    Args:
        records: the records to aggregate.
        value: the numeric field reduced by ``stats`` (e.g. ``"steps"``).
        by: grouping axes (default: one row per (protocol, n, k)).
        stats: reductions of ``value`` per group — ``"mean"``, ``"median"``,
            ``"min"``, ``"max"``, ``"sum"``, ``"count"`` or ``"qNN"`` for the
            NN-th percentile, both quantiles through
            :func:`repro.analysis.statistics.quantile`.

    Returns:
        Rows in first-seen group order; each row also carries ``trials`` (the
        group size) and ``correct`` (how many records in the group were
        correct, when the records expose a ``correct`` field).
    """
    rows: list[dict[str, Any]] = []
    for group_key, group in group_records(records, by, getter).items():
        row: dict[str, Any] = dict(zip(by, group_key))
        row["trials"] = len(group)
        try:
            row["correct"] = sum(bool(getter(record, "correct")) for record in group)
        except KeyError:
            pass
        values = [float(getter(record, value)) for record in group]
        for stat in stats:
            row[f"{stat}_{value}"] = _reduce(values, stat)
        rows.append(row)
    return rows
