"""Shared error construction for the name registries.

The registries resolve plain-string names — protocols, simulation engines,
workloads, executors — and historically each phrased its unknown-name error
differently (some raised ``ValueError``, some ``KeyError``, with four message
formats).  Every registry now raises the :func:`unknown_name_error` ``KeyError``
so callers and tests can rely on one contract: the exception names the kind,
repeats the offending name, and lists every valid name in sorted order.
"""

from __future__ import annotations

from collections.abc import Iterable


def unknown_name_error(kind: str, name: object, available: Iterable[str]) -> KeyError:
    """A uniform ``KeyError`` for a name missing from a registry.

    Args:
        kind: what the registry holds, singular ("protocol", "engine", ...).
        name: the unknown name as the caller supplied it.
        available: the registry's valid names (listed sorted in the message).
    """
    names = sorted(available)
    listing = ", ".join(names) if names else "<none>"
    return KeyError(f"unknown {kind} {name!r}; available {kind}s: {listing}")
