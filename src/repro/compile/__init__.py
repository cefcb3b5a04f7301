"""Protocol compilation: flat integer transition tables for finite protocols.

The paper's protocols are all finite ``(Q, I, O, δ)`` tuples (Definition
1.1), so the whole transition function over a protocol's *reachable* state
space can be discovered once (:func:`enumerate_states`), encoded as dense
integers and stored as one flat table (:class:`CompiledProtocol`).  Engines
then simulate through table lookups instead of Python dispatch:

* the configuration-level engines keep integer-indexed count vectors instead
  of hashable-state multisets (pair-type aggregation is index arithmetic);
* the Gillespie SSA (:mod:`repro.chemistry.gillespie`) reads the protocol's
  reaction network off the same table, and :mod:`repro.analysis` reuses the
  same enumeration instead of rediscovering states ad hoc.

:func:`compile_protocol` is cached per ``(protocol, colors)`` pair.  When a
closure exceeds :data:`DEFAULT_MAX_COMPILED_STATES` there is no table, and
:func:`compile_or_intern` — the one place that decides — hands the
configuration engines and the exact chain a :class:`LazyInterner` instead:
states numbered on first sight, ``δ`` memoized per code pair in the
compiled table's packing, so they keep running on count vectors over codes.
The interner is built fresh per engine or chain; only compiled tables are
cached.
"""

from repro.compile.compiled import (
    DEFAULT_MAX_COMPILED_STATES,
    CompiledProtocol,
    StateCodes,
    compile_from_states,
    compile_protocol,
)
from repro.compile.interner import LazyInterner, compile_or_intern
from repro.compile.state_space import (
    StateSpaceCapExceeded,
    enumerate_states,
    reachable_state_count,
)

__all__ = [
    "DEFAULT_MAX_COMPILED_STATES",
    "CompiledProtocol",
    "LazyInterner",
    "StateCodes",
    "StateSpaceCapExceeded",
    "compile_from_states",
    "compile_or_intern",
    "compile_protocol",
    "enumerate_states",
    "reachable_state_count",
]
