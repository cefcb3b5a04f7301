"""Protocol compilation: flat integer transition tables for finite protocols.

The paper's protocols are all finite ``(Q, I, O, δ)`` tuples (Definition
1.1), so the whole transition function over a protocol's *reachable* state
space can be discovered once (:func:`enumerate_states`), encoded as dense
integers and stored as one flat table (:class:`CompiledProtocol`).  Engines
then simulate through table lookups instead of Python dispatch:

* the configuration-level engines keep integer-indexed count vectors instead
  of hashable-state multisets (pair-type aggregation is index arithmetic);
* the agent engine can optionally evaluate ``δ`` through the table;
* the Gillespie SSA (:mod:`repro.chemistry.gillespie`) reads the protocol's
  reaction network off the same table, and :mod:`repro.analysis` reuses the
  same enumeration instead of rediscovering states ad hoc.

:func:`compile_protocol` is cached per ``(protocol, colors)`` pair; engines
auto-compile and silently fall back to their uncompiled paths when a closure
exceeds :data:`DEFAULT_MAX_COMPILED_STATES`.
"""

from repro.compile.compiled import (
    DEFAULT_MAX_COMPILED_STATES,
    CompiledProtocol,
    compile_from_states,
    compile_protocol,
)
from repro.compile.state_space import (
    StateSpaceCapExceeded,
    enumerate_states,
    reachable_state_count,
)

__all__ = [
    "DEFAULT_MAX_COMPILED_STATES",
    "CompiledProtocol",
    "StateSpaceCapExceeded",
    "compile_from_states",
    "compile_protocol",
    "enumerate_states",
    "reachable_state_count",
]
