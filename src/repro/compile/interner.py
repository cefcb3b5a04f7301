"""State codes past the compile cap, and the one compile-or-intern decision.

A closure over the compile cap has no dense table, but a run or a chain
meets only part of it.  A :class:`LazyInterner` numbers states on first
sight and memoizes ``δ`` in the compiled table's packing, so every
configuration-level consumer runs on a count vector over codes either way.
An interner's codes depend on its seed order and on the order δ produced
states, so each engine or chain builds its own; none is cached across runs.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import TypeVar

from repro.compile.compiled import CompiledProtocol, StateCodes, compile_from_states
from repro.compile.state_space import StateSpaceCapExceeded
from repro.protocols.base import PopulationProtocol

State = TypeVar("State", bound=Hashable)

#: The pair stride of an interner's δ memo: above any code it numbers.
INTERNED_STRIDE = 1 << 32


class _DeltaMemo(dict[int, int]):
    """``memo[p·stride + q] = a·stride + b`` for ``δ(p, q) = (a, b)``, on first lookup.

    The states δ produces are numbered on the way, initiator first.
    """

    __slots__ = ("_interner",)

    def __init__(self, interner: "LazyInterner") -> None:
        super().__init__()
        self._interner = interner

    def __missing__(self, pair: int) -> int:
        interner = self._interner
        p, q = divmod(pair, INTERNED_STRIDE)
        states = interner.states
        result = interner.protocol.transition(states[p], states[q])
        packed = interner.encode(result.initiator) * INTERNED_STRIDE + interner.encode(
            result.responder
        )
        self[pair] = packed
        return packed


class LazyInterner(StateCodes[State]):
    """States numbered on first sight, with ``δ`` memoized on codes.

    ``states`` lists the seeds in the order given, then each state δ
    produced; ``index`` inverts it, ``outputs`` holds each code's output
    color and ``table`` is the δ memo, read with the pair stride
    :data:`INTERNED_STRIDE`.
    """

    __slots__ = ("protocol", "states", "index", "outputs", "table")

    stride = INTERNED_STRIDE

    def __init__(self, protocol: PopulationProtocol[State], seed_states: Iterable[State]) -> None:
        self.protocol = protocol
        self.states: list[State] = []
        self.index: dict[State, int] = {}
        self.outputs: list[int] = []
        self.table = _DeltaMemo(self)
        for state in seed_states:
            self.encode(state)

    def encode(self, state: State) -> int:
        """The code of a state, numbering it on first sight."""
        code = self.index.get(state)
        if code is None:
            code = self.index[state] = len(self.states)
            self.states.append(state)
            self.outputs.append(self.protocol.output(state))
        return code


def compile_or_intern(
    protocol: PopulationProtocol[State], seed_states: Iterable[State]
) -> CompiledProtocol[State] | LazyInterner[State]:
    """The cached compiled closure of the seeds, or past the cap a fresh interner of them."""
    seeds = list(seed_states)
    try:
        return compile_from_states(protocol, seeds)
    except StateSpaceCapExceeded:
        return LazyInterner(protocol, seeds)
