"""Compiled protocols: dense integer encodings of ``(Q, I, O, δ)``.

A :class:`CompiledProtocol` encodes the reachable state space of a protocol
(discovered once by :func:`repro.compile.state_space.enumerate_states`) as
dense integers ``0..d-1`` and stores the whole transition function as one
flat ``array('l')``: entry ``p·d + q`` holds the packed result ``a·d + b`` of
``δ(decode(p), decode(q))``, alongside a ``changed`` bitmask and an output
color table.  Every engine's hot path then becomes a table lookup — no Python
dispatch through ``transition`` and no per-pair memo dictionaries — in the
spirit of the batched population-protocol simulators of Berenbrink et al.

Compilation costs ``O(d²)`` transition evaluations, so results are cached per
``(protocol instance, seed states)`` pair via :func:`compile_from_states`
(weakly keyed on the protocol, so protocols stay garbage-collectable); the
color-facing entry point is :func:`compile_protocol`.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Hashable, Iterable, Sequence
from typing import Generic, TypeVar
from weakref import WeakKeyDictionary

from repro.compile.state_space import StateSpaceCapExceeded, enumerate_states
from repro.protocols.base import PopulationProtocol
from repro.utils.multiset import Multiset

State = TypeVar("State", bound=Hashable)
T = TypeVar("T")
#: One tuple of codes per code (see CompiledProtocol.active_lists).
CodeLists = tuple[tuple[int, ...], ...]

#: Default cap on the compiled state-space size.  The table is dense (``d²``
#: packed entries), so the cap bounds table memory (~8 MiB at the default);
#: engines fall back to their uncompiled paths when a protocol's closure is
#: larger.
DEFAULT_MAX_COMPILED_STATES = 1024


class StateCodes(Generic[State]):
    """The state codes engines and the exact chain keep count vectors over.

    A :class:`CompiledProtocol` or, past the compile cap, a
    :class:`~repro.compile.LazyInterner`; both pack ``δ`` as
    ``table[p·stride + q] = a·stride + b`` for ``δ(p, q) = (a, b)``.
    """

    __slots__ = ()

    states: Sequence[State]
    outputs: Sequence[int]

    def encode(self, state: State) -> int:
        """The code of a state."""
        raise NotImplementedError

    def decode(self, code: int) -> State:
        """The state at a code."""
        return self.states[code]

    def counts_to_multiset(self, counts: Iterable[int]) -> Multiset[State]:
        """Decode a code-aligned count vector into a configuration multiset."""
        states = self.states
        return Multiset(
            {states[code]: int(count) for code, count in enumerate(counts) if count}
        )

    def multiset_to_counts(self, configuration: Multiset[State]) -> list[int]:
        """Encode a configuration multiset into a code-aligned count vector."""
        codes = [(self.encode(state), count) for state, count in configuration.items()]
        counts = [0] * len(self.states)
        for code, count in codes:
            counts[code] += count
        return counts


class CompiledProtocol(StateCodes[State]):
    """A protocol's reachable state space flattened into integer tables.

    Attributes:
        protocol: the source protocol.
        states: index -> state, in deterministic enumeration order.
        index: state -> index (the inverse of ``states``).
        num_states: the closure size ``d``.
        table: flat ``array('l')`` of ``d²`` entries; ``table[p·d + q]`` is
            the packed result ``a·d + b`` of ``δ`` on the pair ``(p, q)``.
        changed: ``bytes`` bitmask parallel to ``table``, set where the
            ordered pair moves a state (``table[p·d + q] != p·d + q``).  It
            is read off the table, not off ``TransitionResult.changed``, so
            every engine applies the same δ whatever a protocol reports.
        outputs: ``array('l')`` mapping state index -> output color.
    """

    __slots__ = (
        "protocol",
        "states",
        "index",
        "num_states",
        "num_seed_states",
        "table",
        "changed",
        "outputs",
        "_numpy_tables",
        "_derived",
    )

    def __init__(
        self,
        protocol: PopulationProtocol[State],
        states: Iterable[State],
        num_seed_states: int = 0,
    ) -> None:
        self.protocol = protocol
        #: How many leading entries of ``states`` were enumeration seeds
        #: (seeds never count against a compile cap — see compile_from_states).
        self.num_seed_states = num_seed_states
        self.states: tuple[State, ...] = tuple(states)
        self.index: dict[State, int] = {state: i for i, state in enumerate(self.states)}
        d = len(self.states)
        self.num_states = d
        self.outputs = array("l", (protocol.output(state) for state in self.states))
        packed = [0] * (d * d)
        changed = bytearray(d * d)
        transition = protocol.transition
        index = self.index
        for p, initiator in enumerate(self.states):
            base = p * d
            for q, responder in enumerate(self.states):
                result = transition(initiator, responder)
                try:
                    a = index[result.initiator]
                    b = index[result.responder]
                except KeyError as exc:
                    raise ValueError(
                        f"protocol {protocol.name!r} is not closed over the enumerated "
                        f"state space: δ({initiator!r}, {responder!r}) produced the "
                        f"unenumerated state {exc.args[0]!r}"
                    ) from None
                packed[base + q] = a * d + b
                if a * d + b != base + q:
                    changed[base + q] = 1
        self.table = array("l", packed)
        self.changed = bytes(changed)
        self._numpy_tables: tuple | None = None
        #: Tables derived from this one, built once on first use (see derived()).
        self._derived: dict[str, object] = {}

    # -- encoding ------------------------------------------------------------

    def encode(self, state: State) -> int:
        """The dense index of a state (KeyError outside the enumerated space)."""
        return self.index[state]

    def initial_index(self, color: int) -> int:
        """The encoded initial state for an input color."""
        return self.index[self.protocol.initial_state(color)]

    # -- the compiled maps ----------------------------------------------------

    def transition_codes(self, p: int, q: int) -> tuple[int, int, bool]:
        """``δ`` on encoded states: ``(a, b, changed)`` for the ordered pair."""
        d = self.num_states
        code = p * d + q
        a, b = divmod(self.table[code], d)
        return a, b, bool(self.changed[code])

    def output_of(self, code: int) -> int:
        """The output color of an encoded state."""
        return self.outputs[code]

    @property
    def stride(self) -> int:
        """The pair stride of :attr:`table`: the closure size ``d``."""
        return self.num_states

    def output_colors(self) -> frozenset[int]:
        """Every color the output map can report over the enumerated space."""
        return frozenset(self.outputs)

    # -- conversions -----------------------------------------------------------

    def numpy_tables(self):
        """Cached numpy views ``(table, changed, outputs)``, or None without numpy."""
        if self._numpy_tables is None:
            try:
                import numpy
            except ImportError:  # pragma: no cover - numpy is an optional accelerator
                self._numpy_tables = ()
            else:
                self._numpy_tables = (
                    numpy.array(self.table, dtype=numpy.int64),
                    numpy.frombuffer(self.changed, dtype=numpy.uint8).astype(bool),
                    numpy.array(self.outputs, dtype=numpy.int64),
                )
        return self._numpy_tables or None

    def derived(self, key: str, build: Callable[["CompiledProtocol[State]"], T]) -> T:
        """``build(self)``, computed once per compiled protocol and cached under ``key``.

        Engines and criteria keep their per-protocol tables here (the
        active-pair lists, criterion masks), so every run of a sweep shares
        one copy instead of re-deriving it from the ``d²`` table.
        """
        try:
            return self._derived[key]  # type: ignore[return-value]
        except KeyError:
            value = self._derived[key] = build(self)
            return value

    def active_lists(self) -> tuple[CodeLists, CodeLists]:
        """Per-code ``(rows, cols)``: ``rows[p]`` lists every ``q`` whose ordered
        pair ``(p, q)`` is changed, ``cols[q]`` every such ``p``."""
        return self.derived("active-lists", _active_lists)

    def describe(self) -> dict[str, object]:
        """Metadata for reports: closure size vs. the declared state count."""
        return {
            "name": self.protocol.name,
            "num_states": self.num_states,
            "declared_states": self.protocol.state_count(),
            "table_entries": len(self.table),
        }

    def __repr__(self) -> str:
        return (
            f"CompiledProtocol({self.protocol.name!r}, "
            f"num_states={self.num_states}, table_entries={len(self.table)})"
        )


def _active_lists(compiled: CompiledProtocol) -> tuple[CodeLists, CodeLists]:
    d = compiled.num_states
    changed = compiled.changed
    rows = tuple(tuple(q for q in range(d) if changed[p * d + q]) for p in range(d))
    cols = tuple(tuple(p for p in range(d) if changed[p * d + q]) for q in range(d))
    return rows, cols


#: protocol instance -> {frozenset(seed states) -> cache entry} for protocols
#: without a :meth:`~repro.protocols.base.PopulationProtocol.compile_signature`.
#: Weakly keyed so a protocol (and its tables) die with the last reference.
_INSTANCE_CACHE: "WeakKeyDictionary[PopulationProtocol, dict[frozenset, object]]" = (
    WeakKeyDictionary()
)

#: (compile_signature, frozenset(seed states)) -> cache entry for protocols
#: that declare a value identity; shared across instances, which is what lets
#: registry-driven sweeps (a fresh protocol instance per run) compile once.
_SIGNATURE_CACHE: dict[tuple, object] = {}


class _CapExceeded:
    """Negative cache entry: enumeration failed at ``cap`` (so at any ≤ cap)."""

    __slots__ = ("cap",)

    def __init__(self, cap: int) -> None:
        self.cap = cap


def _cache_bucket(protocol: PopulationProtocol, key: frozenset):
    """The cache dict and lookup key for a protocol's compile results."""
    signature = protocol.compile_signature()
    if signature is not None:
        return _SIGNATURE_CACHE, (signature, key)
    per_protocol = _INSTANCE_CACHE.get(protocol)
    if per_protocol is None:
        per_protocol = _INSTANCE_CACHE.setdefault(protocol, {})
    return per_protocol, key


def compile_from_states(
    protocol: PopulationProtocol[State],
    seed_states: Iterable[State],
    max_states: int = DEFAULT_MAX_COMPILED_STATES,
) -> CompiledProtocol[State]:
    """Compile the δ-closure of explicit seed states, with caching.

    Cap-exceeded enumerations are cached too (engines probe compilation on
    construction; re-discovering a too-large closure on every run would cost
    more than the uncompiled simulation it falls back to).

    Raises:
        StateSpaceCapExceeded: when the closure is larger than ``max_states``
            (engines catch this and fall back to their uncompiled paths).
    """
    key = frozenset(seed_states)
    bucket, bucket_key = _cache_bucket(protocol, key)
    entry = bucket.get(bucket_key)
    if isinstance(entry, CompiledProtocol):
        # Mirror enumeration semantics exactly: seeds never count against the
        # cap, so a cache hit raises iff a cold enumeration would have — the
        # closure discovered a non-seed state past the cap.
        if entry.num_states > max_states and entry.num_states > entry.num_seed_states:
            raise StateSpaceCapExceeded(
                f"δ-closure of {protocol.name!r} has {entry.num_states} states, "
                f"over the requested cap of {max_states}"
            )
        return entry
    if isinstance(entry, _CapExceeded) and max_states <= entry.cap:
        raise StateSpaceCapExceeded(
            f"δ-closure of {protocol.name!r} exceeded the cap of {max_states} states"
        )
    try:
        space = enumerate_states(protocol, seed_states=key, max_states=max_states)
    except StateSpaceCapExceeded:
        bucket[bucket_key] = _CapExceeded(max_states)
        raise
    compiled = CompiledProtocol(protocol, space, num_seed_states=len(key))
    bucket[bucket_key] = compiled
    return compiled


def compile_protocol(
    protocol: PopulationProtocol[State],
    colors: Iterable[int] | None = None,
    max_states: int = DEFAULT_MAX_COMPILED_STATES,
) -> CompiledProtocol[State]:
    """Compile a protocol for a set of input colors (all colors by default).

    Results are cached per ``(protocol instance, seed states)`` pair, so
    repeated runs — a sweep's trials, a test matrix — compile once.
    """
    if colors is None:
        colors = range(protocol.num_colors)
    seeds = {protocol.initial_state(color) for color in colors}
    return compile_from_states(protocol, seeds, max_states=max_states)
