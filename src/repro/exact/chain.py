"""The exact configuration-space Markov chain.

Under the uniform random scheduler a population protocol *is* a finite
discrete-time Markov chain over configurations (Definition 1.1): from a
configuration ``C`` of ``n`` agents, an ordered pair of distinct agents is
drawn uniformly among the ``n·(n-1)`` ordered pairs, so the pair of *states*
``(p, q)`` is drawn with probability ``C(p)·C(q) / (n·(n-1))`` (and
``C(p)·(C(p)-1) / (n·(n-1))`` for ``p = q``), after which ``δ`` rewrites the
pair.  :class:`ConfigurationChain` materializes that chain exactly for one
input: it enumerates every configuration reachable from the initial one
(breadth-first) and stores one sparse row of transition weights per
configuration.  It is the repository's one configuration graph: the exact
engine, the E3 model checker (:mod:`repro.analysis.verification`) and the
verifier's lint probes all query it.

Each configuration is stored as a :data:`Counts` tuple — agents per state
code, index-aligned with :attr:`ConfigurationChain.states`.  The codes come
from :func:`repro.compile.compile_or_intern`: the compiled δ-table's whenever
the protocol's closure fits the compile cap, otherwise those of a
:class:`~repro.compile.LazyInterner` built for this chain, which numbers
states on first sight and memoizes ``δ`` per code pair through
``protocol.transition`` in the compiled table's packing.  Either way the
one BFS reads ``δ`` from one flat table, expands present codes in ``repr``
order of their states, so discovery order and rows do not depend on the
path taken, and each successor costs four integer updates on a list.  Multisets are decoded
only at the API edge: :meth:`~ConfigurationChain.configuration` /
:meth:`~ConfigurationChain.decode` and the ``frozenset`` views ``keys`` /
``index``; class lifting and ranking stay on count tuples.

Every transition probability is an integer count of ordered agent pairs
over the one denominator ``n·(n-1)``, so a row is stored as those integers:
:attr:`~ConfigurationChain.weights` and
:attr:`~ConfigurationChain.change_weights` over
:attr:`~ConfigurationChain.denominator`.  The probabilities are views built
from them on first use — exact rationals ``Fraction(w, n·(n-1))`` in
``arithmetic="exact"`` mode, float64 ``w / (n·(n-1))`` in
``arithmetic="float"`` mode (the default: it is what the golden conformance
suite and the experiment columns use; the rational mode generates the golden
files).  The analyses read the integers: structure (which entries exist)
straight off the weights, and rational values through integer solves and
sums that build one ``Fraction`` per reported value.

The chain itself only knows transitions; the derived quantities (absorption
into stable classes, expected interactions to convergence, correctness
probability) live in :mod:`repro.exact.absorption`.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Callable, Hashable, Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import compress
from operator import itemgetter
from typing import Generic, TypeVar

import repro.compile

# ``compile_from_states`` stays a name of this module because perfbench's
# compile layer wraps it here; the codes come from ``compile_or_intern``.
from repro.compile import CompiledProtocol, StateCodes, compile_from_states  # noqa: F401
from repro.protocols.base import PopulationProtocol
from repro.utils.multiset import Multiset

State = TypeVar("State", bound=Hashable)

#: A configuration as agents per state code (see :attr:`ConfigurationChain.states`).
Counts = tuple[int, ...]

#: Default cap on the number of enumerated configurations.  The chain cannot
#: work with a truncated graph (probabilities out of missing rows would
#: silently leak mass), so hitting the cap raises :class:`ChainTooLarge`
#: instead of flagging partial results.
DEFAULT_MAX_CONFIGURATIONS = 50_000

#: The two probability representations a chain can carry.
ARITHMETICS = ("float", "exact")


class ChainTooLarge(RuntimeError):
    """The reachable configuration space exceeded the caller's cap."""


def expand_multiset(configuration: Multiset[State]) -> list[State]:
    """Expand a configuration into a state list in deterministic (repr) order.

    Agents are anonymous, so the order carries no meaning — but reports and
    the exact engine's ``states()`` must be reproducible, and every exact
    consumer must expand the same way.
    """
    states: list[State] = []
    for state in sorted(configuration.support(), key=repr):
        states.extend([state] * configuration.count(state))
    return states


def _validate_arithmetic(arithmetic: str) -> str:
    if arithmetic not in ARITHMETICS:
        raise ValueError(
            f"unknown arithmetic {arithmetic!r}; expected one of {', '.join(ARITHMETICS)}"
        )
    return arithmetic


def _trim(counts: Counts) -> Counts:
    """Drop trailing zeros: the one form of a count tuple while codes are still being numbered."""
    end = len(counts)
    while end and not counts[end - 1]:
        end -= 1
    return counts[:end]


class ConfigurationChain(Generic[State]):
    """The exact Markov chain of one protocol input under uniform scheduling.

    Attributes:
        protocol: the protocol whose dynamics the chain encodes.
        arithmetic: ``"exact"`` (``Fraction``) or ``"float"`` (float64): the
            representation of :attr:`rows`, :attr:`change_probability` and
            every analysis result.
        num_agents: the (conserved) population size ``n``.
        denominator: ``n·(n-1)``, the number of ordered agent pairs; every
            transition probability is an integer weight over it.
        codes: the chain's state codes: ``compiled``, or past the compile
            cap the :class:`~repro.compile.LazyInterner` that numbers them.
        states: code -> state, ``codes.states``: the compiled closure, or
            the states in the order the BFS first met them.
        counts: index -> configuration as a :data:`Counts` tuple, in BFS
            discovery order; index 0 is the initial configuration.  Without
            a compiled table the tuples carry no trailing zeros.
        weights: per configuration, the sparse transition row
            ``{successor index: ordered agent pairs}``.  Rows sum to
            :attr:`denominator`; the self-loop entry collects both no-op
            pairs and changing pairs that leave the multiset unchanged
            (e.g. swaps).
        change_weights: per configuration, the ordered agent pairs whose
            interaction changes at least one agent's state (judged by the
            states δ returns, regardless of whether the multiset moves).
        compiled: the compiled δ-tables the codes come from, or ``None``
            when the closure exceeded the compile cap.
        solved_visits: the linear systems solved on this chain by
            :mod:`repro.exact.absorption`, keyed by ``(system indices, start)``:
            the expected visits ``π`` and their expected-interaction sums.
            Each system is solved once per chain, and the results live and
            die with it.
    """

    initial_index = 0

    def __init__(
        self,
        protocol: PopulationProtocol[State],
        initial: Iterable[State] | Multiset[State],
        *,
        arithmetic: str = "float",
        max_configurations: int = DEFAULT_MAX_CONFIGURATIONS,
    ) -> None:
        self.protocol = protocol
        self.arithmetic = _validate_arithmetic(arithmetic)
        configuration = initial if isinstance(initial, Multiset) else Multiset(initial)
        if len(configuration) < 2:
            raise ValueError("a population needs at least two agents")
        self.num_agents = len(configuration)
        self.denominator = self.num_agents * (self.num_agents - 1)
        self.codes: StateCodes[State] = repro.compile.compile_or_intern(
            protocol, configuration.support()
        )
        self.compiled: CompiledProtocol[State] | None = (
            self.codes if isinstance(self.codes, CompiledProtocol) else None
        )
        self.states: Sequence[State] = self.codes.states
        #: ``δ`` as a flat packed table read by :meth:`_expand`, and its stride.
        self._table, self._stride = self.codes.table, self.codes.stride
        #: Codes in ``repr`` order of their states: the order the BFS expands.
        self._order = sorted(range(len(self.states)), key=lambda c: repr(self.states[c]))
        initial_counts = tuple(configuration.count(state) for state in self.states)
        self.counts: list[Counts] = []
        self._lookup: dict[Counts, int] = {}
        self.weights: list[dict[int, int]] = []
        self.change_weights: list[int] = []
        self.solved_visits: dict[
            tuple[tuple[int, ...], int],
            tuple[list[Fraction | float], Fraction | float, Fraction | float],
        ] = {}
        self._prepare(initial_counts)
        self._explore(initial_counts, max_configurations)

    @classmethod
    def from_colors(
        cls,
        protocol: PopulationProtocol[State],
        colors: Iterable[int],
        **kwargs: object,
    ) -> "ConfigurationChain[State]":
        """Build the chain for an input color assignment."""
        return cls(
            protocol, (protocol.initial_state(color) for color in colors), **kwargs
        )

    # -- construction ---------------------------------------------------------

    def _prepare(self, initial: Counts) -> None:
        """Hook run after compilation, before the BFS.

        The base chain needs no preparation; :class:`repro.exact.quotient.QuotientChain`
        overrides this to derive the symmetry group whose orbits it folds.
        """

    def _canonical(self) -> Callable[[Counts], Counts] | None:
        """The map from a successor's counts to the form the BFS interns.

        ``None`` (the identity) here; the quotient chain returns the
        orbit-minimal tuple under the input's color-symmetry stabilizer.
        """
        return None

    def _order_new_codes(self) -> None:
        """Insert the codes the interner numbered since the last call into the repr order."""
        states, order = self.states, self._order
        for code in range(len(order), len(states)):
            insort(order, code, key=lambda known: repr(states[known]))

    def _expand(self, counts: Counts) -> list[tuple[Counts, int]]:
        """One configuration's changing pairs, as ``(successor, weight)`` in pair order.

        Every ordered pair of present codes is visited in repr order and its
        ``δ`` read from the flat table — the compiled ``table`` or, without
        one, the memo of the :class:`~repro.compile.LazyInterner`, packed the
        same way: ``table[p·stride + q]`` is ``a·stride + b``, equal to
        ``p·stride + q`` exactly when ``δ`` changes neither agent.
        A pair's weight is its number of ordered agent pairs; the pairs left
        out change nothing and weigh :attr:`denominator` minus the total.
        """
        table, stride = self._table, self._stride
        trim = self.compiled is None
        width = len(self.states)
        if len(counts) < width:
            counts += (0,) * (width - len(counts))
        present = [(code, counts[code]) for code in self._order if counts[code]]
        moves: list[tuple[Counts, int]] = []
        append = moves.append
        for p, count_p in present:
            base = p * stride
            for q, count_q in present:
                if q == p:
                    if count_p == 1:
                        continue
                    count_q -= 1
                pair = base + q
                packed = table[pair]
                if packed == pair:
                    continue
                a, b = divmod(packed, stride)
                successor = list(counts)
                successor[p] -= 1
                successor[q] -= 1
                if a >= width or b >= width:  # codes first met in this expansion
                    self._order_new_codes()
                    successor += [0] * (len(self.states) - width)
                successor[a] += 1
                successor[b] += 1
                key = tuple(successor)
                if trim and not key[-1]:
                    key = _trim(key)
                append((key, count_p * count_q))
        return moves

    def _intern(self, key: Counts, cap: int) -> int:
        # Cap-edge contract (pinned by tests/exact/test_chain.py): re-interning
        # a key that is already present must return its index without ever
        # consulting the cap — even when exactly ``cap`` configurations are
        # interned — and a reachable space of exactly ``cap`` configurations
        # must build successfully.  Only *discovering* configuration ``cap+1``
        # raises.
        existing = self._lookup.get(key)
        if existing is not None:
            return existing
        if len(self.counts) >= cap:
            raise ChainTooLarge(
                f"configuration chain of {self.protocol.name!r} (n={self.num_agents}) "
                f"exceeded the cap of {cap} configurations"
            )
        index = len(self.counts)
        self._lookup[key] = index
        self.counts.append(key)
        return index

    def _explore(self, initial: Counts, cap: int) -> None:
        """BFS over reachable configurations, building one weight row each."""
        canonical = self._canonical()
        lookup = self._lookup
        configurations = self.counts
        expand = self._expand
        denominator = self.denominator
        self._intern(initial if canonical is None else canonical(initial), cap)
        # Each index is interned exactly once, in ascending order, so the BFS
        # processes index i exactly when building row i.
        current = 0
        while current < len(configurations):
            weights: dict[int, int] = {}
            change_weight = 0
            for successor, weight in expand(configurations[current]):
                change_weight += weight
                if canonical is not None:
                    successor = canonical(successor)
                target = lookup.get(successor)
                if target is None:
                    target = self._intern(successor, cap)
                weights[target] = weights.get(target, 0) + weight
            if change_weight < denominator:
                weights[current] = weights.get(current, 0) + denominator - change_weight
            self.weights.append(weights)
            self.change_weights.append(change_weight)
            current += 1

    # -- probabilities ----------------------------------------------------------

    def _probability(self) -> Callable[[int], Fraction | float]:
        """The map from a weight to its probability in the chain's arithmetic."""
        denominator = self.denominator
        if self.arithmetic == "exact":
            return lambda weight: Fraction(weight, denominator)
        return lambda weight: weight / denominator

    @cached_property
    def rows(self) -> list[dict[int, Fraction | float]]:
        """Per configuration, the sparse transition row ``{successor index: probability}``.

        Built from :attr:`weights` on first use, in the chain's arithmetic.
        """
        probability = self._probability()
        return [
            {target: probability(weight) for target, weight in row.items()}
            for row in self.weights
        ]

    @cached_property
    def change_probability(self) -> list[Fraction | float]:
        """Per configuration, the probability that one interaction changes a state.

        Built from :attr:`change_weights` on first use, in the chain's arithmetic.
        """
        return list(map(self._probability(), self.change_weights))

    @cached_property
    def predecessors(self) -> list[list[int]]:
        """Per configuration, the ascending indices whose rows step into it.

        The reverse of :attr:`weights` (self-loops included), built on first
        use and shared by every hitting analysis of the chain.
        """
        predecessors: list[list[int]] = [[] for _ in self.weights]
        for index, row in enumerate(self.weights):
            for successor in row:
                predecessors[successor].append(index)
        return predecessors

    # -- inspection -----------------------------------------------------------

    @property
    def num_configurations(self) -> int:
        """How many distinct configurations are reachable from the input."""
        return len(self.counts)

    def decode(self, counts: Counts) -> Multiset[State]:
        """The configuration multiset a count tuple stands for."""
        return self.codes.counts_to_multiset(counts)

    def configuration(self, index: int) -> Multiset[State]:
        """The configuration multiset at a chain index."""
        return self.decode(self.counts[index])

    @cached_property
    def state_reprs(self) -> list[str]:
        """code -> ``repr`` of its state, computed once per chain."""
        return [repr(state) for state in self.states]

    def rank(self, counts: Counts) -> tuple[tuple[str, int], ...]:
        """A deterministic total order on configurations: sorted ``(repr, count)`` pairs.

        The same repr convention as :func:`expand_multiset`, read off the
        codes in the chain's repr order (distinct states have distinct
        reprs), so no call sorts.  Exact reports sort stable classes by this
        rank (not by BFS discovery index, which a quotiented chain cannot
        reproduce), so class numbering agrees between quotiented and
        unquotiented analyses of the same input.
        """
        gather, reprs = self._rank_order
        if len(counts) < len(self.states):
            counts += (0,) * (len(self.states) - len(counts))
        ordered = gather(counts)
        return tuple(zip(compress(reprs, ordered), filter(None, ordered)))

    @cached_property
    def _rank_order(self) -> tuple[Callable[[Counts], Sequence[int]], list[str]]:
        """A gather of count tuples into repr order, and the reprs in that order."""
        order = self._order
        reprs = self.state_reprs
        # A one-code itemgetter would return a bare count; a slice keeps the tuple.
        gather = itemgetter(*order) if len(order) > 1 else itemgetter(slice(order[0], order[0] + 1))
        return gather, [reprs[code] for code in order]

    @cached_property
    def keys(self) -> list[frozenset]:
        """index -> frozen ``(state, count)`` pairs, decoded on first use."""
        return [self.decode(counts).frozen() for counts in self.counts]

    @cached_property
    def index(self) -> dict[frozenset, int]:
        """frozen ``(state, count)`` pairs -> index (the inverse of :attr:`keys`)."""
        return {key: index for index, key in enumerate(self.keys)}

    def successors(self, counts: Counts) -> set[Counts]:
        """Every configuration one changing interaction leads to from ``counts``.

        The source transition relation, read by the same expansion the BFS
        runs (:meth:`_expand`) but never folded by a quotient:
        :meth:`QuotientChain.lift_class_counts` walks it to rebuild a source
        class.  Swaps and other changes that keep the multiset map back to
        ``counts`` itself.
        """
        return {successor for successor, _ in self._expand(counts)}

    # -- lifting (identity here; the quotient chain overrides) -----------------

    #: Whether a nontrivial symmetry group is folded (only a quotient chain's can be).
    is_quotiented = False

    @property
    def num_source_configurations(self) -> int:
        """Reachable configurations of the *unquotiented* source chain.

        Equal to :attr:`num_configurations` on the base chain; the quotient
        chain sums its orbit sizes so exact reports keep unquotiented
        semantics.
        """
        return len(self.counts)

    def source_count(self, indices: Iterable[int]) -> int:
        """How many source configurations a set of chain indices stands for."""
        return sum(1 for _ in indices)

    def lift_class_counts(self, members: list[int]) -> list[list[Counts]]:
        """The source-chain closed classes one chain class stands for, as count tuples.

        The base chain is its own source chain, so a closed class lifts to
        itself: a single class.  The quotient chain expands a class of orbit
        representatives back into the unquotiented closed classes covering
        it.  Members come back in canonical rank order (:meth:`rank`) on
        every chain, so class summaries — example configuration included —
        are identical whether or not the chain was quotiented.
        """
        configurations = [self.counts[member] for member in members]
        if len(configurations) > 1:
            configurations.sort(key=self.rank)
        return [configurations]

    def states_of(self, index: int) -> list[State]:
        """The configuration at ``index`` expanded to a deterministic state list."""
        return expand_multiset(self.configuration(index))

    def output_histogram(self, counts: Counts) -> tuple[tuple[int, int], ...]:
        """The sorted ``(color, agents)`` output histogram of a count tuple."""
        output = self.protocol.output
        histogram: dict[int, int] = {}
        for code, count in enumerate(counts):
            if count:
                color = output(self.states[code])
                histogram[color] = histogram.get(color, 0) + count
        return tuple(sorted(histogram.items()))

    def output_key(self, index: int) -> tuple[tuple[int, int], ...]:
        """The sorted ``(color, agents)`` output histogram of a configuration.

        The same observable the engine conformance tests histogram
        (``tuple(sorted(engine.output_counts().items()))``).
        """
        return self.output_histogram(self.counts[index])
    # -- distributions --------------------------------------------------------

    def distribution_after(self, interactions: int) -> dict[int, Fraction | float]:
        """The exact distribution over configurations after ``t`` interactions.

        Sparse vector-matrix iteration from the initial point mass; exact in
        ``"exact"`` mode, float64 otherwise.  Cost is
        ``O(t · nonzero entries of the visited rows)``.
        """
        if interactions < 0:
            raise ValueError("the interaction count must be non-negative")
        one = Fraction(1) if self.arithmetic == "exact" else 1.0
        distribution: dict[int, Fraction | float] = {self.initial_index: one}
        for _ in range(interactions):
            successor: dict[int, Fraction | float] = {}
            for index, mass in distribution.items():
                for target, probability in self.rows[index].items():
                    contribution = mass * probability
                    if target in successor:
                        successor[target] += contribution
                    else:
                        successor[target] = contribution
            distribution = successor
        return distribution

    def output_distribution_after(
        self, interactions: int
    ) -> dict[tuple[tuple[int, int], ...], Fraction | float]:
        """The exact distribution over *output histograms* after ``t`` interactions.

        Projects :meth:`distribution_after` through :meth:`output_key` — the
        observable the stochastic engines are conformance-tested on.
        """
        projected: dict[tuple[tuple[int, int], ...], Fraction | float] = {}
        for index, mass in self.distribution_after(interactions).items():
            key = self.output_key(index)
            if key in projected:
                projected[key] += mass
            else:
                projected[key] = mass
        return projected
