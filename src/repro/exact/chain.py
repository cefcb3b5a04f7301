"""The exact configuration-space Markov chain.

Under the uniform random scheduler a population protocol *is* a finite
discrete-time Markov chain over configurations (Definition 1.1): from a
configuration ``C`` of ``n`` agents, an ordered pair of distinct agents is
drawn uniformly among the ``n·(n-1)`` ordered pairs, so the pair of *states*
``(p, q)`` is drawn with probability ``C(p)·C(q) / (n·(n-1))`` (and
``C(p)·(C(p)-1) / (n·(n-1))`` for ``p = q``), after which ``δ`` rewrites the
pair.  :class:`ConfigurationChain` materializes that chain exactly for one
input: it enumerates every configuration reachable from the initial one
(breadth-first, interning each under its canonical :data:`ConfigKey`) and
stores one sparse row of transition probabilities per configuration.  It is
the repository's one configuration graph: the exact engine, the E3 model
checker (:mod:`repro.analysis.verification`) and the verifier's lint probes
all query it.

Probabilities are either exact rationals (``fractions.Fraction``,
``arithmetic="exact"``) or float64 (``arithmetic="float"``, the default — it
is what the golden conformance suite and the experiment columns use; the
rational mode generates the golden files).  Transition evaluation reuses the
compiled δ-tables of :mod:`repro.compile` whenever the protocol's closure
fits the compile cap, with the same transparent fallback to Python dispatch
as the stochastic engines.

The chain itself only knows probabilities; the derived quantities
(absorption into stable classes, expected interactions to convergence,
correctness probability) live in :mod:`repro.exact.absorption`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable
from fractions import Fraction
from typing import Generic, TypeVar

from repro.compile import CompiledProtocol, StateSpaceCapExceeded, compile_from_states
from repro.protocols.base import PopulationProtocol
from repro.utils.multiset import Multiset

State = TypeVar("State", bound=Hashable)

#: A hashable snapshot of a configuration: its frozen ``(state, count)`` pairs.
ConfigKey = frozenset

#: Default cap on the number of enumerated configurations.  The chain cannot
#: work with a truncated graph (probabilities out of missing rows would
#: silently leak mass), so hitting the cap raises :class:`ChainTooLarge`
#: instead of flagging partial results.
DEFAULT_MAX_CONFIGURATIONS = 50_000

#: The two probability representations a chain can carry.
ARITHMETICS = ("float", "exact")


class ChainTooLarge(RuntimeError):
    """The reachable configuration space exceeded the caller's cap."""


def configuration_key(configuration: Multiset[State]) -> ConfigKey:
    """The canonical hashable form of a configuration."""
    return configuration.frozen()


def key_to_multiset(key: ConfigKey) -> Multiset[State]:
    """Rebuild a configuration from its canonical form."""
    return Multiset(dict(key))


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


def configuration_rank(
    configuration: Multiset[State],
) -> tuple[tuple[str, int], ...]:
    """A deterministic total order on configurations: sorted (repr, count) pairs.

    The same repr convention as :func:`expand_multiset`.  Exact reports sort
    stable classes by this rank (not by BFS discovery index, which a
    quotiented chain cannot reproduce), so class numbering agrees between
    quotiented and unquotiented analyses of the same input.
    """
    return tuple(
        sorted((repr(state), count) for state, count in configuration.items())
    )


def _validate_arithmetic(arithmetic: str) -> str:
    if arithmetic not in ARITHMETICS:
        raise ValueError(
            f"unknown arithmetic {arithmetic!r}; expected one of {', '.join(ARITHMETICS)}"
        )
    return arithmetic


class ConfigurationChain(Generic[State]):
    """The exact Markov chain of one protocol input under uniform scheduling.

    Attributes:
        protocol: the protocol whose dynamics the chain encodes.
        arithmetic: ``"exact"`` (``Fraction``) or ``"float"`` (float64).
        num_agents: the (conserved) population size ``n``.
        keys: index -> canonical configuration key, in BFS discovery order;
            index 0 is the initial configuration.
        index: configuration key -> index (inverse of ``keys``).
        rows: per configuration, the sparse transition row
            ``{successor index: probability}``.  Rows sum to one; the
            self-loop entry collects both no-op pairs and changing pairs that
            leave the multiset unchanged (e.g. swaps).
        change_probability: per configuration, the probability that one
            interaction changes at least one agent's state (``δ``'s
            ``changed`` flag, regardless of whether the multiset moves).
        compiled: the compiled δ-tables backing transition evaluation, or
            ``None`` on the fallback path.
    """

    initial_index = 0

    def __init__(
        self,
        protocol: PopulationProtocol[State],
        initial: Iterable[State] | Multiset[State],
        *,
        arithmetic: str = "float",
        max_configurations: int = DEFAULT_MAX_CONFIGURATIONS,
        compiled: bool | None = None,
    ) -> None:
        self.protocol = protocol
        self.arithmetic = _validate_arithmetic(arithmetic)
        configuration = initial if isinstance(initial, Multiset) else Multiset(initial)
        if len(configuration) < 2:
            raise ValueError("a population needs at least two agents")
        self.num_agents = len(configuration)
        self.compiled: CompiledProtocol[State] | None = None
        if compiled is None or compiled:
            try:
                self.compiled = compile_from_states(protocol, configuration.support())
            except StateSpaceCapExceeded:
                self.compiled = None
        self.keys: list[ConfigKey] = []
        self.index: dict[ConfigKey, int] = {}
        self.rows: list[dict[int, Fraction | float]] = []
        self.change_probability: list[Fraction | float] = []
        self._output_keys: list[tuple[tuple[int, int], ...]] = []
        self._prepare(configuration)
        self._explore(configuration, max_configurations)

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

    def _prepare(self, configuration: Multiset[State]) -> None:
        """Hook run after compilation, before the BFS.

        The base chain needs no preparation; :class:`repro.exact.quotient.QuotientChain`
        overrides this to derive the symmetry group whose orbits it folds.
        """

    def _canonical(self, key: ConfigKey) -> ConfigKey:
        """Map a configuration key to the representative the BFS interns.

        Identity here; the quotient chain overrides it with the orbit-minimal
        key under the protocol's color-symmetry group.
        """
        return key

    def _transition(self, initiator: State, responder: State):
        """``δ`` through the compiled table when available."""
        if self.compiled is not None:
            a, b, changed = self.compiled.transition_codes(
                self.compiled.encode(initiator), self.compiled.encode(responder)
            )
            return self.compiled.decode(a), self.compiled.decode(b), changed
        result = self.protocol.transition(initiator, responder)
        return result.initiator, result.responder, result.changed

    def _intern(self, key: ConfigKey, cap: int) -> int:
        # Cap-edge contract (pinned by tests/exact/test_chain.py): re-interning
        # a key that is already present must return its index without ever
        # consulting the cap — even when exactly ``cap`` configurations are
        # interned — and a reachable space of exactly ``cap`` configurations
        # must build successfully.  Only *discovering* configuration ``cap+1``
        # raises.
        existing = self.index.get(key)
        if existing is not None:
            return existing
        if len(self.keys) >= cap:
            raise ChainTooLarge(
                f"configuration chain of {self.protocol.name!r} (n={self.num_agents}) "
                f"exceeded the cap of {cap} configurations"
            )
        index = len(self.keys)
        self.index[key] = index
        self.keys.append(key)
        return index

    def _explore(self, initial: Multiset[State], cap: int) -> None:
        """BFS over reachable configurations, building one exact row each."""
        n = self.num_agents
        denominator = n * (n - 1)
        exact = self.arithmetic == "exact"
        self._intern(self._canonical(configuration_key(initial)), cap)
        # Each index is interned (and enqueued) exactly once, in ascending
        # order, so the BFS processes index i exactly when building row i.
        frontier = deque([0])
        while frontier:
            current_index = frontier.popleft()
            configuration = key_to_multiset(self.keys[current_index])
            support = sorted(configuration.support(), key=repr)
            weights: dict[int, int] = {}
            change_weight = 0
            self_weight = 0
            for initiator in support:
                for responder in support:
                    count_i = configuration.count(initiator)
                    weight = (
                        count_i * (count_i - 1)
                        if initiator == responder
                        else count_i * configuration.count(responder)
                    )
                    if weight == 0:
                        continue
                    new_initiator, new_responder, changed = self._transition(
                        initiator, responder
                    )
                    if changed:
                        change_weight += weight
                    if not changed:
                        self_weight += weight
                        continue
                    successor = configuration.copy()
                    successor.remove(initiator)
                    successor.remove(responder)
                    successor.add(new_initiator)
                    successor.add(new_responder)
                    successor_key = self._canonical(configuration_key(successor))
                    successor_index = self.index.get(successor_key)
                    if successor_index is None:
                        successor_index = self._intern(successor_key, cap)
                        frontier.append(successor_index)
                    weights[successor_index] = (
                        weights.get(successor_index, 0) + weight
                    )
            if self_weight:
                weights[current_index] = weights.get(current_index, 0) + self_weight
            if exact:
                row = {
                    target: Fraction(weight, denominator)
                    for target, weight in weights.items()
                }
                change = Fraction(change_weight, denominator)
            else:
                row = {
                    target: weight / denominator for target, weight in weights.items()
                }
                change = change_weight / denominator
            assert len(self.rows) == current_index
            self.rows.append(row)
            self.change_probability.append(change)
        assert len(self.rows) == len(self.keys)

    # -- inspection -----------------------------------------------------------

    @property
    def num_configurations(self) -> int:
        """How many distinct configurations are reachable from the input."""
        return len(self.keys)

    # -- lifting (identity here; the quotient chain overrides) -----------------

    @property
    def num_source_configurations(self) -> int:
        """Reachable configurations of the *unquotiented* source chain.

        Equal to :attr:`num_configurations` on the base chain; the quotient
        chain sums its orbit sizes so exact reports keep unquotiented
        semantics.
        """
        return len(self.keys)

    def source_count(self, indices: Iterable[int]) -> int:
        """How many source configurations a set of chain indices stands for."""
        return sum(1 for _ in indices)

    def lift_classes(self, members: list[int]) -> list[list[Multiset[State]]]:
        """The source-chain closed classes one chain class stands for.

        The base chain is its own source chain, so a closed class lifts to
        itself: a single class.  The quotient chain expands a class of orbit
        representatives back into the unquotiented closed classes covering
        it.  Members come back in canonical rank order
        (:func:`configuration_rank`) on every chain, so class summaries —
        example configuration included — are identical whether or not the
        chain was quotiented.
        """
        return [
            sorted(
                (key_to_multiset(self.keys[member]) for member in members),
                key=configuration_rank,
            )
        ]

    def configuration(self, index: int) -> Multiset[State]:
        """The configuration multiset at a chain index."""
        return key_to_multiset(self.keys[index])

    def states_of(self, index: int) -> list[State]:
        """The configuration at ``index`` expanded to a deterministic state list."""
        return expand_multiset(self.configuration(index))

    def output_key(self, index: int) -> tuple[tuple[int, int], ...]:
        """The sorted ``(color, agents)`` output histogram of a configuration.

        The same observable the engine conformance tests histogram
        (``tuple(sorted(engine.output_counts().items()))``), cached per
        configuration.
        """
        while len(self._output_keys) < len(self.keys):
            self._output_keys.append(None)  # type: ignore[arg-type]
        cached = self._output_keys[index]
        if cached is None:
            output = self.protocol.output
            counts: dict[int, int] = {}
            for state, count in self.configuration(index).items():
                color = output(state)
                counts[color] = counts.get(color, 0) + count
            cached = tuple(sorted(counts.items()))
            self._output_keys[index] = cached
        return cached

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
