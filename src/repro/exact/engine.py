"""The exact Markov-chain engine — ``get_engine("exact")``.

Where the stochastic engines *sample* the uniform-random-scheduler chain, the
exact engine *solves* it: ``run`` enumerates the reachable configuration
space (:class:`~repro.exact.chain.ConfigurationChain`), computes absorption
probabilities into every stable class, the exact expected number of
interactions to convergence and the exact correctness probability
(:mod:`repro.exact.absorption`), and reports them as a
:class:`~repro.exact.result.DistributionResult` on
:attr:`ExactMarkovEngine.distribution_result`.

The engine implements the shared :class:`~repro.simulation.base.SimulationEngine`
surface so it drives through ``run_protocol`` / ``run_circles``, ``RunSpec``
sweeps and the experiment harness like any other engine, with these
deliberate differences (it is an analytical engine, not a sampler):

* ``seed`` is accepted and ignored — there is no randomness;
* ``max_steps`` does not bound any loop; it only caps the *reported*
  ``steps_taken`` when the criterion is not almost surely reached (matching
  a stochastic engine that exhausts its budget);
* after ``run``, ``steps_taken`` / ``interactions_changed`` hold the exact
  **expected** interaction counts (floats in float mode, exact rationals
  coerced to float for reporting), and ``states()`` returns the *modal*
  stable outcome — a representative configuration of the most probable
  stable class — so ``outputs()`` and downstream reporting stay meaningful;
* observers may be attached but never receive ``on_delta`` events (no
  trajectory is simulated); ``on_finish`` fires as usual.

State-space limits: the chain is enumerated exhaustively, so the engine is
for *small* populations (the cap raises
:class:`~repro.exact.chain.ChainTooLarge`, and the fundamental-matrix solve
raises :class:`~repro.exact.solve.SolveTooLarge` when the largest strongly
connected component of the transient chain is past its cap).  That is the
point: at small ``n`` it is ground truth the stochastic engines are
conformance-tested against, not a fast path.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from fractions import Fraction
from operator import itemgetter
from typing import ClassVar, TypeVar

from repro.compile import CompiledProtocol
from repro.core.greedy_sets import unique_majority
from repro.exact.absorption import (
    AbsorptionAnalysis,
    HittingAnalysis,
    analyze_absorption,
    hitting_analysis,
)
from repro.exact.chain import (
    DEFAULT_MAX_CONFIGURATIONS,
    ConfigurationChain,
    Counts,
    expand_multiset,
)
from repro.exact.quotient import QuotientChain
from repro.exact.result import (
    DistributionResult,
    StableClassSummary,
    as_float,
    as_probability,
    rational_string,
)
from repro.protocols.base import PopulationProtocol
from repro.simulation.base import SimulationEngine
from repro.simulation.convergence import ConvergenceCriterion, SilentConfiguration
from repro.utils.multiset import Multiset
from repro.utils.rng import RngLike

State = TypeVar("State", bound=Hashable)

#: One source-chain stable class: the rank of its first member (see
#: :meth:`ConfigurationChain.rank`), its probability and its configurations.
LiftedClass = tuple[tuple[tuple[str, int], ...], Fraction | float, list[Counts]]


def criterion_predicate(
    chain: ConfigurationChain[State], criterion: ConvergenceCriterion[State]
) -> Callable[[int], bool]:
    """The criterion's verdict on a chain index, answered on count tuples first.

    Mirrors :meth:`repro.simulation.base.ConfigurationEngine._evaluate`:
    silence is "no interaction changes anything", which is exactly
    ``change_weights == 0``; other criteria judge the count tuple over the
    chain's codes (:meth:`~repro.simulation.convergence.ConvergenceCriterion.is_converged_counts`).
    """
    if isinstance(criterion, SilentConfiguration):
        return lambda index: not chain.change_weights[index]
    protocol, codes, counts = chain.protocol, chain.codes, chain.counts
    return lambda index: criterion.is_converged_counts(protocol, codes, counts[index])


class ExactMarkovEngine(SimulationEngine[State]):
    """Exact distribution-level analysis behind the engine interface."""

    engine_name: ClassVar[str] = "exact"
    tracks_agents: ClassVar[bool] = False
    #: The exact engine solves the chain instead of sampling trajectories;
    #: trajectory-level suites (conformance matrix, agreement tests) filter
    #: on this flag.
    samples_trajectories: ClassVar[bool] = False

    def __init__(
        self,
        protocol: PopulationProtocol[State],
        initial: Iterable[State] | Multiset[State],
        seed: RngLike = None,
        arithmetic: str = "float",
        max_configurations: int = DEFAULT_MAX_CONFIGURATIONS,
        quotient: bool = True,
    ) -> None:
        self.protocol = protocol
        configuration = initial if isinstance(initial, Multiset) else Multiset(initial)
        if len(configuration) < 2:
            raise ValueError("a population needs at least two agents")
        self._initial = configuration.copy()
        self._num_agents = len(configuration)
        self.arithmetic = arithmetic
        self.max_configurations = max_configurations
        #: Fold the chain by the input's color-symmetry stabilizer
        #: (:class:`~repro.exact.quotient.QuotientChain`).  On by default:
        #: with a trivial stabilizer the chain is bit-identical to the
        #: unquotiented one, and with a nontrivial one every reported field
        #: is lifted back to unquotiented semantics, so results agree
        #: bit-for-bit in rational mode either way.
        self.quotient = quotient
        self.steps_taken = 0
        self.interactions_changed = 0
        #: The chains built so far, keyed by whether they are quotiented.
        self._chains: dict[bool, ConfigurationChain[State]] = {}
        self._final: Multiset[State] | None = None
        #: The :class:`DistributionResult` of the last ``run`` (None before).
        self.distribution_result: DistributionResult | None = None
        self._init_observers()

    @classmethod
    def from_colors(
        cls,
        protocol: PopulationProtocol[State],
        colors: Iterable[int],
        seed: RngLike = None,
        **kwargs: object,
    ) -> "ExactMarkovEngine[State]":
        """Create the initial configuration from input colors."""
        return cls(
            protocol,
            (protocol.initial_state(color) for color in colors),
            seed,
            **kwargs,
        )

    # -- engine surface --------------------------------------------------------

    @property
    def num_agents(self) -> int:
        return self._num_agents

    def states(self) -> list[State]:
        """The initial configuration before ``run``; the modal stable outcome after."""
        return expand_multiset(
            self._final if self._final is not None else self._initial
        )

    def configuration(self) -> Multiset[State]:
        """A copy of the configuration :meth:`states` reports."""
        source = self._final if self._final is not None else self._initial
        return source.copy()

    @property
    def compiled_protocol(self) -> CompiledProtocol | None:
        """The compiled tables the engine's chain enumerates with, if any.

        ``None`` before a chain is built (the first ``run`` or :attr:`chain`
        builds it) and when the protocol's δ-closure exceeds the compile cap.
        """
        chain = next(iter(self._chains.values()), None)
        return None if chain is None else chain.compiled

    @property
    def chain(self) -> ConfigurationChain[State]:
        """The underlying configuration chain (built on first use).

        A :class:`~repro.exact.quotient.QuotientChain` when ``quotient`` is
        enabled; ``max_configurations`` then caps *orbit representatives*,
        which is what extends the engine's reach on symmetric inputs.
        """
        return self._build_chain(self.quotient)

    def _build_chain(self, quotient: bool) -> ConfigurationChain[State]:
        """The quotient or the plain chain of the input, built once each."""
        chain = self._chains.get(quotient)
        if chain is None:
            chain_cls = QuotientChain if quotient else ConfigurationChain
            chain = self._chains[quotient] = chain_cls(
                self.protocol,
                self._initial,
                arithmetic=self.arithmetic,
                max_configurations=self.max_configurations,
            )
        return chain

    def _chain_for(
        self, criterion: ConvergenceCriterion[State] | None
    ) -> ConfigurationChain[State]:
        """The one chain a run with ``criterion`` solves.

        A criterion that can distinguish configurations within a symmetry
        orbit (``symmetry_invariant = False``) cannot be evaluated on orbit
        representatives, so such runs solve the unquotiented chain;
        criterion-free runs and invariant criteria keep the quotient's reach.
        """
        invariant = criterion is None or criterion.symmetry_invariant
        return self._build_chain(self.quotient and invariant)

    def _advance(self, max_interactions: int) -> int:  # pragma: no cover - unreachable
        raise RuntimeError(
            "the exact engine does not sample trajectories; call run()"
        )

    def _converged(self, criterion) -> bool:  # pragma: no cover - unreachable
        raise RuntimeError(
            "the exact engine does not sample trajectories; call run()"
        )

    # -- the solve -------------------------------------------------------------

    def run(
        self,
        max_steps: int,
        criterion: ConvergenceCriterion[State] | None = None,
        check_interval: int | None = None,
    ) -> bool:
        """Solve the chain instead of simulating it.

        Args:
            max_steps: no loop to bound; only caps the reported
                ``steps_taken`` when the criterion is not almost sure.
            criterion: when given, the exact first-hitting analysis of the
                criterion (probability it ever holds, expected interactions
                until it first does) is computed alongside absorption; the
                returned verdict is "the criterion holds almost surely".
            check_interval: accepted for interface compatibility (validated,
                otherwise ignored — exact analysis has no checking cadence).

        Returns:
            With a criterion: whether it is almost surely eventually
            satisfied.  Without one: True (a finite chain enters a stable
            class almost surely).
        """
        self._validate_run_arguments(max_steps, check_interval)
        chain = self._chain_for(criterion)
        absorption = analyze_absorption(chain)
        hitting: HittingAnalysis | None = None
        if criterion is not None:
            hitting = hitting_analysis(chain, criterion_predicate(chain, criterion))
        lifted = self._lifted_classes(chain, absorption)
        self.distribution_result = self._build_result(
            chain, absorption, hitting, criterion, lifted
        )
        self._final = self._modal_outcome(chain, lifted)
        if hitting is not None:
            converged = hitting.almost_sure
            if converged:
                self.steps_taken = as_float(hitting.expected_interactions)
                self.interactions_changed = as_float(hitting.expected_changed_interactions)
            else:
                self.steps_taken = max_steps
                self.interactions_changed = as_float(
                    absorption.expected_changed_interactions
                )
        else:
            converged = True
            self.steps_taken = as_float(absorption.expected_interactions)
            self.interactions_changed = as_float(
                absorption.expected_changed_interactions
            )
        return self._finish(converged)

    def _lifted_classes(
        self, chain: ConfigurationChain[State], absorption: AbsorptionAnalysis
    ) -> list[LiftedClass]:
        """``(rank, probability, configurations)`` per *source-chain* stable class.

        On a quotiented chain each closed class stands for an orbit of
        source-chain classes, entered with equal probability (the stabilizer
        preserves the trajectory measure); the lumped probability splits
        evenly across the lift.  On the base chain this is the identity.
        Classes come back in canonical rank order of their smallest member —
        an order both chains can produce (BFS discovery order cannot survive
        the quotient), so quotiented and unquotiented reports are identical
        class for class, modal tie-breaks included.  ``rank`` is that
        member's :meth:`~repro.exact.chain.ConfigurationChain.rank`, computed
        once and reused as the class's example.  Configurations stay count
        tuples; only the modal outcome is decoded.
        """
        lifted: list[LiftedClass] = []
        for class_index, members in enumerate(absorption.classes):
            probability = absorption.class_probabilities[class_index]
            source_classes = chain.lift_class_counts(members)
            share = probability if len(source_classes) == 1 else probability / len(source_classes)
            for configurations in source_classes:
                lifted.append((chain.rank(configurations[0]), share, configurations))
        lifted.sort(key=itemgetter(0))
        return lifted

    def _modal_outcome(
        self, chain: ConfigurationChain[State], lifted: list[LiftedClass]
    ) -> Multiset[State]:
        """A representative configuration of the most probable stable class.

        The first in rank order among equally probable classes.
        """
        probabilities = [probability for _rank, probability, _members in lifted]
        best = probabilities.index(max(probabilities))
        return chain.decode(lifted[best][2][0])

    def _build_result(
        self,
        chain: ConfigurationChain[State],
        absorption: AbsorptionAnalysis,
        hitting: HittingAnalysis | None,
        criterion: ConvergenceCriterion[State] | None,
        lifted: list[LiftedClass],
    ) -> DistributionResult:
        protocol = self.protocol
        color_counts = self._input_color_counts()
        majority = None if color_counts is None else unique_majority(color_counts)
        classes: list[StableClassSummary] = []
        correctness: Fraction | float | None = None
        outputs = [protocol.output(state) for state in chain.states]
        for class_index, (rank, probability, configurations) in enumerate(lifted):
            unanimous = _unanimous_output(outputs, configurations)
            correct = None if majority is None else unanimous == majority
            if correct:
                correctness = probability if correctness is None else correctness + probability
            classes.append(
                StableClassSummary(
                    index=class_index,
                    size=len(configurations),
                    probability=as_probability(probability),
                    probability_exact=rational_string(probability),
                    unanimous_output=unanimous,
                    correct=correct,
                    example=[list(pair) for pair in rank],
                )
            )
        if majority is not None and correctness is None:
            correctness = Fraction(0) if chain.arithmetic == "exact" else 0.0
        if majority is not None and classes and all(entry.correct for entry in classes):
            # Structural fact: the chain enumerates only reachable
            # configurations, so "every stable class is correct" means the
            # correctness probability is exactly one — don't let float-mode
            # solver rounding (1 - O(ulp)) blur an almost-sure verdict.
            correctness = Fraction(1) if chain.arithmetic == "exact" else 1.0
        quotiented = chain.is_quotiented
        return DistributionResult(
            protocol_name=protocol.name,
            num_agents=self._num_agents,
            num_colors=protocol.num_colors,
            arithmetic=chain.arithmetic,
            num_configurations=chain.num_source_configurations,
            num_transient=chain.source_count(absorption.transient),
            num_classes=len(classes),
            num_orbits=chain.num_configurations if quotiented else None,
            majority=majority,
            correctness_probability=as_probability(correctness),
            correctness_probability_exact=rational_string(correctness),
            expected_interactions=as_float(absorption.expected_interactions),
            expected_interactions_exact=rational_string(absorption.expected_interactions),
            expected_changed_interactions=as_float(
                absorption.expected_changed_interactions
            ),
            criterion=getattr(criterion, "name", None) if criterion is not None else None,
            criterion_probability=(
                None if hitting is None else as_probability(hitting.probability)
            ),
            expected_interactions_to_criterion=(
                None if hitting is None else as_float(hitting.expected_interactions)
            ),
            expected_changed_to_criterion=(
                None if hitting is None else as_float(hitting.expected_changed_interactions)
            ),
            classes=classes,
        )

    def _input_color_counts(self) -> dict[int, int] | None:
        """Recover the input's ``color -> agents`` counts when the initial states are initial states.

        The correctness probability is defined relative to the input's
        unique majority; when the engine was constructed from arbitrary
        mid-run states (no color-preimage), majority-based fields are None.
        """
        counts: dict[int, int] = {}
        initial_of: dict[State, int] = {}
        for color in range(self.protocol.num_colors):
            initial_of.setdefault(self.protocol.initial_state(color), color)
        for state, count in self._initial.items():
            color = initial_of.get(state)
            if color is None:
                return None
            counts[color] = counts.get(color, 0) + count
        return counts


def _unanimous_output(outputs: list[int], configurations: list[Counts]) -> int | None:
    """The single output color all agents report across a whole class.

    ``outputs`` maps each state code to its state's output color.
    """
    common: int | None = None
    for counts in configurations:
        for code, count in enumerate(counts):
            if count:
                color = outputs[code]
                if common is None:
                    common = color
                elif color != common:
                    return None
    return common
