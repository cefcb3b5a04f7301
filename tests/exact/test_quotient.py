"""Tests for the symmetry-quotiented exact chain and its lifting surface.

The contract under test is the one :mod:`repro.exact.quotient` documents:
the quotient is an *internal* optimization — every reported quantity keeps
unquotiented semantics, bit for bit in rational mode, with ``num_orbits``
as the only trace that a quotient happened.
"""

import math
import random
from fractions import Fraction

import pytest

import repro  # noqa: F401  (populates the protocol registry)
from repro.core.circles import CirclesProtocol
from repro.exact import (
    ChainTooLarge,
    ConfigurationChain,
    ExactMarkovEngine,
    QuotientChain,
    SolveTooLarge,
    closed_classes,
    exact_expected_convergence,
)
from repro.exact.golden import GOLDEN_CASES
from repro.protocols.base import PopulationProtocol, TransitionResult
from repro.protocols.exact_majority import ExactMajorityProtocol
from repro.protocols.registry import DEFAULT_REGISTRY, get_protocol
from repro.simulation.convergence import OutputConsensus, StableCircles

#: A perfectly tied two-color input: its stabilizer contains the color swap.
TIED = (0, 0, 1, 1)

#: Chain cap for the registry-wide matrix — small enough that protocols with
#: huge reachable spaces (circles-unordered) skip fast instead of stalling
#: the suite in rational arithmetic.
MATRIX_CAP = 500


class TestSuccessors:
    """The source transition relation :meth:`QuotientChain.lift_class_counts` walks."""

    def test_two_diagonals_have_one_successor(self):
        chain = ConfigurationChain.from_colors(CirclesProtocol(2), (0, 1))
        assert len(chain.successors(chain.counts[0])) == 1

    def test_same_state_pair_needs_two_copies(self):
        chain = ConfigurationChain.from_colors(ExactMajorityProtocol(), (0, 1))
        # Only the cross pair can fire; the identical-state self pair must not be invented.
        assert len(chain.successors(chain.counts[0])) == 1

    def test_silent_configuration_has_no_successors(self):
        # Everyone identical: nothing can change.
        chain = ConfigurationChain.from_colors(CirclesProtocol(2), (1, 1, 1))
        assert chain.successors(chain.counts[0]) == set()

    def test_compiled_and_dispatch_paths_agree(self, request):
        chain = ConfigurationChain.from_colors(CirclesProtocol(3), (0, 0, 1, 2))
        request.getfixturevalue("force_uncompiled")
        fallback = ConfigurationChain.from_colors(CirclesProtocol(3), (0, 0, 1, 2))
        assert chain.compiled is not None and fallback.compiled is None
        assert chain.keys == fallback.keys
        position = {counts: index for index, counts in enumerate(chain.counts)}
        for index in range(chain.num_configurations):
            successors = chain.successors(chain.counts[index])
            assert {chain.decode(counts).frozen() for counts in successors} == {
                fallback.decode(counts).frozen()
                for counts in fallback.successors(fallback.counts[index])
            }
            # The same edges the chain's rows carry, self-loops aside.
            targets = {position[counts] for counts in successors}
            assert targets - {index} == set(chain.rows[index]) - {index}


class TestStabilizer:
    def test_tied_input_is_stabilized_by_the_color_swap(self):
        chain = QuotientChain.from_colors(CirclesProtocol(2), TIED)
        assert chain.stabilizer_order == 2
        assert chain.is_quotiented
        assert chain.symmetry is not None

    def test_untied_input_has_a_trivial_stabilizer(self):
        # The protocol has the swap symmetry, but (0, 0, 1) is not fixed by
        # it — quotienting by the full group would skew the trajectory
        # measure, so only the stabilizer may be folded.
        chain = QuotientChain.from_colors(CirclesProtocol(2), (0, 0, 1))
        assert chain.stabilizer_order == 1
        assert not chain.is_quotiented

    def test_trivial_stabilizer_chain_is_bit_identical_to_the_base_chain(self):
        quotient = QuotientChain.from_colors(
            CirclesProtocol(2), (0, 0, 1), arithmetic="exact"
        )
        plain = ConfigurationChain.from_colors(
            CirclesProtocol(2), (0, 0, 1), arithmetic="exact"
        )
        assert quotient.keys == plain.keys
        assert quotient.rows == plain.rows
        assert quotient.change_probability == plain.change_probability

    def test_ordered_circles_k3_stabilizer_is_cyclic(self):
        # Ordered Circles is equivariant under color *rotations* only (the
        # order relation breaks reflections): the all-tie k=3 stabilizer is
        # the cyclic group of order 3, not S3.
        chain = QuotientChain.from_colors(CirclesProtocol(3), (0, 0, 1, 1, 2, 2))
        assert chain.stabilizer_order == 3

    def test_uncompiled_chain_degrades_to_the_trivial_group(self, force_uncompiled):
        chain = QuotientChain.from_colors(CirclesProtocol(2), TIED)
        assert chain.compiled is None
        assert chain.stabilizer_order == 1
        plain = ConfigurationChain.from_colors(CirclesProtocol(2), TIED)
        assert plain.compiled is None
        assert chain.keys == plain.keys


class TestOrbits:
    def test_orbit_sizes_sum_to_the_source_configuration_count(self):
        quotient = QuotientChain.from_colors(CirclesProtocol(2), TIED)
        plain = ConfigurationChain.from_colors(CirclesProtocol(2), TIED)
        assert quotient.num_configurations < plain.num_configurations
        assert quotient.num_source_configurations == plain.num_configurations
        total = sum(
            quotient.orbit_size(index)
            for index in range(quotient.num_configurations)
        )
        assert total == plain.num_configurations

    def test_orbit_keys_are_closed_under_the_stabilizer(self):
        quotient = QuotientChain.from_colors(CirclesProtocol(2), TIED)
        plain = ConfigurationChain.from_colors(CirclesProtocol(2), TIED)
        source_keys = set(plain.counts)
        seen = set()
        for index in range(quotient.num_configurations):
            members = quotient.orbit_keys(index)
            assert len(members) in (1, 2)  # stabilizer order 2
            seen.update(members)
        assert seen == source_keys

    def test_lifted_output_distribution_matches_the_source_chain_exactly(self):
        quotient = QuotientChain.from_colors(
            CirclesProtocol(2), TIED, arithmetic="exact"
        )
        plain = ConfigurationChain.from_colors(
            CirclesProtocol(2), TIED, arithmetic="exact"
        )
        for interactions in (0, 1, 3, 9):
            assert quotient.output_distribution_after(
                interactions
            ) == plain.output_distribution_after(interactions)

    def test_lifted_distribution_stays_normalized(self):
        quotient = QuotientChain.from_colors(CirclesProtocol(2), TIED)
        for interactions in (0, 4):
            total = sum(quotient.output_distribution_after(interactions).values())
            assert math.isclose(total, 1.0, abs_tol=1e-12)


class TestEngineBitIdentity:
    @pytest.mark.parametrize("name", sorted(DEFAULT_REGISTRY.names()))
    def test_rational_results_are_bit_identical_across_the_registry(self, name):
        protocol = get_protocol(name, 2)
        results = []
        for quotient in (True, False):
            try:
                engine = ExactMarkovEngine.from_colors(
                    protocol,
                    TIED,
                    arithmetic="exact",
                    quotient=quotient,
                    max_configurations=MATRIX_CAP,
                )
                engine.run(0)
            except (ChainTooLarge, SolveTooLarge):
                pytest.skip(f"{name} exceeds the exact caps at n=4")
            results.append(engine.distribution_result.to_dict())
        quotiented, plain = results
        # ``num_orbits`` is the one documented difference; everything else —
        # class ordering, examples, rational strings — must match bit for bit.
        quotiented.pop("num_orbits")
        assert plain.pop("num_orbits") is None
        assert quotiented == plain

    def test_criterion_run_is_bit_identical_for_circles(self):
        results = []
        for quotient in (True, False):
            engine = ExactMarkovEngine.from_colors(
                CirclesProtocol(2),
                TIED,
                arithmetic="exact",
                quotient=quotient,
            )
            engine.run(0, criterion=StableCircles())
            results.append(engine.distribution_result.to_dict())
        quotiented, plain = results
        assert quotiented.pop("num_orbits") is not None
        assert plain.pop("num_orbits") is None
        assert quotiented == plain

    def test_num_orbits_traces_the_quotient(self):
        engine = ExactMarkovEngine.from_colors(
            CirclesProtocol(2), TIED, arithmetic="exact"
        )
        engine.run(0)
        result = engine.distribution_result
        assert result.num_orbits is not None
        assert result.num_orbits < result.num_configurations


class TestCriterionFallback:
    def test_color_naming_criterion_falls_back_to_the_unquotiented_chain(self):
        engine = ExactMarkovEngine.from_colors(CirclesProtocol(2), TIED)
        criterion = OutputConsensus(target=0)
        assert not criterion.symmetry_invariant
        engine.run(0, criterion=criterion)
        assert engine.distribution_result.num_orbits is None

    def test_color_blind_consensus_keeps_the_quotient(self):
        engine = ExactMarkovEngine.from_colors(CirclesProtocol(2), TIED)
        criterion = OutputConsensus()
        assert criterion.symmetry_invariant
        engine.run(0, criterion=criterion)
        assert engine.distribution_result.num_orbits is not None

    def test_fallback_and_quotient_agree_on_the_target_probability(self):
        # The fallback result is computed on the source chain, so the
        # symmetric input's per-color consensus probability must be exactly
        # half the color-blind consensus probability.
        blind = ExactMarkovEngine.from_colors(
            CirclesProtocol(2), TIED, arithmetic="exact"
        )
        blind.run(0, criterion=OutputConsensus())
        targeted = ExactMarkovEngine.from_colors(
            CirclesProtocol(2), TIED, arithmetic="exact"
        )
        targeted.run(0, criterion=OutputConsensus(target=0))
        blind_probability = blind.distribution_result.criterion_probability
        targeted_probability = targeted.distribution_result.criterion_probability
        assert targeted_probability == blind_probability / 2

    @pytest.mark.parametrize("colors", [TIED, (0, 0, 0, 1, 1)])
    def test_color_naming_run_builds_one_chain(self, monkeypatch, colors):
        # The chain is picked from the criterion up front: no quotient chain
        # is built first and then set aside for the plain one.
        built = []
        explore = ConfigurationChain._explore

        def counting_explore(chain, *args):
            built.append(type(chain))
            return explore(chain, *args)

        monkeypatch.setattr(ConfigurationChain, "_explore", counting_explore)
        engine = ExactMarkovEngine.from_colors(CirclesProtocol(2), colors, arithmetic="exact")
        engine.run(0, criterion=OutputConsensus(target=0))
        assert built == [ConfigurationChain]
        plain = ExactMarkovEngine.from_colors(
            CirclesProtocol(2), colors, arithmetic="exact", quotient=False
        )
        plain.run(0, criterion=OutputConsensus(target=0))
        assert engine.distribution_result.to_dict() == plain.distribution_result.to_dict()
        assert engine.distribution_result.num_orbits is None

    def test_convenience_function_gates_the_quotient_on_invariance(self):
        # A majority input: StableCircles is almost sure, so the expectation
        # exists and must agree across the quotiented and plain pipelines.
        colors = (0, 0, 0, 1, 1)
        expected = exact_expected_convergence(
            CirclesProtocol(2), colors, StableCircles()
        )
        unquotiented = exact_expected_convergence(
            CirclesProtocol(2), colors, StableCircles(), quotient=False
        )
        assert expected is not None
        assert math.isclose(expected, unquotiented, rel_tol=1e-9)
        # A color-naming criterion flips the gate off internally; the call
        # must still succeed (and agree with the explicit opt-out).
        targeted = exact_expected_convergence(
            CirclesProtocol(2), colors, OutputConsensus(target=0)
        )
        targeted_plain = exact_expected_convergence(
            CirclesProtocol(2), colors, OutputConsensus(target=0), quotient=False
        )
        assert targeted == targeted_plain


class TestScale:
    """The acceptance case: tied circles k=3 fits only through the quotient."""

    COLORS = (0, 0, 1, 1, 2, 2)
    #: Between the quotient size (192 orbits) and the source size (560).
    CAP = 500

    def test_unquotiented_chain_exceeds_the_cap(self):
        with pytest.raises(ChainTooLarge):
            ConfigurationChain.from_colors(
                CirclesProtocol(3), self.COLORS, max_configurations=self.CAP
            )

    def test_quotient_solves_the_same_input_exactly(self):
        engine = ExactMarkovEngine.from_colors(
            CirclesProtocol(3),
            self.COLORS,
            arithmetic="exact",
            max_configurations=self.CAP,
        )
        engine.run(0)
        result = engine.distribution_result
        # Unquotiented semantics, reconstructed from 192 orbit
        # representatives: 560 source configurations and the exact expected
        # absorption time of the *source* chain.
        assert result.num_orbits == 192
        assert result.num_configurations == 560
        assert result.expected_interactions_exact == "335/14"
        assert math.isclose(
            sum(summary.probability for summary in result.classes), 1.0
        )

    def test_engine_quotient_flag_off_raises_at_the_same_cap(self):
        engine = ExactMarkovEngine.from_colors(
            CirclesProtocol(3),
            self.COLORS,
            quotient=False,
            max_configurations=self.CAP,
        )
        with pytest.raises(ChainTooLarge):
            engine.run(0)


class TestAbsorptionLift:
    def test_lifted_class_probabilities_sum_to_one_exactly(self):
        engine = ExactMarkovEngine.from_colors(
            CirclesProtocol(2), TIED, arithmetic="exact"
        )
        engine.run(0)
        result = engine.distribution_result
        assert result.num_orbits is not None
        probabilities = [
            Fraction(summary.probability_exact) for summary in result.classes
        ]
        assert sum(probabilities) == 1
        assert all(probability > 0 for probability in probabilities)

    def test_lift_classes_splits_a_symmetric_orbit_into_source_classes(self):
        chain = QuotientChain.from_colors(
            CirclesProtocol(2), TIED, arithmetic="exact"
        )
        plain = ConfigurationChain.from_colors(
            CirclesProtocol(2), TIED, arithmetic="exact"
        )
        # Total lifted classes over all quotient absorbing states must cover
        # exactly the source chain's absorbing states, with no duplicates.
        quotient_absorbing = [
            index
            for index, row in enumerate(chain.rows)
            if set(row) == {index}
        ]
        lifted = []
        for index in quotient_absorbing:
            lifted.extend(chain.lift_class_counts([index]))
        source_absorbing = {
            plain.keys[index]
            for index, row in enumerate(plain.rows)
            if set(row) == {index}
        }
        members = [
            configuration
            for conf_class in lifted
            for configuration in conf_class
        ]
        assert len(members) == len(source_absorbing)


def _near_tied_inputs(count=12, seed=2024):
    """Seeded inputs where colors tie, on protocols whose symmetries fix them.

    Protocols symmetric under every color permutation get two tied colors
    and a third that may differ; ordered Circles variants (cyclic symmetry)
    get all colors tied.
    """
    rng = random.Random(seed)
    permuting = ("cancellation-plurality", "per-color-leader-election", "tournament-plurality")
    cyclic = ("circles", "circles-tie-report")
    inputs = []
    while len(inputs) < count:
        name = rng.choice(permuting + cyclic)
        k = rng.choice((2, 3))
        tied = rng.randint(1, 2)
        counts = [tied] * k
        if name in permuting and k == 3:
            counts[2] = rng.randint(1, 3)
        colors = tuple(color for color, agents in enumerate(counts) for _ in range(agents))
        if len(colors) >= 2:
            inputs.append((name, k, colors))
    return inputs


class FlippingVoter(PopulationProtocol[tuple[int, int]]):
    """Voter dynamics with a bit each agent flips when it meets its own color.

    A responder of another color adopts the initiator's color; a same-color
    initiator flips its bit.  Every closed class is one color's consensus
    with every bit pattern — ``n + 1`` configurations, not a silent
    singleton as in the registry protocols — and the protocol is symmetric
    under every color permutation.
    """

    name = "flipping-voter"

    def states(self):
        return [(color, bit) for color in range(self.num_colors) for bit in (0, 1)]

    def initial_state(self, color):
        return (color, 0)

    def output(self, state):
        return state[0]

    def transition(self, initiator, responder):
        if initiator[0] != responder[0]:
            a, b = initiator, (initiator[0], responder[1])
        else:
            a, b = (initiator[0], 1 - initiator[1]), responder
        return TransitionResult(a, b, (a, b) != (initiator, responder))

    def compile_signature(self):
        return (type(self), self.num_colors)


#: Inputs whose closed classes have several members, lifting to 1–3 source classes.
VOTER_INPUTS = ((2, (0, 0, 1, 1)), (3, (0, 1, 2)), (3, (0, 0, 1, 1, 2)), (3, (0, 0, 1, 1, 2, 2)))


def _quotiented_chains():
    """Every quotiented golden case, the tied k=3 input, seeded near-tied inputs
    and the voter inputs."""
    cases = [(name, k, colors) for name, k, colors in GOLDEN_CASES]
    cases.append(("circles", 3, TestScale.COLORS))
    cases.extend(_near_tied_inputs())
    chains = []
    for name, k, colors in cases:
        chain = QuotientChain.from_colors(get_protocol(name, k), colors, max_configurations=2000)
        if chain.is_quotiented:
            chains.append(((name, k, colors), chain))
    for k, colors in VOTER_INPUTS:
        chains.append(((FlippingVoter.name, k, colors), QuotientChain.from_colors(
            FlippingVoter(k), colors
        )))
    return chains


class TestLiftByImages:
    """``lift_class_counts`` (one BFS plus stabilizer images) equals the whole-preimage walk."""

    def test_matches_the_bfs_lift_on_every_quotiented_case(self, bfs_lift):
        chains = _quotiented_chains()
        golden = sum(1 for case, _chain in chains if case in GOLDEN_CASES)
        assert golden >= 1 and len(chains) >= golden + 10
        for case, chain in chains:
            for members in closed_classes(chain.weights):
                assert chain.lift_class_counts(members) == bfs_lift(chain, members), case

    def test_voter_classes_have_several_members_and_images(self):
        lifts = [
            chain.lift_class_counts(members)
            for case, chain in _quotiented_chains()
            if case[0] == FlippingVoter.name
            for members in closed_classes(chain.weights)
        ]
        assert {len(lift) for lift in lifts} == {1, 2, 3}
        assert min(len(conf_class) for lift in lifts for conf_class in lift) >= 4

    @pytest.mark.parametrize("k,colors", VOTER_INPUTS, ids=str)
    def test_voter_results_are_bit_identical_across_the_quotient(self, k, colors):
        results = []
        for quotient in (True, False):
            engine = ExactMarkovEngine.from_colors(
                FlippingVoter(k), colors, arithmetic="exact", quotient=quotient
            )
            engine.run(0)
            results.append(engine.distribution_result.to_dict())
        quotiented, plain = results
        assert quotiented.pop("num_orbits") is not None
        assert plain.pop("num_orbits") is None
        assert quotiented == plain

    def test_orbit_sizes_equal_the_orbits(self):
        for case, chain in _quotiented_chains():
            sizes = [chain.orbit_size(index) for index in range(chain.num_configurations)]
            assert sizes == [
                len(chain.orbit_keys(index)) for index in range(chain.num_configurations)
            ], case

    def test_input_that_is_not_one_closed_class_is_refused(self):
        chain = QuotientChain.from_colors(CirclesProtocol(3), TestScale.COLORS)
        classes = closed_classes(chain.weights)
        closed = {member for members in classes for member in members}
        transient = [index for index in range(chain.num_configurations) if index not in closed]
        with pytest.raises(ValueError, match="closed class"):
            chain.lift_class_counts(transient[:1])
        with pytest.raises(ValueError, match="closed class"):
            chain.lift_class_counts(classes[0] + classes[1])
