"""Tests for the convergence criteria."""

import pytest

from repro.core.circles import CirclesProtocol
from repro.core.state import CirclesState
from repro.protocols.exact_majority import ExactMajorityProtocol, MajorityState
from repro.simulation.convergence import OutputConsensus, SilentConfiguration, StableCircles
from repro.utils.multiset import Multiset


class TestOutputConsensus:
    def test_agreement_detected(self):
        protocol = CirclesProtocol(3)
        states = [CirclesState(0, 1, 2), CirclesState(1, 0, 2)]
        assert OutputConsensus().is_converged(protocol, states)
        assert OutputConsensus(target=2).is_converged(protocol, states)
        assert not OutputConsensus(target=0).is_converged(protocol, states)

    def test_disagreement_detected(self):
        protocol = CirclesProtocol(3)
        states = [CirclesState(0, 1, 2), CirclesState(1, 0, 1)]
        assert not OutputConsensus().is_converged(protocol, states)

    def test_empty_population_is_not_converged(self):
        assert not OutputConsensus().is_converged(CirclesProtocol(2), [])

    def test_configuration_variant(self):
        protocol = CirclesProtocol(3)
        config = Multiset([CirclesState(0, 1, 2), CirclesState(1, 0, 2), CirclesState(1, 0, 2)])
        assert OutputConsensus().is_converged_configuration(protocol, config)
        assert OutputConsensus(target=2).is_converged_configuration(protocol, config)
        assert not OutputConsensus(target=1).is_converged_configuration(protocol, config)


class TestSilentConfiguration:
    def test_silent_exact_majority_configuration(self):
        protocol = ExactMajorityProtocol()
        silent = [MajorityState(0, True), MajorityState(0, False)]
        assert SilentConfiguration().is_converged(protocol, silent)

    def test_noisy_configuration(self):
        protocol = ExactMajorityProtocol()
        noisy = [MajorityState(0, True), MajorityState(1, True)]
        assert not SilentConfiguration().is_converged(protocol, noisy)

    def test_single_copy_of_a_state_does_not_self_interact(self):
        protocol = ExactMajorityProtocol()
        # One strong-0 and one weak-0: strong converts weak but weak is already 0 ... the
        # pair (strong0, weak0) is a no-op, so this two-agent configuration is silent.
        states = [MajorityState(0, True), MajorityState(0, False)]
        assert SilentConfiguration().is_converged(protocol, states)

    def test_circles_stable_is_not_necessarily_silent(self):
        """Circles keeps broadcasting outputs, so stability can precede silence."""
        protocol = CirclesProtocol(2)
        # Stable bra-kets, but one agent has a stale output: a diagonal interaction
        # would still change it, so the configuration is stable yet not silent.
        states = [CirclesState(0, 0, 0), CirclesState(0, 1, 0), CirclesState(1, 0, 1)]
        assert StableCircles().is_converged(protocol, states) is False  # outputs differ
        assert not SilentConfiguration().is_converged(protocol, states)


class TestStableCircles:
    def test_requires_circles_protocol(self):
        with pytest.raises(TypeError):
            StableCircles().is_converged(ExactMajorityProtocol(), [])

    def test_converged_configuration(self):
        protocol = CirclesProtocol(2)
        states = [CirclesState(0, 0, 0), CirclesState(0, 1, 0), CirclesState(1, 0, 0)]
        assert StableCircles().is_converged(protocol, states)

    def test_not_converged_when_outputs_lag(self):
        protocol = CirclesProtocol(2)
        states = [CirclesState(0, 0, 0), CirclesState(0, 1, 0), CirclesState(1, 0, 1)]
        assert not StableCircles().is_converged(protocol, states)

    def test_not_converged_when_exchange_possible(self):
        protocol = CirclesProtocol(2)
        states = [CirclesState(0, 0, 0), CirclesState(1, 1, 1)]
        assert not StableCircles().is_converged(protocol, states)

    def test_agreement_must_match_a_diagonal(self):
        protocol = CirclesProtocol(3)
        # All agree on color 2 but the only diagonal is ⟨0|0⟩: not the paper's stable shape.
        states = [CirclesState(0, 0, 2), CirclesState(1, 2, 2), CirclesState(2, 1, 2)]
        assert not StableCircles().is_converged(protocol, states)

    def test_configuration_variant_matches_list_variant(self):
        protocol = CirclesProtocol(2)
        states = [CirclesState(0, 0, 0), CirclesState(0, 1, 0), CirclesState(1, 0, 0)]
        assert StableCircles().is_converged_configuration(protocol, Multiset(states))
        with pytest.raises(TypeError):
            StableCircles().is_converged_configuration(ExactMajorityProtocol(), Multiset())


class TestCountLevelFastPaths:
    """The count-level criterion variants must agree with the multiset ones."""

    def _compiled_counts(self, protocol, states):
        from repro.compile import compile_from_states

        compiled = compile_from_states(protocol, set(states))
        counts = [0] * compiled.num_states
        for state in states:
            counts[compiled.encode(state)] += 1
        return compiled, counts

    def test_output_consensus_on_counts(self):
        protocol = CirclesProtocol(3)
        agreed = [CirclesState(0, 1, 2), CirclesState(1, 0, 2), CirclesState(1, 0, 2)]
        compiled, counts = self._compiled_counts(protocol, agreed)
        assert OutputConsensus().is_converged_counts(protocol, compiled, counts)
        assert OutputConsensus(target=2).is_converged_counts(protocol, compiled, counts)
        assert not OutputConsensus(target=0).is_converged_counts(protocol, compiled, counts)

    def test_output_consensus_on_single_state_population(self):
        protocol = CirclesProtocol(3)
        lone = [CirclesState(1, 1, 1)] * 4
        compiled, counts = self._compiled_counts(protocol, lone)
        assert OutputConsensus().is_converged_counts(protocol, compiled, counts)
        assert OutputConsensus().is_converged(protocol, lone[:1])
        assert OutputConsensus().is_converged_configuration(protocol, Multiset(lone))

    def test_output_consensus_on_all_zero_counts(self):
        protocol = CirclesProtocol(3)
        compiled, counts = self._compiled_counts(protocol, [CirclesState(0, 0, 0)])
        assert not OutputConsensus().is_converged_counts(protocol, compiled, [0] * len(counts))

    def test_stable_circles_on_counts_matches_configuration_variant(self):
        protocol = CirclesProtocol(2)
        states = [CirclesState(0, 0, 0), CirclesState(0, 1, 0), CirclesState(1, 0, 0)]
        compiled, counts = self._compiled_counts(protocol, states)
        assert StableCircles().is_converged_counts(protocol, compiled, counts)
        assert StableCircles().is_converged_configuration(protocol, Multiset(states))

    def test_silent_configuration_has_no_counts_fast_path(self):
        # Silence is answered by the engine's incremental tracker instead;
        # the criterion itself defers to the from-scratch rescan.
        protocol = CirclesProtocol(2)
        states = [CirclesState(0, 0, 0)] * 2
        compiled, counts = self._compiled_counts(protocol, states)
        assert SilentConfiguration().is_converged_counts(protocol, compiled, counts) is None

    def test_base_criterion_default_defers(self):
        assert (
            OutputConsensus.__mro__[1].is_converged_counts(
                OutputConsensus(), CirclesProtocol(2), None, []
            )
            is None
        )


class TestCriterionEdgeCases:
    def test_output_consensus_on_empty_states_and_configuration(self):
        protocol = CirclesProtocol(2)
        assert not OutputConsensus().is_converged(protocol, [])
        assert not OutputConsensus().is_converged_configuration(protocol, Multiset())

    def test_silent_on_empty_and_singleton_configurations(self):
        protocol = CirclesProtocol(2)
        # No present pair can interact: vacuously silent.
        assert SilentConfiguration().is_converged(protocol, [])
        assert SilentConfiguration().is_converged(protocol, [CirclesState(0, 1, 0)])

    def test_stable_circles_on_empty_configuration(self):
        protocol = CirclesProtocol(2)
        assert not StableCircles().is_converged(protocol, [])
        assert not StableCircles().is_converged_configuration(protocol, Multiset())
