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
        config = Multiset([CirclesState(0, 1, 2), CirclesState(1, 0, 2)])
        assert OutputConsensus().is_converged_configuration(protocol, config)
        assert OutputConsensus(target=2).is_converged_configuration(protocol, config)
        assert not OutputConsensus(target=0).is_converged_configuration(protocol, config)

    def test_disagreement_detected(self):
        protocol = CirclesProtocol(3)
        config = Multiset([CirclesState(0, 1, 2), CirclesState(1, 0, 1)])
        assert not OutputConsensus().is_converged_configuration(protocol, config)

    def test_empty_population_is_not_converged(self):
        assert not OutputConsensus().is_converged_configuration(CirclesProtocol(2), Multiset())

    def test_configuration_variant(self):
        protocol = CirclesProtocol(3)
        config = Multiset([CirclesState(0, 1, 2), CirclesState(1, 0, 2), CirclesState(1, 0, 2)])
        assert OutputConsensus().is_converged_configuration(protocol, config)
        assert OutputConsensus(target=2).is_converged_configuration(protocol, config)
        assert not OutputConsensus(target=1).is_converged_configuration(protocol, config)


class TestSilentConfiguration:
    def test_silent_exact_majority_configuration(self):
        protocol = ExactMajorityProtocol()
        silent = Multiset([MajorityState(0, True), MajorityState(0, False)])
        assert SilentConfiguration().is_converged_configuration(protocol, silent)

    def test_noisy_configuration(self):
        protocol = ExactMajorityProtocol()
        noisy = Multiset([MajorityState(0, True), MajorityState(1, True)])
        assert not SilentConfiguration().is_converged_configuration(protocol, noisy)

    def test_single_copy_of_a_state_does_not_self_interact(self):
        protocol = ExactMajorityProtocol()
        # One strong-0 and one weak-0: strong converts weak but weak is already 0 ... the
        # pair (strong0, weak0) is a no-op, so this two-agent configuration is silent.
        config = Multiset([MajorityState(0, True), MajorityState(0, False)])
        assert SilentConfiguration().is_converged_configuration(protocol, config)

    def test_circles_stable_is_not_necessarily_silent(self):
        """Circles keeps broadcasting outputs, so stability can precede silence."""
        protocol = CirclesProtocol(2)
        # Stable bra-kets, but one agent has a stale output: a diagonal interaction
        # would still change it, so the configuration is stable yet not silent.
        config = Multiset([CirclesState(0, 0, 0), CirclesState(0, 1, 0), CirclesState(1, 0, 1)])
        assert StableCircles().is_converged_configuration(protocol, config) is False
        assert not SilentConfiguration().is_converged_configuration(protocol, config)


class TestStableCircles:
    def test_requires_circles_protocol(self):
        with pytest.raises(TypeError):
            StableCircles().is_converged_configuration(ExactMajorityProtocol(), Multiset())

    def test_converged_configuration(self):
        protocol = CirclesProtocol(2)
        config = Multiset([CirclesState(0, 0, 0), CirclesState(0, 1, 0), CirclesState(1, 0, 0)])
        assert StableCircles().is_converged_configuration(protocol, config)

    def test_not_converged_when_outputs_lag(self):
        protocol = CirclesProtocol(2)
        config = Multiset([CirclesState(0, 0, 0), CirclesState(0, 1, 0), CirclesState(1, 0, 1)])
        assert not StableCircles().is_converged_configuration(protocol, config)

    def test_not_converged_when_exchange_possible(self):
        protocol = CirclesProtocol(2)
        config = Multiset([CirclesState(0, 0, 0), CirclesState(1, 1, 1)])
        assert not StableCircles().is_converged_configuration(protocol, config)

    def test_agreement_must_match_a_diagonal(self):
        protocol = CirclesProtocol(3)
        # All agree on color 2 but the only diagonal is ⟨0|0⟩: not the paper's stable shape.
        config = Multiset([CirclesState(0, 0, 2), CirclesState(1, 2, 2), CirclesState(2, 1, 2)])
        assert not StableCircles().is_converged_configuration(protocol, config)

    def test_multiplicities_do_not_change_the_verdict(self):
        protocol = CirclesProtocol(2)
        states = [CirclesState(0, 0, 0), CirclesState(0, 1, 0), CirclesState(1, 0, 0)]
        assert StableCircles().is_converged_configuration(protocol, Multiset(states))
        assert StableCircles().is_converged_configuration(protocol, Multiset(states * 3))


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
        # on counts the criterion judges the decoded configuration.
        protocol = CirclesProtocol(2)
        silent = [CirclesState(0, 0, 0)] * 2
        compiled, counts = self._compiled_counts(protocol, silent)
        assert SilentConfiguration().is_converged_counts(protocol, compiled, counts) is True
        noisy = [CirclesState(0, 0, 0), CirclesState(1, 1, 1), CirclesState(1, 1, 1)]
        compiled, counts = self._compiled_counts(protocol, noisy)
        assert SilentConfiguration().is_converged_counts(protocol, compiled, counts) is False
        assert not SilentConfiguration().is_converged_configuration(protocol, Multiset(noisy))

    def test_base_criterion_default_defers(self):
        # The base class defers to the configuration-level check on the
        # decoded counts, with no None escape.
        protocol = CirclesProtocol(2)
        states = [CirclesState(0, 1, 0), CirclesState(1, 0, 0)]
        compiled, counts = self._compiled_counts(protocol, states)
        base = OutputConsensus.__mro__[1].is_converged_counts
        assert base(OutputConsensus(), protocol, compiled, counts) is True
        assert base(OutputConsensus(target=1), protocol, compiled, counts) is False
        assert base(OutputConsensus(), protocol, compiled, [0] * len(counts)) is False

    @pytest.mark.parametrize(
        "criterion", [OutputConsensus(), OutputConsensus(target=0), StableCircles()]
    )
    def test_interned_counts_match_the_configuration_variant(self, criterion):
        from repro.compile import LazyInterner

        protocol = CirclesProtocol(3)
        cases = [
            [CirclesState(0, 0, 0), CirclesState(0, 1, 0), CirclesState(1, 0, 0)],
            [CirclesState(0, 1, 2), CirclesState(1, 0, 2), CirclesState(1, 0, 2)],
            [CirclesState(2, 2, 2)] * 3,
        ]
        for states in cases:
            configuration = Multiset(states)
            interner = LazyInterner(protocol, configuration.counts())
            counts = interner.multiset_to_counts(configuration)
            assert criterion.is_converged_counts(
                protocol, interner, counts
            ) == criterion.is_converged_configuration(protocol, configuration)

    def test_rows_default_judges_row_by_row(self):
        protocol = CirclesProtocol(2)
        states = [CirclesState(0, 0, 0), CirclesState(0, 1, 0), CirclesState(1, 0, 1)]
        compiled, _ = self._compiled_counts(protocol, states)
        rows = [[0] * compiled.num_states for _ in range(3)]
        rows[0][compiled.encode(states[0])] = 2
        rows[1][compiled.encode(states[1])] = 1
        rows[1][compiled.encode(states[2])] = 1
        verdicts = OutputConsensus().is_converged_rows(protocol, compiled, rows)
        assert verdicts == [True, False, False]


class TestCriterionEdgeCases:
    def test_output_consensus_on_empty_configuration(self):
        protocol = CirclesProtocol(2)
        assert not OutputConsensus().is_converged_configuration(protocol, Multiset())

    def test_silent_on_empty_and_singleton_configurations(self):
        protocol = CirclesProtocol(2)
        # No present pair can interact: vacuously silent.
        silent = SilentConfiguration()
        assert silent.is_converged_configuration(protocol, Multiset())
        assert silent.is_converged_configuration(protocol, Multiset([CirclesState(0, 1, 0)]))

    def test_stable_circles_on_empty_configuration(self):
        protocol = CirclesProtocol(2)
        assert not StableCircles().is_converged_configuration(protocol, Multiset())
