"""Tests for the Circles protocol definition (§2): states, maps and transition."""

import pytest

from repro.core.braket import BraKet
from repro.core.circles import CirclesProtocol, CirclesVariant, ExchangeRule, OutputRule
from repro.core.state import CirclesState


class TestDeclaration:
    def test_state_set_is_k_cubed(self):
        for k in (2, 3, 4, 5):
            protocol = CirclesProtocol(k)
            assert protocol.state_count() == k**3
            assert len(set(protocol.states())) == k**3

    def test_input_map(self):
        protocol = CirclesProtocol(4)
        assert protocol.initial_state(2) == CirclesState(2, 2, 2)
        with pytest.raises(ValueError):
            protocol.initial_state(4)
        with pytest.raises(ValueError):
            protocol.initial_state(-1)

    def test_output_map_reads_out(self):
        protocol = CirclesProtocol(4)
        assert protocol.output(CirclesState(0, 1, 3)) == 3

    def test_needs_at_least_one_color(self):
        with pytest.raises(ValueError):
            CirclesProtocol(0)

    def test_describe_mentions_variant(self):
        info = CirclesProtocol(3).describe()
        assert info["state_count"] == 27
        assert info["exchange_rule"] == "min-weight"


class TestExchangeStep:
    def test_two_different_diagonals_exchange(self):
        protocol = CirclesProtocol(3)
        result = protocol.transition(CirclesState(0, 0, 0), CirclesState(1, 1, 1))
        assert result.initiator.braket == BraKet(0, 1)
        assert result.responder.braket == BraKet(1, 0)

    def test_same_color_diagonals_do_not_exchange(self):
        protocol = CirclesProtocol(3)
        result = protocol.transition(CirclesState(1, 1, 1), CirclesState(1, 1, 0))
        # No ket exchange, but the diagonal broadcast aligns the outputs.
        assert result.initiator.braket == BraKet(1, 1)
        assert result.responder.braket == BraKet(1, 1)
        assert result.initiator.out == result.responder.out == 1

    def test_exchange_never_touches_bras_or_outputs_in_step_one(self):
        protocol = CirclesProtocol(5)
        initiator = CirclesState(0, 3, 4)
        responder = CirclesState(2, 1, 4)
        result = protocol.transition(initiator, responder)
        assert result.initiator.bra == 0
        assert result.responder.bra == 2

    def test_exchange_only_when_min_weight_strictly_decreases(self):
        protocol = CirclesProtocol(3)
        # ⟨0|1⟩ (w=1) and ⟨1|0⟩ (w=2): swapping makes both diagonal (w=3) — refused.
        result = protocol.transition(CirclesState(0, 1, 0), CirclesState(1, 0, 1))
        assert result.initiator.braket == BraKet(0, 1)
        assert result.responder.braket == BraKet(1, 0)

    def test_should_exchange_matches_transition(self):
        protocol = CirclesProtocol(4)
        for a in protocol.states():
            b = CirclesState(1, 3, 2)
            expected = protocol.should_exchange(a.braket, b.braket)
            result = protocol.transition(a, b)
            exchanged = result.initiator.ket != a.ket or result.responder.ket != b.ket
            assert exchanged == expected


class TestOutputStep:
    def test_diagonal_broadcasts_to_both(self):
        protocol = CirclesProtocol(4)
        # ⟨2|2⟩ meets ⟨0|3⟩: weights 4 and 3; swap would give ⟨2|3⟩ (1) and ⟨0|2⟩ (2) → exchange.
        result = protocol.transition(CirclesState(2, 2, 2), CirclesState(0, 3, 1))
        # After the exchange neither is diagonal, so outputs stay as they were.
        assert result.initiator.braket == BraKet(2, 3)
        assert result.responder.braket == BraKet(0, 2)
        assert result.initiator.out == 2
        assert result.responder.out == 1

    def test_diagonal_after_no_exchange_broadcasts(self):
        protocol = CirclesProtocol(4)
        # ⟨1|1⟩ (w=4) meets ⟨1|2⟩ (w=1): swap gives ⟨1|2⟩ and ⟨1|1⟩ — min unchanged, refused.
        result = protocol.transition(CirclesState(1, 1, 3), CirclesState(1, 2, 0))
        assert result.initiator.braket == BraKet(1, 1)
        assert result.initiator.out == 1
        assert result.responder.out == 1

    def test_no_diagonal_no_output_change(self):
        protocol = CirclesProtocol(4)
        result = protocol.transition(CirclesState(0, 1, 0), CirclesState(2, 3, 2))
        assert result.initiator.out == 0
        assert result.responder.out == 2


class TestVariants:
    def test_paper_variant_is_default(self):
        protocol = CirclesProtocol(3)
        assert protocol.variant.exchange_rule is ExchangeRule.MIN_WEIGHT
        assert protocol.variant.output_rule is OutputRule.DIAGONAL_BROADCAST

    def test_sum_rule_accepts_sum_decreasing_swaps(self):
        k = 5
        paper = CirclesProtocol(k)
        ablation = CirclesProtocol(k, CirclesVariant(exchange_rule=ExchangeRule.SUM_WEIGHT))
        # ⟨0|4⟩ (4) and ⟨1|2⟩ (1): swap → ⟨0|2⟩ (2) and ⟨1|4⟩ (3); sum 5 → 5, min 1 → 2.
        first, second = BraKet(0, 4), BraKet(1, 2)
        assert not paper.should_exchange(first, second)
        assert not ablation.should_exchange(first, second)
        # Two diagonals: sum 10 → 5 and min 5 → 1: both rules exchange.
        assert paper.should_exchange(BraKet(0, 0), BraKet(1, 1))
        assert ablation.should_exchange(BraKet(0, 0), BraKet(1, 1))

    def test_epidemic_output_rule_copies_initiator_output(self):
        protocol = CirclesProtocol(4, CirclesVariant(output_rule=OutputRule.EPIDEMIC))
        result = protocol.transition(CirclesState(0, 1, 3), CirclesState(2, 3, 2))
        assert result.responder.out == 3

    def test_symmetry_declaration(self):
        assert CirclesProtocol(3).is_symmetric()
        assert not CirclesProtocol(
            2, CirclesVariant(output_rule=OutputRule.EPIDEMIC)
        ).is_symmetric()
