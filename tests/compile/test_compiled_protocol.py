"""Property-based checks on compiled transition tables.

For **every protocol in the registry**: random state pairs drawn from the
enumerated space must satisfy ``table[encode(p, q)] == δ(p, q)`` (including
the ``changed`` flag), and ``decode ∘ encode`` must be the identity over the
whole space.  Any protocol added to the registry is fuzzed by registration
alone.
"""

import random

import pytest

import repro  # noqa: F401  (populates the default protocol registry)
from repro.compile import (
    StateSpaceCapExceeded,
    compile_from_states,
    compile_protocol,
)
from repro.core.circles import CirclesProtocol
from repro.protocols.approximate_majority import ApproximateMajorityProtocol
from repro.protocols.base import PopulationProtocol, TransitionResult
from repro.protocols.exact_majority import ExactMajorityProtocol
from repro.protocols.registry import DEFAULT_REGISTRY
from repro.api.executor import build_scheduler
from repro.exact import ConfigurationChain
from repro.simulation.batch_engine import (
    NUMPY_BURST_THRESHOLD,
    BatchConfigurationSimulation,
)
from repro.simulation.convergence import SilentConfiguration
from repro.simulation.engine import AgentSimulation
from repro.simulation.observers import Observer
from repro.utils.multiset import Multiset

PROTOCOL_NAMES = DEFAULT_REGISTRY.names()

FUZZ_PAIRS = 300


@pytest.fixture(scope="module")
def compiled_protocols(make_registry_protocol):
    """One (protocol, compiled) pair per registry entry, compiled once."""
    pairs = []
    for name in PROTOCOL_NAMES:
        protocol = make_registry_protocol(name)
        pairs.append((name, protocol, compile_protocol(protocol)))
    return pairs


class TestEveryRegisteredProtocol:
    def test_registry_is_not_empty(self):
        assert PROTOCOL_NAMES

    def test_decode_encode_is_the_identity(self, compiled_protocols):
        for name, _protocol, compiled in compiled_protocols:
            for code, state in enumerate(compiled.states):
                assert compiled.encode(state) == code, name
                assert compiled.decode(code) == state, name

    def test_random_pairs_match_delta(self, compiled_protocols):
        rng = random.Random(2025)
        for name, protocol, compiled in compiled_protocols:
            d = compiled.num_states
            for _ in range(FUZZ_PAIRS):
                p = rng.randrange(d)
                q = rng.randrange(d)
                before = (compiled.decode(p), compiled.decode(q))
                expected = protocol.transition(*before)
                a, b, changed = compiled.transition_codes(p, q)
                assert compiled.decode(a) == expected.initiator, name
                assert compiled.decode(b) == expected.responder, name
                assert changed == (expected.as_pair() != before), name

    def test_changed_flag_means_a_state_moved(self, compiled_protocols):
        """The position kernel counts an interaction as changed when it moves
        a state, so the flag must say exactly that."""
        for name, _protocol, compiled in compiled_protocols:
            for code, packed in enumerate(compiled.table):
                assert bool(compiled.changed[code]) == (packed != code), name

    def test_outputs_match_the_output_map(self, compiled_protocols):
        for name, protocol, compiled in compiled_protocols:
            for code, state in enumerate(compiled.states):
                assert compiled.output_of(code) == protocol.output(state), name
            assert compiled.output_colors() == {
                protocol.output(state) for state in compiled.states
            }, name

    def test_initial_indices_decode_to_initial_states(self, compiled_protocols):
        for name, protocol, compiled in compiled_protocols:
            for color in range(protocol.num_colors):
                index = compiled.initial_index(color)
                assert compiled.decode(index) == protocol.initial_state(color), name


class Spread(PopulationProtocol[int]):
    """``(0, 1) → (1, 1)``: a one-way spread, the only pair that moves."""

    name = "spread"

    def states(self):
        return [0, 1]

    def initial_state(self, color: int) -> int:
        return color

    def output(self, state: int) -> int:
        return state

    def transition(self, a: int, b: int) -> TransitionResult[int]:
        if (a, b) == (0, 1):
            return TransitionResult(1, 1)
        return TransitionResult(a, b)


class TestChangedFlagComesFromTheTable:
    """The compiled ``changed`` mask is read off the table's entries."""

    def test_flag_is_read_off_the_table(self):
        compiled = compile_protocol(Spread(2))
        zero, one = compiled.encode(0), compiled.encode(1)
        assert compiled.transition_codes(zero, one) == (one, one, True)
        assert compiled.transition_codes(one, zero)[2] is False

    # Regression: the pool regimes below the kernel gate once trusted a
    # protocol-reported flag and never moved, while the kernel at the gate
    # applied δ to every pair.
    @pytest.mark.parametrize("n", [NUMPY_BURST_THRESHOLD - 2, NUMPY_BURST_THRESHOLD])
    def test_both_sides_of_the_kernel_gate_move(self, n):
        colors = [0] * (n // 2) + [1] * (n // 2)
        simulation = BatchConfigurationSimulation.from_colors(
            Spread(2), colors, seed=11
        )
        simulation.run(20_000)
        counts = simulation.output_counts()
        assert simulation.interactions_changed > 0
        assert counts[1] > n // 2
        assert counts.get(0, 0) + counts[1] == n


class DeltaRecorder(Observer):
    name = "delta-recorder"

    def __init__(self) -> None:
        self.deltas = []

    def on_delta(self, delta) -> None:
        self.deltas.append(delta)


@pytest.mark.usefixtures("force_uncompiled")
class TestUncompiledPathsJudgeByStates:
    """Without a table, engines, the silent check, the chain and the
    greedy-stall adversary judge a transition by the states δ returns."""

    COLORS = [0] * 8 + [1] * 8

    def assert_moved(self, simulation) -> None:
        assert simulation.compiled_protocol is None
        counts = simulation.output_counts()
        assert simulation.interactions_changed > 0
        assert counts[1] > len(self.COLORS) // 2
        assert counts.get(0, 0) + counts[1] == len(self.COLORS)

    def test_batch_engine_moves(self):
        simulation = BatchConfigurationSimulation.from_colors(
            Spread(2), self.COLORS, seed=11
        )
        simulation.run(2_000)
        self.assert_moved(simulation)

    @pytest.mark.parametrize("engine", ["batch", "agent"])
    def test_engines_report_the_move_to_observers(self, engine):
        if engine == "batch":
            simulation = BatchConfigurationSimulation.from_colors(
                Spread(2), self.COLORS, seed=11
            )
        else:
            simulation = AgentSimulation.from_colors(Spread(2), self.COLORS, seed=11)
        recorder = simulation.add_observer(DeltaRecorder())
        simulation.run(2_000)
        self.assert_moved(simulation)
        assert len(recorder.deltas) == simulation.interactions_changed
        assert all(delta.changed for delta in recorder.deltas)

    def test_silent_check_sees_the_move(self):
        silent = SilentConfiguration()
        protocol = Spread(2)
        assert not silent.is_converged_configuration(protocol, Multiset([0, 1]))
        assert silent.is_converged_configuration(protocol, Multiset([1, 1]))
        simulation = BatchConfigurationSimulation.from_colors(protocol, [0, 1], seed=1)
        assert simulation.compiled_protocol is None
        assert not simulation.run(0, criterion=silent)

    def test_chain_moves(self):
        chain = ConfigurationChain.from_colors(Spread(2), [0, 1])
        assert chain.compiled is None
        assert len(chain.counts) == 2
        assert chain.change_probability[0] == 0.5

    def test_greedy_stall_adversary_avoids_the_move(self):
        scheduler = build_scheduler("greedy-stall", 2, seed=0, protocol=Spread(2))
        # (0, 1) moves a state, so every stalling step must pick (1, 0).
        assert [scheduler.next_pair(step, [0, 1]) for step in range(8)] == [(1, 0)] * 8


class TestCompileCache:
    def test_same_protocol_and_colors_compile_once(self):
        protocol = CirclesProtocol(3)
        assert compile_protocol(protocol) is compile_protocol(protocol)
        assert compile_protocol(protocol, [0, 1]) is compile_protocol(protocol, [1, 0, 0])

    def test_equal_signature_instances_share_tables(self):
        """Registry sweeps build a fresh instance per run; tables are shared."""
        assert compile_protocol(CirclesProtocol(3)) is compile_protocol(CirclesProtocol(3))

    def test_distinct_signatures_compile_separately(self):
        from repro.core.circles import CirclesVariant, ExchangeRule

        paper = compile_protocol(CirclesProtocol(3))
        ablated = compile_protocol(
            CirclesProtocol(3, variant=CirclesVariant(exchange_rule=ExchangeRule.SUM_WEIGHT))
        )
        assert paper is not ablated

    def test_signature_free_protocols_cache_per_instance(self):
        class Anonymous(CirclesProtocol):
            def compile_signature(self):
                return None

        assert compile_protocol(Anonymous(2)) is not compile_protocol(Anonymous(2))

    def test_cap_applies_to_cache_hits_too(self):
        protocol = CirclesProtocol(3)
        compiled = compile_protocol(protocol)
        with pytest.raises(StateSpaceCapExceeded):
            compile_protocol(protocol, max_states=compiled.num_states - 1)

    def test_cache_hit_matches_cold_call_when_seeds_alone_exceed_the_cap(self):
        """Seeds never count against the cap — on cache hits either.

        Regression: a closure made of seeds only used to compile on the cold
        call but raise on the identical warm call, flipping engine selection
        between runs.
        """
        protocol = ApproximateMajorityProtocol()
        seeds = list(protocol.states())
        first = compile_from_states(protocol, seeds, max_states=1)
        second = compile_from_states(protocol, seeds, max_states=1)
        assert first is second
        assert first.num_states == 3

    def test_cap_exceeded_is_cached_but_retried_at_a_larger_cap(self):
        class Cold(CirclesProtocol):  # fresh per-instance cache, no signature
            def compile_signature(self):
                return None

        protocol = Cold(3)
        with pytest.raises(StateSpaceCapExceeded):
            compile_protocol(protocol, max_states=4)
        # The negative entry answers smaller caps without re-enumerating...
        with pytest.raises(StateSpaceCapExceeded):
            compile_protocol(protocol, max_states=3)
        # ...and a larger cap retries and succeeds.
        assert compile_protocol(protocol).num_states > 4


class TestConversions:
    def test_counts_multiset_roundtrip(self):
        protocol = CirclesProtocol(2)
        compiled = compile_protocol(protocol)
        counts = [0] * compiled.num_states
        counts[0] = 3
        counts[compiled.num_states - 1] = 2
        multiset = compiled.counts_to_multiset(counts)
        assert len(multiset) == 5
        assert compiled.multiset_to_counts(multiset) == counts

    def test_compile_from_states_covers_the_seed_closure(self):
        protocol = CirclesProtocol(3)
        seeds = {protocol.initial_state(0), protocol.initial_state(1)}
        compiled = compile_from_states(protocol, seeds)
        assert seeds <= set(compiled.states)
        assert compiled.num_states == len(set(compiled.states))


class TestReactionNetworkSizes:
    """Read as a reaction network, the states are species and the changing pairs reactions."""

    def test_approximate_majority(self):
        compiled = compile_protocol(ApproximateMajorityProtocol())
        assert compiled.num_states == 3  # 0, 1, blank
        # 0+1 -> 0+blank, 1+0 -> 1+blank, 0+blank -> 0+0, blank+0 -> 0+0,
        # 1+blank -> 1+1, blank+1 -> 1+1.
        assert sum(compiled.changed) == 6

    def test_exact_majority(self):
        assert compile_protocol(ExactMajorityProtocol()).num_states == 4

    def test_circles_keeps_only_reachable_states(self):
        protocol = CirclesProtocol(3)
        assert compile_protocol(protocol).num_states < protocol.state_count()
