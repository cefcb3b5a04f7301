"""Incremental quiescence detection: ActivePairTracker vs the O(d²) rescan.

The tracker must agree with the from-scratch :class:`SilentConfiguration`
rescan at *every* point of *every* execution — the fuzz test sweeps the whole
protocol registry to pin that, so future protocols are covered by
registration alone.  Also home to the ``check_interval`` validation
regression test (0 used to be silently replaced by the default).
"""

import pytest

import repro  # noqa: F401  (populates the protocol registry)
from repro.compile import compile_protocol
from repro.core.circles import CirclesProtocol
from repro.protocols.registry import DEFAULT_REGISTRY, get_protocol
from repro.simulation import (
    ActivePairTracker,
    AgentSimulation,
    BatchConfigurationSimulation,
    Observer,
    OutputConsensus,
    SilentConfiguration,
)
from repro.workloads.distributions import planted_majority

ENGINE_CLASSES = (AgentSimulation, BatchConfigurationSimulation)


class RescanAtChecks(Observer):
    """The from-scratch silence rescan's verdict at every check boundary."""

    name = "rescan-at-checks"

    def __init__(self) -> None:
        self.verdicts: list[bool] = []

    def on_check(self, engine) -> None:
        self.verdicts.append(
            SilentConfiguration().is_converged_configuration(
                engine.protocol, engine.configuration()
            )
        )


class TestActivePairTracker:
    def test_initial_classification_matches_rescan(self):
        protocol = CirclesProtocol(3)
        compiled = compile_protocol(protocol)
        counts = [0] * compiled.num_states
        counts[compiled.initial_index(0)] = 5
        counts[compiled.initial_index(1)] = 3
        tracker = ActivePairTracker(compiled, counts)
        assert not tracker.is_silent()  # two diagonal colors can exchange

    def test_single_present_state_without_self_transition_is_silent(self):
        protocol = CirclesProtocol(3)
        compiled = compile_protocol(protocol)
        counts = [0] * compiled.num_states
        counts[compiled.initial_index(0)] = 10  # ⟨0|0⟩ meeting itself: no-op
        tracker = ActivePairTracker(compiled, counts)
        assert tracker.is_silent()

    def test_multiplicity_transitions_toggle_self_pairs(self):
        # Two agents of a self-active state: silent iff fewer than two copies.
        protocol = get_protocol("exact-majority", 2)
        compiled = compile_protocol(protocol)
        plus, minus = compiled.initial_index(0), compiled.initial_index(1)
        counts = [0] * compiled.num_states
        counts[plus] = 1
        counts[minus] = 1
        tracker = ActivePairTracker(compiled, counts)
        assert not tracker.is_silent()  # +/- annihilate
        counts[minus] = 0
        tracker.update(minus)
        assert tracker.is_silent()
        counts[plus] = 2
        tracker.update(plus)
        assert tracker.is_silent()  # two + agents never change each other


class TestIncrementalMatchesRescanOverTheRegistry:
    """Fuzz: incremental and rescan verdicts agree along seeded executions."""

    @pytest.mark.parametrize("name", DEFAULT_REGISTRY.names())
    def test_agreement_along_a_run(self, name, make_registry_protocol):
        protocol = make_registry_protocol(name)
        colors = planted_majority(24, protocol.num_colors, seed=11)
        simulation = BatchConfigurationSimulation.from_colors(protocol, colors, seed=7)
        if simulation.compiled_protocol is None:
            pytest.skip(f"{name} exceeds the compile cap at k={protocol.num_colors}")
        silent = SilentConfiguration()

        def agree() -> bool:
            rescan = silent.is_converged_configuration(protocol, simulation.configuration())
            return simulation._converged(silent) == rescan

        for _ in range(60):
            assert agree()
            simulation.run(25)
        assert agree()

    def test_detection_of_reached_silence(self):
        # A skewed input converges to silence; the run stops at the first
        # check boundary where the rescan sees silence too.
        protocol = get_protocol("exact-majority", 2)
        colors = [0] * 30 + [1] * 10
        simulation = BatchConfigurationSimulation.from_colors(protocol, colors, seed=5)
        rescans = simulation.add_observer(RescanAtChecks())
        converged = simulation.run(100_000, criterion=SilentConfiguration(), check_interval=40)
        assert converged, "the skewed exact-majority run should go silent"
        assert rescans.verdicts[-1] and not any(rescans.verdicts[:-1])

    def test_uncompiled_engines_fall_back_to_the_rescan(self, force_uncompiled):
        protocol = CirclesProtocol(3)
        colors = [0] * 6 + [1] * 3
        simulation = BatchConfigurationSimulation.from_colors(protocol, colors, seed=5)
        assert simulation.compiled_protocol is None
        converged = simulation.run(50_000, criterion=SilentConfiguration())
        assert converged
        assert SilentConfiguration().is_converged_configuration(
            protocol, simulation.configuration()
        )


class TestCheckIntervalValidation:
    """Regression: ``check_interval=0`` used to silently become the default."""

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_zero_check_interval_is_rejected(self, engine_cls):
        simulation = engine_cls.from_colors(CirclesProtocol(3), [0, 1, 2] * 4, seed=1)
        with pytest.raises(ValueError, match="check_interval must be a positive"):
            simulation.run(100, criterion=OutputConsensus(), check_interval=0)

    def test_negative_check_interval_is_rejected(self):
        simulation = BatchConfigurationSimulation.from_colors(CirclesProtocol(3), [0, 1, 2] * 4)
        with pytest.raises(ValueError, match="check_interval"):
            simulation.run(100, criterion=OutputConsensus(), check_interval=-5)

    def test_zero_is_rejected_even_without_criterion(self):
        simulation = BatchConfigurationSimulation.from_colors(CirclesProtocol(3), [0, 1, 2] * 4)
        with pytest.raises(ValueError, match="check_interval"):
            simulation.run(100, check_interval=0)

    def test_interval_of_one_checks_every_interaction(self):
        simulation = BatchConfigurationSimulation.from_colors(CirclesProtocol(2), [0] * 5 + [1] * 3, seed=2)
        converged = simulation.run(20_000, criterion=OutputConsensus(), check_interval=1)
        assert converged
