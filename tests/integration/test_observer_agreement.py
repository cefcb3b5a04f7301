"""Seeded agreement: observer trajectories are exact on every engine.

The acceptance bar of the observer pipeline: energy and potential
trajectories computed *incrementally* from the delta stream must match a
from-scratch recomputation at every recorded step/burst boundary, on every
engine — and seeded runs of the agent engine and the configuration-level
engines must agree on the trajectory endpoints (initial energy, stabilized
energy = the Lemma 3.6 minimum, stabilized weight histogram).  A
registry-wide test additionally replays each engine's delta stream into a
configuration and must land exactly on the engine's final configuration —
the delta stream is lossless for every protocol and engine granularity.
"""

import pytest

import repro  # noqa: F401  (populates the default protocol registry)
from repro.chemistry.energy import energy_trajectory
from repro.core.circles import CirclesProtocol
from repro.core.greedy_sets import predicted_stable_brakets
from repro.core.potential import (
    configuration_energy,
    minimum_energy,
    weight_histogram,
)
from repro.protocols.registry import DEFAULT_REGISTRY
from repro.simulation import (
    AgentSimulation,
    BatchConfigurationSimulation,
    EnergyObserver,
    Observer,
    OutputConsensus,
    PotentialObserver,
    StableCircles,
)
from repro.utils.multiset import Multiset
from repro.workloads.distributions import planted_majority

ENGINE_CLASSES = (AgentSimulation, BatchConfigurationSimulation)

COLORS = [0] * 14 + [1] * 9 + [2] * 5 + [3] * 4
K = 4


class VerifyingEnergyObserver(EnergyObserver):
    """Recomputes the energy from scratch at every check boundary."""

    def __init__(self):
        super().__init__(record="check")
        self.boundaries_verified = 0

    def on_check(self, engine):
        super().on_check(engine)
        recomputed = configuration_energy(engine.states(), engine.protocol.num_colors)
        assert self.energy == recomputed, (
            f"incremental energy {self.energy} != recomputed {recomputed} "
            f"at step {engine.steps_taken}"
        )
        self.boundaries_verified += 1


class ReplayObserver(Observer):
    """Replays the delta stream into a configuration multiset."""

    name = "replay"

    def __init__(self, initial):
        self.configuration = Multiset(initial)

    def on_delta(self, delta):
        if not delta.changed:
            return
        self.configuration.remove(delta.initiator, delta.count)
        self.configuration.remove(delta.responder, delta.count)
        self.configuration.add(delta.result.initiator, delta.count)
        self.configuration.add(delta.result.responder, delta.count)


class TestEnergyAndPotentialAgreement:
    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_incremental_energy_matches_recomputation_at_every_boundary(self, engine_cls):
        simulation = engine_cls.from_colors(CirclesProtocol(K), COLORS, seed=23)
        observer = simulation.add_observer(VerifyingEnergyObserver())
        # An unsatisfiable target keeps the run checking (and verifying)
        # through the whole budget, well past stabilization.
        simulation.run(40_000, criterion=OutputConsensus(target=-1), check_interval=200)
        assert observer.boundaries_verified > 100

    def test_seeded_trajectories_agree_between_agent_and_batch_engines(self):
        trajectories = {
            engine: energy_trajectory(COLORS, num_colors=K, max_steps=60_000, seed=7, engine=engine)
            for engine in ("agent", "batch")
        }
        initial = {t.initial_energy for t in trajectories.values()}
        final = {t.final_energy for t in trajectories.values()}
        assert initial == {len(COLORS) * K}
        # Every engine relaxes to exactly the Lemma 3.6 minimum: the final
        # boundary aggregates agree across engines, not just approximately.
        assert final == {minimum_energy(COLORS, K)}
        for trajectory in trajectories.values():
            assert trajectory.reached_minimum
            assert trajectory.is_monotone_nonincreasing()
            assert len(trajectory.steps) == len(trajectory.energies)

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_stabilized_weight_histogram_is_the_predicted_one(self, engine_cls):
        simulation = engine_cls.from_colors(CirclesProtocol(K), COLORS, seed=31)
        potential = simulation.add_observer(PotentialObserver())
        converged = simulation.run(200_000, criterion=StableCircles())
        assert converged
        assert potential.strictly_decreasing
        # The stabilized braket multiset is unique (Lemma 3.6), so the
        # incrementally maintained histogram agrees across engines — and with
        # the prediction computed without running the protocol at all.
        predicted = weight_histogram(predicted_stable_brakets(COLORS).elements(), K)
        assert potential.histogram == predicted
        assert potential.histogram == weight_histogram(simulation.states(), K)


class TestDeltaStreamIsLossless:
    @pytest.mark.parametrize("name", DEFAULT_REGISTRY.names())
    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_replaying_deltas_reproduces_the_final_configuration(
        self, name, engine_cls, make_registry_protocol
    ):
        protocol = make_registry_protocol(name)
        colors = planted_majority(20, protocol.num_colors, seed=3)
        initial = [protocol.initial_state(color) for color in colors]
        simulation = engine_cls.from_colors(protocol, colors, seed=41)
        replay = simulation.add_observer(ReplayObserver(initial))
        simulation.run(3_000)
        final = (
            Multiset(simulation.states())
            if isinstance(simulation, AgentSimulation)
            else simulation.configuration()
        )
        assert replay.configuration == final
