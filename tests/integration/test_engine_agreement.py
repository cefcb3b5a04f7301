"""The engines and the Gillespie SSA must agree on where Circles settles.

Agents are anonymous, so the agent-level engine (under the uniform random
scheduler), the batch and vector engines and the CRN/Gillespie simulation
all induce the same Markov chain over configurations up to time
parameterization.  These tests check the observable agreement: all of them
settle in the configuration predicted by Lemma 3.6 and report the same
minimum energy.
"""

import pytest

from repro.chemistry.gillespie import simulate_crn
from repro.core.circles import CirclesProtocol
from repro.core.greedy_sets import predicted_stable_brakets
from repro.core.potential import configuration_energy, minimum_energy
from repro.scheduling.random_uniform import UniformRandomScheduler
from repro.simulation.batch_engine import BatchConfigurationSimulation
from repro.simulation.convergence import StableCircles
from repro.simulation.engine import AgentSimulation
from repro.simulation.population import Population
from repro.utils.multiset import Multiset

COLORS = [0, 0, 0, 0, 1, 1, 2, 3]
K = 4
#: A population large enough that the batched engine switches between its
#: dense and sparse regimes on the way to stabilization.
BATCH_COLORS = [0] * 10 + [1] * 7 + [2] * 3 + [3] * 2


def _final_brakets_agent_engine(seed: int) -> Multiset:
    protocol = CirclesProtocol(K)
    population = Population.from_colors(protocol, COLORS)
    scheduler = UniformRandomScheduler(len(COLORS), seed=seed)
    simulation = AgentSimulation(protocol, population, scheduler)
    converged = simulation.run(100_000, criterion=StableCircles(), check_interval=32)
    assert converged
    return Multiset(state.braket for state in simulation.states())


def _final_brakets_batch_engine(seed: int, colors=None) -> Multiset:
    protocol = CirclesProtocol(K)
    simulation = BatchConfigurationSimulation.from_colors(
        protocol, colors if colors is not None else COLORS, seed=seed
    )
    converged = simulation.run(500_000, criterion=StableCircles(), check_interval=32)
    assert converged
    return Multiset(state.braket for state in simulation.states())


def _final_brakets_gillespie(seed: int) -> Multiset:
    protocol = CirclesProtocol(K)
    initial = Multiset(protocol.initial_state(color) for color in COLORS)
    result = simulate_crn(protocol, initial, max_reactions=100_000, seed=seed)
    return Multiset(state.braket for state in result.final_multiset().elements())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_all_engines_reach_the_predicted_configuration(seed):
    prediction = predicted_stable_brakets(COLORS)
    assert _final_brakets_agent_engine(seed) == prediction
    assert _final_brakets_batch_engine(seed) == prediction
    assert _final_brakets_gillespie(seed) == prediction


def test_all_engines_reach_the_same_minimum_energy():
    expected = minimum_energy(COLORS, K)
    assert configuration_energy(_final_brakets_agent_engine(7).elements(), K) == expected
    assert configuration_energy(_final_brakets_batch_engine(7).elements(), K) == expected
    assert configuration_energy(_final_brakets_gillespie(7).elements(), K) == expected


@pytest.mark.parametrize("seed", [4, 5])
def test_batched_bursts_reach_the_predicted_configuration(seed):
    """Same agreement on a larger population, across regime switches."""
    assert _final_brakets_batch_engine(seed, BATCH_COLORS) == predicted_stable_brakets(
        BATCH_COLORS
    )
