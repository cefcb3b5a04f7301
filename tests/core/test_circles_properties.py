"""Property-based tests of the Circles dynamics against the paper's theorems.

Each property mirrors one statement of §3:

* Lemma 3.3  — the bra/ket counts are conserved at every step;
* Theorem 3.4 — the ordinal potential strictly decreases at every ket
  exchange and the number of exchanges is finite;
* Lemma 3.6  — the stable configuration equals the greedy-set prediction;
* Theorem 3.7 — with a unique majority every agent eventually outputs it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circles import CirclesProtocol
from repro.core.greedy_sets import has_unique_majority, predicted_majority, predicted_stable_brakets
from repro.core.invariants import braket_invariant_holds, is_stable_configuration
from repro.core.potential import ordinal_potential
from repro.scheduling.permutation import RandomPermutationScheduler
from repro.simulation.convergence import StableCircles
from repro.simulation.engine import AgentSimulation
from repro.simulation.population import Population
from repro.simulation.runner import run_circles
from repro.utils.multiset import Multiset

MAX_COLORS = 4

color_assignments = st.lists(
    st.integers(min_value=0, max_value=MAX_COLORS - 1), min_size=2, max_size=10
)
unique_majority_assignments = color_assignments.filter(has_unique_majority)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=30, deadline=None)
@given(color_assignments, seeds)
def test_braket_invariant_preserved_at_every_step(colors, seed):
    """Lemma 3.3 along randomized executions, checked after every interaction."""
    protocol = CirclesProtocol(MAX_COLORS)
    population = Population.from_colors(protocol, colors)
    scheduler = RandomPermutationScheduler(len(population), seed=seed)
    simulation = AgentSimulation(protocol, population, scheduler)
    assert braket_invariant_holds(simulation.states())
    for _ in range(8 * len(colors)):
        simulation.step()
        assert braket_invariant_holds(simulation.states())


@settings(max_examples=25, deadline=None)
@given(color_assignments, seeds)
def test_potential_strictly_decreases_at_every_exchange(colors, seed):
    """Theorem 3.4: g(C) drops at each ket exchange and never rises otherwise."""
    protocol = CirclesProtocol(MAX_COLORS)
    population = Population.from_colors(protocol, colors)
    scheduler = RandomPermutationScheduler(len(population), seed=seed)
    simulation = AgentSimulation(protocol, population, scheduler)
    potential = ordinal_potential(simulation.states(), MAX_COLORS)
    for _ in range(8 * len(colors)):
        record = simulation.step()
        new_potential = ordinal_potential(simulation.states(), MAX_COLORS)
        exchanged = record.before[0].ket != record.after[0].ket
        if exchanged:
            assert new_potential < potential
        else:
            assert new_potential == potential
        potential = new_potential


@settings(max_examples=25, deadline=None)
@given(unique_majority_assignments, seeds)
def test_run_stabilizes_to_predicted_configuration(colors, seed):
    """Lemma 3.6 + Theorem 3.7 on randomized inputs under a weakly fair scheduler."""
    outcome = run_circles(colors, num_colors=MAX_COLORS, seed=seed)
    assert outcome.converged, "the run must stabilize within the default budget"
    final_brakets = Multiset(state.braket for state in outcome.final_states)
    assert final_brakets == predicted_stable_brakets(colors)
    majority = predicted_majority(colors)
    assert outcome.correct
    assert set(outcome.outputs) == {majority}


@settings(max_examples=20, deadline=None)
@given(unique_majority_assignments, seeds)
def test_stable_criterion_is_permanent(colors, seed):
    """Once StableCircles holds, further interactions never break it (stability is closed)."""
    outcome = run_circles(colors, num_colors=MAX_COLORS, seed=seed)
    protocol = CirclesProtocol(MAX_COLORS)
    population = Population(list(outcome.final_states))
    scheduler = RandomPermutationScheduler(len(population), seed=seed ^ 0xABCDEF)
    simulation = AgentSimulation(protocol, population, scheduler)
    criterion = StableCircles()
    assert criterion.is_converged_configuration(protocol, population.configuration())
    for _ in range(6 * len(colors)):
        simulation.step()
        assert criterion.is_converged_configuration(protocol, population.configuration())
        assert is_stable_configuration(protocol, simulation.states())


@settings(max_examples=20, deadline=None)
@given(unique_majority_assignments, seeds)
def test_number_of_exchanges_is_bounded(colors, seed):
    """Theorem 3.4: exchanges are finite; empirically they are at most n·k here."""
    outcome = run_circles(colors, num_colors=MAX_COLORS, seed=seed)
    assert outcome.ket_exchanges is not None
    assert outcome.ket_exchanges <= len(colors) * MAX_COLORS
