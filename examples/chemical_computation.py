#!/usr/bin/env python3
"""Chemical computation: the Circles protocol as an energy-minimizing reaction network.

The paper's title — *minimizing energy* — comes from reading the protocol as a
chemical system: agents are molecules, interactions are bimolecular reactions,
and the sum of bra-ket weights is the free energy the system relaxes toward
its minimum.  This example makes that reading concrete:

1. read the Circles protocol as a chemical reaction network (CRN): its
   compiled states are the species, its changing ordered pairs the reactions;
2. run an exact stochastic (Gillespie) simulation of a well-mixed solution;
3. plot (as text) the energy relaxation of the discrete simulation against the
   minimum predicted by the greedy-independent-set construction.

Run with:  python examples/chemical_computation.py
"""

from repro import CirclesProtocol, minimum_energy, predicted_majority
from repro.chemistry.energy import energy_trajectory
from repro.chemistry.gillespie import simulate_crn
from repro.compile import compile_from_states
from repro.core.potential import configuration_energy
from repro.utils.multiset import Multiset
from repro.workloads.distributions import planted_majority

NUM_MOLECULES = 30
NUM_SPECIES_COLORS = 4
SEED = 11


def sparkline(values, width: int = 64) -> str:
    """A coarse text rendering of a decreasing series."""
    if len(values) > width:
        stride = len(values) // width
        values = values[::stride]
    top, bottom = max(values), min(values)
    span = max(top - bottom, 1)
    blocks = "▁▂▃▄▅▆▇█"
    return "".join(blocks[int((value - bottom) / span * (len(blocks) - 1))] for value in values)


def main() -> None:
    colors = planted_majority(NUM_MOLECULES, NUM_SPECIES_COLORS, seed=SEED)
    k = NUM_SPECIES_COLORS
    protocol = CirclesProtocol(k)
    print(f"{NUM_MOLECULES} molecules, {k} input species; majority: {predicted_majority(colors)}")

    # 1. The induced chemical reaction network (restricted to reachable species).
    initial = Multiset(protocol.initial_state(color) for color in colors)
    compiled = compile_from_states(protocol, initial.support())
    print(f"CRN: {compiled.num_states} species, {sum(compiled.changed)} reactions (all unit rate)")

    # 2. Exact stochastic simulation in continuous (chemical) time.
    ssa = simulate_crn(protocol, initial, max_reactions=200_000, seed=SEED)
    ssa_energy = configuration_energy(
        (state.braket for state in ssa.final_multiset().elements()), k
    )
    print(
        f"Gillespie SSA: {ssa.reactions_fired} reactions fired in t = {ssa.time:.2f}, "
        f"dead mixture: {ssa.exhausted}"
    )

    # 3. Energy relaxation of the discrete-step simulation.
    trajectory = energy_trajectory(colors, num_colors=k, seed=SEED, max_steps=30 * NUM_MOLECULES**2)
    predicted = minimum_energy(colors, k)
    print()
    print(f"initial energy     : {trajectory.initial_energy}  (n·k: every molecule diagonal)")
    print(f"predicted minimum  : {predicted}  (from the greedy independent sets)")
    print(f"discrete engine    : {trajectory.final_energy}")
    print(f"Gillespie SSA      : {ssa_energy}")
    print(f"monotone relaxation: {trajectory.is_monotone_nonincreasing()}")
    print()
    print("energy relaxation (discrete engine):")
    print(f"  {sparkline(list(trajectory.energies))}")
    print(f"  start = {trajectory.initial_energy}, end = {trajectory.final_energy}")


if __name__ == "__main__":
    main()
