"""The chemical-reaction-network view of population protocols.

The paper's design is "inspired by energy minimization in chemical settings"
(§1), and population protocols are formally equivalent to chemical reaction
networks (CRNs) with bimolecular reactions and unit rates [8, 12]: the
species are the protocol's states, and every ordered pair of states whose
transition changes a state is a reaction.  This package makes the analogy
executable:

* :mod:`repro.chemistry.gillespie` — an exact stochastic simulation
  algorithm (Gillespie SSA) of that network, run on the compiled δ-table
  with the uniform random scheduler's rates, giving trajectories in
  continuous (chemical) time;
* :mod:`repro.chemistry.energy` — energy trajectories for Circles runs: the
  sum of bra-ket weights plays the role of the free energy being minimized
  (experiment E5).
"""

from repro.chemistry.gillespie import GillespieResult, simulate_crn
from repro.chemistry.energy import EnergyTrajectory, energy_trajectory

__all__ = [
    "GillespieResult",
    "simulate_crn",
    "EnergyTrajectory",
    "energy_trajectory",
]
