"""The experiment harness: one module per experiment E1–E8.

Each ``eN_*`` module exposes a ``run(...)`` function with laptop-scale default
parameters that returns an :class:`repro.experiments.harness.ExperimentResult`
— the table/series that ``python -m repro.experiments.report`` renders
(README, *Experiment reports*).  The benchmark suite under
``benchmarks/`` wraps these same functions with pytest-benchmark so the paper
reproduction and the performance tracking share one code path.

Importing this package registers every experiment under its identifier
("E1" … "E8"), so ``get_experiment("E3")()`` runs the correctness experiment.
"""

from repro.experiments.harness import (
    ExperimentResult,
    experiment_catalog,
    get_experiment,
    register_experiment,
)
from repro.experiments import (
    e1_state_complexity,
    e2_stabilization,
    e3_correctness,
    e4_stable_structure,
    e5_energy,
    e6_convergence,
    e7_extensions,
    e8_scheduler_sensitivity,
)

register_experiment("E1", e1_state_complexity.run)
register_experiment("E2", e2_stabilization.run)
register_experiment("E3", e3_correctness.run)
register_experiment("E4", e4_stable_structure.run)
register_experiment("E5", e5_energy.run)
register_experiment("E6", e6_convergence.run)
register_experiment("E7", e7_extensions.run)
register_experiment("E8", e8_scheduler_sensitivity.run)

__all__ = [
    "ExperimentResult",
    "register_experiment",
    "get_experiment",
    "experiment_catalog",
    "e1_state_complexity",
    "e2_stabilization",
    "e3_correctness",
    "e4_stable_structure",
    "e5_energy",
    "e6_convergence",
    "e7_extensions",
    "e8_scheduler_sensitivity",
]
