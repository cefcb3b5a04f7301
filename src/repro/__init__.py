"""repro — a reproduction of the Circles population protocol (PODC 2025).

The library implements, tests and benchmarks the paper

    Breitkopf, Dallot, El-Hayek, Schmid.
    "Brief Announcement: Minimizing Energy Solves Relative Majority with a
    Cubic Number of States in Population Protocols", PODC 2025.

Top-level API
-------------

The most common entry points are re-exported here:

* :class:`CirclesProtocol` — the paper's protocol (``k^3`` states).
* :func:`run_circles` / :func:`run_protocol` — simulate a protocol on an
  input color assignment under a (weakly fair) scheduler.  Both accept
  ``engine="agent" | "batch" | "vector" | "exact"`` (see
  :func:`get_engine`); the batched engine is the fast path for large
  populations, and the analytical ``"exact"`` engine (:mod:`repro.exact`)
  solves the small-``n`` Markov chain instead of sampling it.  The
  configuration-level engines run on *compiled* transition tables
  (:func:`compile_protocol`, :mod:`repro.compile`) whenever the protocol's
  δ-closure fits the compile cap, and on Python dispatch past it.
* :class:`RunSpec` / :class:`SweepSpec` / :func:`run_sweep` — the
  declarative sweep layer (:mod:`repro.api`): describe runs and grids as
  plain data (every axis by registry name), execute them serially or over a
  process pool, and persist the resulting records as JSON.
* :class:`ResultStore` — the sweep service's content-addressed result cache
  (:mod:`repro.service`): pass ``store=`` to :func:`run_sweep` and identical
  specs are served from disk instead of re-simulated, with checkpoint/resume
  for interrupted sweeps and an HTTP front end
  (``python -m repro.service.serve``).
* :func:`predicted_majority`, :func:`predicted_stable_brakets` — the
  combinatorial predictions from the paper's proofs.
* :mod:`repro.protocols` — baselines and the §4 extensions.
* :mod:`repro.scheduling` — fair and adversarial schedulers.
* :mod:`repro.analysis` — state-complexity accounting and exhaustive
  verification.
* :mod:`repro.chemistry` — the reaction-network view: a Gillespie SSA on the
  compiled δ-table and the energy-minimization trajectories.
* :mod:`repro.experiments` — the E1–E8 experiment harness behind
  ``python -m repro.experiments.report`` (README, *Experiments*).

Quickstart
----------

>>> from repro import run_circles
>>> result = run_circles([0, 0, 0, 1, 1, 2], seed=1)
>>> result.correct
True
>>> sorted(set(result.outputs))
[0]
"""

from repro.compile import (
    CompiledProtocol,
    compile_protocol,
    enumerate_states,
    reachable_state_count,
)
from repro.core.braket import BraKet, braket_weight
from repro.core.circles import CirclesProtocol, CirclesVariant
from repro.core.greedy_sets import (
    greedy_independent_sets,
    predicted_majority,
    predicted_stable_brakets,
)
from repro.core.potential import configuration_energy, minimum_energy, ordinal_potential
from repro.core.state import CirclesState
from repro.protocols.base import PopulationProtocol, TransitionResult
from repro.protocols.registry import get_protocol, register_protocol
from repro.simulation.observers import (
    Observer,
    available_observers,
    build_observer,
    register_observer,
)
from repro.simulation.registry import available_engines, get_engine, stochastic_engines
from repro.simulation.runner import RunResult, run_circles, run_protocol
from repro.exact import (
    ConfigurationChain,
    DistributionResult,
    ExactMarkovEngine,
    exact_correctness_probability,
    exact_expected_convergence,
)
from repro.workloads.registry import get_workload, register_workload, workload_names
from repro.api import RunRecord, RunSpec, SweepResult, SweepSpec, run_sweep
from repro.service import AsyncExecutor, ResultStore, SweepManifest

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "BraKet",
    "braket_weight",
    "CirclesProtocol",
    "CirclesVariant",
    "CirclesState",
    "greedy_independent_sets",
    "predicted_majority",
    "predicted_stable_brakets",
    "configuration_energy",
    "minimum_energy",
    "ordinal_potential",
    "PopulationProtocol",
    "TransitionResult",
    "CompiledProtocol",
    "compile_protocol",
    "enumerate_states",
    "reachable_state_count",
    "get_protocol",
    "register_protocol",
    "available_engines",
    "get_engine",
    "stochastic_engines",
    "ConfigurationChain",
    "DistributionResult",
    "ExactMarkovEngine",
    "exact_correctness_probability",
    "exact_expected_convergence",
    "Observer",
    "available_observers",
    "build_observer",
    "register_observer",
    "RunResult",
    "run_circles",
    "run_protocol",
    "get_workload",
    "register_workload",
    "workload_names",
    "RunSpec",
    "SweepSpec",
    "RunRecord",
    "SweepResult",
    "run_sweep",
    "AsyncExecutor",
    "ResultStore",
    "SweepManifest",
]


def _register_builtin_protocols() -> None:
    """Populate the default protocol registry with every built-in protocol."""
    from repro.protocols.approximate_majority import ApproximateMajorityProtocol
    from repro.protocols.cancellation_plurality import CancellationPluralityProtocol
    from repro.protocols.circles_ties import TieReportCircles
    from repro.protocols.circles_unordered import UnorderedCirclesProtocol
    from repro.protocols.exact_majority import ExactMajorityProtocol
    from repro.protocols.leader_election import LeaderElectionProtocol, PerColorLeaderElection
    from repro.protocols.ordering import ColorOrderingProtocol
    from repro.protocols.registry import DEFAULT_REGISTRY
    from repro.protocols.tournament_plurality import TournamentPluralityProtocol

    builtin = {
        "circles": CirclesProtocol,
        "circles-tie-report": TieReportCircles,
        "circles-unordered": UnorderedCirclesProtocol,
        "color-ordering": ColorOrderingProtocol,
        "exact-majority": ExactMajorityProtocol,
        "approximate-majority": ApproximateMajorityProtocol,
        "cancellation-plurality": CancellationPluralityProtocol,
        "tournament-plurality": TournamentPluralityProtocol,
        "leader-election": LeaderElectionProtocol,
        "per-color-leader-election": PerColorLeaderElection,
    }
    for name, factory in builtin.items():
        if name not in DEFAULT_REGISTRY:
            DEFAULT_REGISTRY.register(name, factory)


_register_builtin_protocols()
