"""Simulation engines for population protocols.

Three engines sample the same dynamics at different granularities, all
behind the shared :class:`repro.simulation.base.SimulationEngine` interface:

* :class:`repro.simulation.engine.AgentSimulation` (``engine="agent"``) —
  tracks every agent individually and works with *any* scheduler, including
  adversarial and adaptive ones.  This is the engine used for correctness
  experiments and the only one that records interaction traces.
* :class:`repro.simulation.batch_engine.BatchConfigurationSimulation`
  (``engine="batch"``) — tracks only the configuration (the multiset of
  states) and samples the chain the uniform random scheduler induces on it.
  Because agents are anonymous (Definition 1.1), this is exact for the
  random scheduler.  It samples in windows: exact vectorized rounds through
  the position kernel of :mod:`repro.simulation.vector_kernel` from
  ``n = 4096`` when numpy is available; below that, one interaction at a
  time from an agent pool while many interactions change a state, and only
  the state-changing ones (with geometric skips over the null ones) once few
  do.  This is the fast path behind the convergence-time benchmarks
  (experiment E6) at ``n = 10^5``–``10^6``.
* :class:`repro.simulation.vector_engine.VectorReplicateSimulation`
  (``engine="vector"``) — the batch engine plus a many-replicate driver
  (:meth:`~repro.simulation.vector_engine.VectorReplicateSimulation.replicate_group`)
  that advances ``R`` independent replicates of one compiled protocol in
  lockstep on a shared ``(R × n)`` state matrix, each row bit-identical to
  the looped batch engine under the same seed.  The sweep runner
  (:mod:`repro.api.executor`) routes whole replicate groups through it.

The configuration-level engines run on *compiled* transition tables
(:mod:`repro.compile`) whenever the protocol's δ-closure fits the compile
cap: the configuration is an integer count vector over the protocol's
reachable state space and every transition is a flat table lookup; the
batch engine's kernel rounds are vectorized when numpy is available.  Past
the cap they fall back to a multiset of states and Python dispatch.

A fourth registry entry, ``engine="exact"``
(:class:`repro.exact.engine.ExactMarkovEngine`), is not a sampler at all: it
solves the same Markov chain analytically for small populations — exact
distributions, absorption probabilities, expected interactions to
convergence — and anchors the golden-reference conformance suite the three
stochastic engines are tested against.

Engines are selected by name through :func:`repro.simulation.get_engine` or,
more commonly, through the ``engine=`` parameter of the high-level API::

    from repro.simulation import run_circles

    result = run_circles([0, 0, 0, 1, 1, 2], seed=1, engine="batch")

On top of the engines, :mod:`repro.simulation.runner` provides the high-level
``run_protocol`` API the examples and the experiment harness use, and
:mod:`repro.simulation.convergence` the stabilization/convergence criteria.
A run without an explicit criterion stops on the protocol's own
:meth:`~repro.protocols.base.PopulationProtocol.default_criterion`
(``StableCircles`` for Circles), and Circles runs report their ket exchanges
and energies; ``run_circles`` is ``run_protocol`` on a ``CirclesProtocol``.
"""

from repro.simulation.population import Population, initial_states
from repro.simulation.base import ConfigurationEngine, SimulationEngine, default_check_interval
from repro.simulation.engine import AgentSimulation, StepRecord
from repro.simulation.batch_engine import BatchConfigurationSimulation
from repro.simulation.vector_engine import (
    ReplicateGroup,
    ReplicateOutcome,
    VectorReplicateSimulation,
)
from repro.simulation.registry import (
    ENGINES,
    available_engines,
    get_engine,
    stochastic_engines,
)
# Importing the exact package registers the analytical "exact" engine (see
# repro.exact._register_engine for why registration lives there).
from repro.exact.engine import ExactMarkovEngine
from repro.simulation.convergence import (
    ConvergenceCriterion,
    OutputConsensus,
    SilentConfiguration,
    StableCircles,
)
from repro.simulation.observers import (
    OBSERVERS,
    CountDelta,
    EnergyObserver,
    KetExchangeObserver,
    Observer,
    PotentialObserver,
    TraceObserver,
    available_observers,
    build_observer,
    ket_exchange_occurred,
    register_observer,
)
from repro.simulation.convergence import ActivePairTracker
from repro.simulation.trace import Trace, TraceEvent
from repro.simulation.runner import (
    RunResult,
    run_circles,
    run_protocol,
)

__all__ = [
    "Observer",
    "CountDelta",
    "OBSERVERS",
    "available_observers",
    "build_observer",
    "register_observer",
    "TraceObserver",
    "EnergyObserver",
    "PotentialObserver",
    "KetExchangeObserver",
    "ActivePairTracker",
    "Population",
    "initial_states",
    "SimulationEngine",
    "ConfigurationEngine",
    "default_check_interval",
    "AgentSimulation",
    "BatchConfigurationSimulation",
    "VectorReplicateSimulation",
    "ReplicateGroup",
    "ReplicateOutcome",
    "ExactMarkovEngine",
    "ENGINES",
    "available_engines",
    "get_engine",
    "stochastic_engines",
    "StepRecord",
    "ConvergenceCriterion",
    "OutputConsensus",
    "SilentConfiguration",
    "StableCircles",
    "Trace",
    "TraceEvent",
    "RunResult",
    "ket_exchange_occurred",
    "run_protocol",
    "run_circles",
]
