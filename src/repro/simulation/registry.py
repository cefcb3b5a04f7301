"""Engine selection.

Experiments used to pick a simulation engine by hard-coding a class; the
registry gives the choice a name so that it can travel through configuration
(``run_protocol(..., engine="batch")``, experiment parameters, benchmark
sweeps) instead of through imports:

* ``"agent"`` — :class:`~repro.simulation.engine.AgentSimulation`: tracks
  every agent individually; the only engine that supports arbitrary (e.g.
  adversarial) schedulers and interaction traces.
* ``"batch"`` — :class:`~repro.simulation.batch_engine.BatchConfigurationSimulation`:
  exact sampling of the configuration chain the uniform random scheduler
  induces, in vectorized rounds (position kernel) or, below the kernel
  gate, from an agent pool one interaction at a time or by skipping the
  null interactions.
* ``"vector"`` — :class:`~repro.simulation.vector_engine.VectorReplicateSimulation`:
  the batch engine plus a many-replicate driver that advances ``R``
  independent replicates of one compiled protocol in lockstep, each row
  bit-identical to the looped batch engine under the same seed; the sweep
  runner routes whole replicate groups through it.
* ``"exact"`` — :class:`~repro.exact.engine.ExactMarkovEngine`: does not
  sample at all — it enumerates the reachable configuration space and
  *solves* the same Markov chain the other engines sample (absorption
  probabilities, exact expected interactions to convergence, correctness
  probability).  Ground truth for small populations; the golden-reference
  conformance suite checks the three stochastic engines against it.

The stochastic/analytical split is carried by the
``samples_trajectories`` class flag: registry-wide trajectory suites
(conformance matrix, distributional agreement) iterate
:func:`stochastic_engines`, so a future sampling engine joins them by
registration alone while ``"exact"`` stays the reference.

>>> from repro.simulation import get_engine
>>> get_engine("batch").engine_name
'batch'
"""

from __future__ import annotations

from repro.simulation.base import SimulationEngine
from repro.simulation.batch_engine import BatchConfigurationSimulation
from repro.simulation.engine import AgentSimulation
from repro.simulation.vector_engine import VectorReplicateSimulation
from repro.utils.errors import unknown_name_error

#: Registry of engine name -> engine class.  The analytical ``"exact"``
#: engine registers itself from :mod:`repro.exact` (imported by the
#: ``repro`` package init) — importing it here would close an import cycle
#: through :mod:`repro.simulation.base`.
ENGINES: dict[str, type[SimulationEngine]] = {
    AgentSimulation.engine_name: AgentSimulation,
    BatchConfigurationSimulation.engine_name: BatchConfigurationSimulation,
    VectorReplicateSimulation.engine_name: VectorReplicateSimulation,
}


def available_engines() -> tuple[str, ...]:
    """The names :func:`get_engine` accepts, sorted."""
    return tuple(sorted(ENGINES))


def stochastic_engines() -> tuple[str, ...]:
    """The engines that sample trajectories (everything but ``"exact"``), sorted."""
    return tuple(
        sorted(name for name, cls in ENGINES.items() if cls.samples_trajectories)
    )


def get_engine(name: str) -> type[SimulationEngine]:
    """Resolve an engine name to its class.

    Raises:
        KeyError: for unknown names, listing the available ones (the shared
            registry error contract of :mod:`repro.utils.errors`).
    """
    try:
        return ENGINES[name]
    except KeyError:
        raise unknown_name_error("engine", name, ENGINES) from None
