"""Where each benchmark layer begins: the repro attributes the traced pass wraps.

Layers are named after the module that owns them.  Each entry wraps the
attribute the caller looks up at run time — a class attribute for methods, or
the module-level name a ``from … import …`` bound in the *calling* module
(``repro.service.queue`` calls its own ``execute_run``, ``repro.exact.engine``
its own ``analyze_absorption``), because rebinding the defining module's name
would not reach those callers.
"""

from __future__ import annotations

import threading

from perfbench.tracing import Tracer


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; undo with :meth:`Tracer.restore`."""
    import repro.api.executor as api_executor
    import repro.exact.absorption as exact_absorption
    import repro.exact.chain as exact_chain
    import repro.exact.engine as exact_engine
    import repro.service.queue as service_queue
    import repro.simulation.base as simulation_base
    from repro.api.records import RunRecord
    from repro.api.spec import RunSpec, SweepSpec
    from repro.service.store import ResultStore
    from repro.simulation.batch_engine import BatchConfigurationSimulation
    from repro.simulation.convergence import (
        OutputConsensus,
        RowwiseActivePairTracker,
        StableCircles,
    )
    from repro.simulation.vector_engine import ReplicateGroup
    from repro.simulation.vector_kernel import PairCodeKernel
    from repro.workloads.registry import WorkloadRegistry

    def count_verdict(args, kwargs, result, error):
        tracer.count("simulation.check_calls")
        if result:
            tracer.count("simulation.check_converged")

    def count_rows(args, kwargs, result, error):
        if result is not None:
            tracer.count("simulation.check_calls", len(result))
            tracer.count("simulation.check_converged", int(result.sum()))

    def count_kernel(args, kwargs, result, error):
        _kernel, rows, length = args
        tracer.count("simulation.kernel_interactions", len(rows) * length)

    attempted_specs: dict[int, object] = {}
    attempts_lock = threading.Lock()

    def count_attempt(args, kwargs, result, error):
        # Holding each spec keeps its id unique while the tracer lives, so
        # attempts minus distinct specs counts the retries.
        with attempts_lock:
            attempted_specs[id(args[0])] = args[0]
            tracer.counters["service.queue.specs"] = len(attempted_specs)
        if error is not None:
            tracer.count("service.queue.failed")

    wrap = tracer.wrap
    wrap(BatchConfigurationSimulation, "run_burst", "simulation.burst")
    wrap(StableCircles, "is_converged_counts", "simulation.check", count_verdict)
    wrap(OutputConsensus, "is_converged_counts", "simulation.check", count_verdict)
    wrap(RowwiseActivePairTracker, "silent_rows", "simulation.check", count_rows)
    wrap(PairCodeKernel, "advance", "simulation.kernel", count_kernel)
    wrap(simulation_base.ConfigurationEngine, "__init__", "simulation.setup")
    wrap(ReplicateGroup, "__init__", "simulation.setup")
    wrap(simulation_base.SimulationEngine, "run", "simulation.run")
    wrap(ReplicateGroup, "run", "simulation.run")
    wrap(WorkloadRegistry, "generate", "workloads.generate")
    wrap(api_executor, "execute_replicate_group", "api.executor.group")
    wrap(simulation_base, "compile_from_states", "compile.compile")
    wrap(exact_chain, "compile_from_states", "compile.compile")
    wrap(SweepSpec, "expand", "api.spec.expand")
    wrap(RunSpec, "sha", "api.spec.sha")
    wrap(SweepSpec, "sha", "api.spec.sha")
    wrap(RunRecord, "to_dict", "api.records.to_dict")
    wrap(RunRecord, "from_dict", "api.records.from_dict")
    wrap(ResultStore, "put", "service.store.put")
    wrap(ResultStore, "get", "service.store.get")
    wrap(ResultStore, "save_manifest", "service.store.manifest_save")
    wrap(service_queue, "execute_run", "service.queue.attempt", count_attempt)
    wrap(exact_engine.ExactMarkovEngine, "_chain_for", "exact.chain")
    wrap(exact_engine, "analyze_absorption", "exact.absorption")
    wrap(exact_engine, "hitting_analysis", "exact.absorption")
    wrap(exact_absorption, "solve_transient_systems", "exact.solve")
