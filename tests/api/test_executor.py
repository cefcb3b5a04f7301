"""Tests for spec execution: determinism, parallel equivalence, registries."""

import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.api.executor import (
    MultiprocessingExecutor,
    SerialExecutor,
    SweepRunner,
    available_executors,
    build_criterion,
    build_executor,
    build_scheduler,
    execute_run,
    get_runner,
    register_executor,
    register_runner,
    resolve_workload,
    run_sweep,
)
from repro.api.records import RunRecord
from repro.api.spec import RunSpec, SweepSpec
from repro.core.circles import CirclesProtocol
from repro.service.store import ResultStore
from repro.simulation.convergence import OutputConsensus, StableCircles


class TestSeedDeterminism:
    """Same RunSpec seed -> identical record, for every engine (satellite)."""

    @pytest.mark.parametrize("engine", ["agent", "batch"])
    def test_repeat_runs_are_identical(self, engine):
        spec = RunSpec(
            protocol="circles", n=10, k=3, engine=engine, seed=123, max_steps=20_000
        )
        first = execute_run(spec)
        second = execute_run(spec)
        assert first == second
        assert first.summary() == second.summary()
        assert first.engine == engine
        assert first.seed == 123

    @pytest.mark.parametrize("engine", ["agent", "batch"])
    def test_different_seeds_reach_the_same_answer_differently(self, engine):
        base = RunSpec(protocol="circles", n=10, k=3, engine=engine, seed=1, max_steps=20_000)
        other = base.with_seed(2)
        first, second = execute_run(base), execute_run(other)
        assert first.correct and second.correct
        assert (first.steps, first.interactions_changed) != (
            second.steps,
            second.interactions_changed,
        )

    def test_workload_seed_pins_the_input(self):
        spec_a = RunSpec(protocol="circles", n=12, k=3, seed=1, workload_seed=7)
        spec_b = RunSpec(protocol="circles", n=12, k=3, seed=2, workload_seed=7)
        assert resolve_workload(spec_a) == resolve_workload(spec_b)


class TestParallelEquivalence:
    def test_workers_2_equals_serial_record_for_record(self):
        sweep = SweepSpec(
            protocols=("circles", "cancellation-plurality"),
            populations=(8, 12),
            ks=(3,),
            engines=("batch",),
            trials=2,
            seed=31,
            max_steps_quadratic=200,
        )
        serial = run_sweep(sweep)
        parallel = run_sweep(sweep, workers=2)
        assert parallel.records == serial.records

    def test_spec_level_workers_field(self):
        sweep = SweepSpec(
            protocols=("circles",), populations=(8,), ks=(2,), trials=2, seed=3,
            engines=("batch",), max_steps_quadratic=200, workers=2,
        )
        assert run_sweep(sweep).records == run_sweep(sweep, workers=1).records

    def test_custom_executor_is_pluggable(self):
        class ReversingExecutor:
            """Executes out of order — results must still come back in order."""

            def map_groups(self, groups):
                records = {id(group): SerialExecutor().map_groups([group])[0]
                           for group in reversed(groups)}
                return [records[id(group)] for group in groups]

        sweep = SweepSpec(protocols=("circles",), populations=(8,), ks=(2,), trials=2,
                          seed=5, engines=("batch",), max_steps_quadratic=200)
        plugged = SweepRunner(executor=ReversingExecutor()).run(sweep)
        assert plugged.records == SweepRunner().run(sweep).records

    def test_executor_classes_validate(self):
        with pytest.raises(ValueError):
            MultiprocessingExecutor(0)
        assert MultiprocessingExecutor(1).map_groups([]) == SerialExecutor().map_groups([])


class TestPoolLifetime:
    """A multiprocessing sweep keeps one pool across its rounds and closes it."""

    @staticmethod
    def _count_pools(monkeypatch):
        pools = []
        get_context = multiprocessing.get_context

        class CountingContext:
            def __init__(self, *args):
                self._context = get_context(*args)

            def Pool(self, *args, **kwargs):
                pools.append(self._context.Pool(*args, **kwargs))
                return pools[-1]

        monkeypatch.setattr(multiprocessing, "get_context", CountingContext)
        return pools

    @staticmethod
    def _sweep():
        # Agent-engine runs are units of one, so 2 workers need several rounds.
        return SweepSpec(protocols=("circles",), populations=(8, 10, 12, 14), ks=(2,),
                         trials=2, seed=11, engines=("agent",), max_steps_quadratic=200)

    def test_store_backed_sweep_starts_one_pool_and_leaves_no_child(
        self, monkeypatch, tmp_path
    ):
        sweep = self._sweep()
        serial = run_sweep(sweep)
        pools = self._count_pools(monkeypatch)
        store = ResultStore(tmp_path)
        runner = SweepRunner(workers=2, store=store)
        assert runner.executor.workers == 2
        assert runner.run(sweep).records == serial.records
        assert len(pools) == 1
        assert multiprocessing.active_children() == []
        # Served wholly from the store: no pool at all.
        assert SweepRunner(workers=2, store=store).run(sweep).records == serial.records
        assert len(pools) == 1

    def test_sessions_do_not_share_pools(self, monkeypatch):
        # The sweep service runs concurrent sweeps on one executor: closing
        # one sweep's session must leave the other's pool running.
        pools = self._count_pools(monkeypatch)
        specs = self._sweep().expand()[:4]
        units = [[spec] for spec in specs]
        expected = [[execute_run(spec)] for spec in specs]
        executor = MultiprocessingExecutor(2)
        with executor.session() as first:
            with executor.session() as second:
                assert first.map_groups(units) == expected
                assert second.map_groups(units) == expected
            assert first.map_groups(units) == expected
        assert len(pools) == 2
        assert multiprocessing.active_children() == []

    def test_calls_outside_a_session_close_their_own_pool(self, monkeypatch):
        pools = self._count_pools(monkeypatch)
        specs = self._sweep().expand()[:2]
        executor = MultiprocessingExecutor(2)
        assert executor.map_groups([[spec] for spec in specs]) == [
            [execute_run(spec)] for spec in specs
        ]
        assert len(pools) == 1
        assert multiprocessing.active_children() == []


class TestSweepRunnerValidation:
    """Fix (satellite): non-positive workers fail loudly up front, not deep
    inside the pool machinery."""

    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_workers_zero_or_negative_raise_value_error(self, bad):
        with pytest.raises(ValueError, match="workers must be a positive"):
            SweepRunner(workers=bad)
        with pytest.raises(ValueError, match="workers must be a positive"):
            build_executor("serial", workers=bad)
        with pytest.raises(ValueError, match="workers must be a positive"):
            run_sweep(SweepSpec(protocols=("circles",), populations=(8,), ks=(2,)),
                      workers=bad)

    def test_error_message_names_the_remedy(self):
        with pytest.raises(ValueError, match="omit it \\(or pass None\\)"):
            SweepRunner(workers=0)

    def test_none_and_one_still_run_serially(self):
        assert isinstance(SweepRunner(workers=None).executor, SerialExecutor)
        assert isinstance(SweepRunner(workers=1).executor, SerialExecutor)


class TestExecutorRegistry:
    def test_builtin_names_resolve(self):
        assert isinstance(build_executor("serial"), SerialExecutor)
        built = build_executor("multiprocessing", workers=3)
        assert isinstance(built, MultiprocessingExecutor)
        assert built.workers == 3

    def test_available_includes_the_service_executor(self):
        names = available_executors()
        assert {"serial", "multiprocessing", "asyncio"} <= set(names)
        assert names == tuple(sorted(names))

    def test_unknown_executor_raises_with_listing(self):
        with pytest.raises(KeyError, match="unknown executor 'nope'"):
            build_executor("nope")

    def test_register_executor_guards_collisions(self):
        register_executor("api-test-executor", lambda workers=None, **p: SerialExecutor())
        assert isinstance(build_executor("api-test-executor"), SerialExecutor)
        with pytest.raises(ValueError, match="already registered"):
            register_executor("api-test-executor", lambda workers=None, **p: SerialExecutor())
        register_executor(
            "api-test-executor", lambda workers=None, **p: SerialExecutor(), overwrite=True
        )

    def test_sweep_runner_accepts_executor_names(self):
        sweep = SweepSpec(protocols=("circles",), populations=(8,), ks=(2,), trials=2,
                          seed=5, engines=("batch",), max_steps_quadratic=200)
        by_name = SweepRunner(executor="serial").run(sweep)
        assert by_name.records == SweepRunner().run(sweep).records


class TestRunIter:
    def test_streaming_matches_run_in_order_and_content(self):
        sweep = SweepSpec(protocols=("circles",), populations=(8, 10), ks=(2,), trials=2,
                          seed=11, engines=("batch",), max_steps_quadratic=200)
        runner = SweepRunner()
        events = list(runner.run_iter(sweep))
        assert [index for index, _record, _cached in events] == list(range(len(sweep)))
        assert all(not cached for _i, _r, cached in events)
        assert [record for _i, record, _c in events] == SweepRunner().run(sweep).records


class TestRegistries:
    def test_unknown_names_raise_with_listings(self):
        with pytest.raises(ValueError, match="unknown criterion"):
            build_criterion("nope")
        with pytest.raises(ValueError, match="unknown scheduler"):
            build_scheduler("nope", 8)
        with pytest.raises(KeyError, match="unknown runner"):
            get_runner("nope")
        with pytest.raises(KeyError, match="unknown workload"):
            execute_run(RunSpec(protocol="circles", n=8, k=2, workload="nope"))

    def test_criteria_resolve(self):
        assert isinstance(build_criterion("output-consensus"), OutputConsensus)
        assert isinstance(build_criterion("stable-circles"), StableCircles)

    def test_scheduler_builder_closes_over_protocol(self):
        protocol = CirclesProtocol(2)
        scheduler = build_scheduler("greedy-stall", 8, seed=1, protocol=protocol)
        assert scheduler.is_weakly_fair
        isolated = build_scheduler("isolation", 8, seed=1, isolated=[0, 1])
        assert not isolated.is_weakly_fair

    def test_custom_runner_round_trip(self):
        def toy_runner(spec: RunSpec) -> RunRecord:
            return RunRecord(
                spec=spec, seed=spec.seed, protocol_name=spec.protocol,
                num_agents=spec.n, num_colors=spec.k, engine=spec.engine,
                scheduler_name="none", converged=True, correct=True, steps=0,
                interactions_changed=0, extras={"toy": True},
            )

        register_runner("toy-runner", toy_runner)
        record = execute_run(RunSpec(protocol="circles", n=8, k=2, runner="toy-runner"))
        assert record.extras == {"toy": True}
        with pytest.raises(ValueError, match="already registered"):
            register_runner("toy-runner", toy_runner)
        register_runner("toy-runner", toy_runner, overwrite=True)

    def test_runner_lookup_imports_no_experiment(self):
        """Experiments run on the default runner and register none, so a
        cold lookup neither imports them nor finds a runner of theirs."""
        code = (
            "import sys\n"
            "from repro.api.executor import get_runner\n"
            "try:\n"
            "    get_runner('e2-stabilization')\n"
            "except KeyError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('resolved')\n"
            "assert 'repro.experiments' not in sys.modules\n"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )


class TestProtocolRunner:
    def test_explicit_criterion_overrides_circles_default(self):
        stable = execute_run(
            RunSpec(protocol="circles", n=8, k=2, seed=3, max_steps=10_000)
        )
        consensus = execute_run(
            RunSpec(protocol="circles", n=8, k=2, seed=3, criterion="output-consensus",
                    max_steps=10_000)
        )
        assert stable.converged and consensus.converged
        # StableCircles implies output consensus, so consensus stops no later.
        assert consensus.steps <= stable.steps
        # The ket and energy bookkeeping belongs to the protocol, not to its
        # default criterion: both runs report it.
        assert stable.initial_energy == consensus.initial_energy is not None
        assert stable.ket_exchanges is not None
        assert consensus.ket_exchanges is not None

    def test_named_scheduler_on_agent_engine(self):
        record = execute_run(
            RunSpec(protocol="circles", n=8, k=2, seed=3, scheduler="round-robin",
                    scheduler_params={"shuffle_once": True}, max_steps=20_000)
        )
        assert record.scheduler_name == "round-robin"
        assert record.correct

    def test_scheduler_rejected_on_configuration_engines(self):
        with pytest.raises(ValueError, match="uniform random scheduler"):
            execute_run(
                RunSpec(protocol="circles", n=8, k=2, engine="batch",
                        scheduler="uniform-random", seed=1)
            )


class TestCompileCap:
    """The compile cap alone picks the compiled or the interned path."""

    @pytest.mark.parametrize("engine", ["agent", "batch"])
    def test_uncompiled_path_still_produces_a_correct_record(self, engine, force_uncompiled):
        spec = RunSpec(protocol="circles", n=10, k=2, engine=engine, seed=7,
                       max_steps=50_000)
        record = execute_run(spec)
        assert record.correct

    def test_compiled_runs_match_uncompiled_runs_in_outcome(self, request):
        spec = RunSpec(protocol="exact-majority", n=12, k=2, engine="batch",
                       seed=5, criterion="output-consensus", max_steps=50_000)
        compiled_record = execute_run(spec)
        request.getfixturevalue("force_uncompiled")
        uncompiled_record = execute_run(spec)
        assert compiled_record.correct and uncompiled_record.correct
        assert compiled_record.num_agents == uncompiled_record.num_agents


class TestObserverSummaries:
    def test_summaries_land_in_record_extras(self):
        spec = RunSpec(
            protocol="circles", n=12, k=3, engine="batch", seed=9,
            max_steps=40_000, observers=("energy", "ket-exchanges"),
        )
        record = execute_run(spec)
        summaries = record.extras["observers"]
        assert summaries["energy"]["initial_energy"] == 12 * 3
        assert summaries["energy"]["monotone_nonincreasing"]
        assert summaries["ket-exchanges"]["ket_exchanges"] == record.ket_exchanges
        # The extras survive the JSON round trip like every other field.
        assert RunRecord.from_dict(record.to_dict()) == record

    def test_circles_shaped_observer_on_foreign_protocol_fails_clearly(self):
        spec = RunSpec(
            protocol="exact-majority", n=10, k=2, engine="batch", seed=4,
            max_steps=20_000, observers=(("energy", {"record": "check"}),),
        )
        with pytest.raises(TypeError, match="Circles-shaped states"):
            execute_run(spec)

    def test_runs_without_observers_have_no_extras_key(self):
        spec = RunSpec(protocol="circles", n=10, k=3, engine="batch", seed=4, max_steps=10_000)
        record = execute_run(spec)
        assert "observers" not in record.extras

    def test_unknown_observer_name_fails_with_registry_error(self):
        spec = RunSpec(
            protocol="circles", n=10, k=3, seed=4, max_steps=1_000, observers=("nope",)
        )
        with pytest.raises(KeyError, match="unknown observer 'nope'"):
            execute_run(spec)
