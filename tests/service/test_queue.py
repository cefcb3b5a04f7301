"""The asyncio work-stealing executor: identity, retry, timeout, cancellation."""

import threading
import time

import pytest

import repro.api.executor as executor_module
from repro.api.executor import (
    SerialExecutor,
    SweepRunner,
    available_executors,
    build_executor,
    execute_run,
)
from repro.api.records import RunRecord
from repro.api.spec import RunSpec, SweepSpec
from repro.api.stopping import StoppingRule
from repro.service import queue
from repro.service.queue import AsyncExecutor, RunFailed
from repro.service.store import ResultStore
from repro.simulation.batch_engine import NUMPY_BURST_THRESHOLD


def toy_record(spec: RunSpec) -> RunRecord:
    return RunRecord(
        spec=spec, protocol_name=spec.protocol, num_colors=spec.k,
        scheduler_name="none", converged=True, correct=True, steps=0,
        interactions_changed=0,
    )


#: Shared state for the flaky/sleepy faults (threads share the process).
_FLAKY = {"failures_left": 0, "attempts": 0, "lock": threading.Lock()}


def _flaky_run(spec: RunSpec) -> RunRecord:
    with _FLAKY["lock"]:
        _FLAKY["attempts"] += 1
        if _FLAKY["failures_left"] > 0:
            _FLAKY["failures_left"] -= 1
            raise RuntimeError("transient worker failure (test)")
    return toy_record(spec)


def _sleepy_run(spec: RunSpec) -> RunRecord:
    time.sleep(0.4)
    return toy_record(spec)


#: Rows the napping fault has started (groups of it run row by row).
_NAPS = {"started": 0, "lock": threading.Lock()}


def _napping_run(spec: RunSpec) -> RunRecord:
    with _NAPS["lock"]:
        _NAPS["started"] += 1
    time.sleep(0.2)
    return toy_record(spec)


#: A spec whose protocol is named here runs its fault instead of a simulation.
FAULTS = {"fault-flaky": _flaky_run, "fault-sleepy": _sleepy_run, "fault-napping": _napping_run}


@pytest.fixture(autouse=True)
def inject_faults(monkeypatch):
    """Patch ``execute_run`` where the queue calls it: its own name for units
    of one, the executor module's for the rows of a group that cannot run in
    lockstep.  Specs of real protocols run as before."""
    real = executor_module.execute_run

    def execute(spec: RunSpec) -> RunRecord:
        fault = FAULTS.get(spec.protocol)
        return real(spec) if fault is None else fault(spec)

    monkeypatch.setattr(executor_module, "execute_run", execute)
    monkeypatch.setattr(queue, "execute_run", execute)


def fault_spec(fault: str, seed: int) -> RunSpec:
    return RunSpec(protocol=fault, n=8, k=2, seed=seed)


def fault_group(fault: str, rows: int, first_seed: int = 1) -> list[RunSpec]:
    """A group of fault specs, executed one by one (agent specs never run in lockstep)."""
    return [fault_spec(fault, first_seed + row) for row in range(rows)]


class TestRecordIdentity:
    """Acceptance: asyncio is record-identical to serial and multiprocessing."""

    @pytest.fixture(scope="class")
    def sweep(self):
        return SweepSpec(
            protocols=("circles", "cancellation-plurality"),
            populations=(8, 12),
            ks=(3,),
            engines=("batch",),
            trials=2,
            seed=31,
            max_steps_quadratic=200,
        )

    @pytest.fixture(scope="class")
    def serial_records(self, sweep):
        return [execute_run(spec) for spec in sweep.expand()]

    @pytest.mark.parametrize("executor", ["serial", "multiprocessing", "asyncio"])
    def test_executor_agreement(self, executor, sweep, serial_records):
        units = [[spec] for spec in sweep.expand()]
        records = build_executor(executor, workers=3).map_groups(units)
        assert [record for [record] in records] == serial_records

    def test_asyncio_through_sweep_runner_by_name(self, sweep, serial_records):
        result = SweepRunner(executor="asyncio", workers=2).run(sweep)
        assert result.records == serial_records

    def test_single_worker_and_empty_input(self):
        assert AsyncExecutor(1).map_groups([]) == []
        spec = RunSpec(protocol="circles", n=8, k=2, engine="batch", seed=3,
                       max_steps=2_000)
        assert AsyncExecutor(1).map_groups([[spec]]) == [[execute_run(spec)]]

    def test_more_workers_than_specs(self):
        spec = RunSpec(protocol="circles", n=8, k=2, engine="batch", seed=3,
                       max_steps=2_000)
        assert AsyncExecutor(16).map_groups([[spec], [spec]]) == [[execute_run(spec)]] * 2

    def test_a_unit_of_one_runs_through_execute_run(self, monkeypatch):
        """The benchmark's attempt span wraps this module's ``execute_run``."""
        seen = []
        monkeypatch.setattr(queue, "execute_run", lambda spec: seen.append(spec) or "record")
        spec = RunSpec(protocol="circles", n=8, k=2, engine="batch", seed=3)
        assert AsyncExecutor(1).map_groups([[spec]]) == [["record"]]
        assert seen == [spec]


class TestReplicateGroups:
    """``map_groups``: lockstep groups through the same queue as single runs."""

    @pytest.mark.parametrize("n", [16, NUMPY_BURST_THRESHOLD])
    def test_map_groups_equals_serial(self, n):
        specs = SweepSpec(
            protocols=("circles",), populations=(n,), ks=(2, 3), engines=("vector",),
            trials=3, max_steps=5_000, seed=41,
        ).expand()
        groups = [[spec for spec in specs if spec.k == k] for k in (2, 3)]
        assert [len(group) for group in groups] == [3, 3]
        assert AsyncExecutor(2).map_groups(groups) == SerialExecutor().map_groups(groups)

    def test_empty_input(self):
        assert AsyncExecutor(2).map_groups([]) == []

    def test_kernel_group_leaves_no_threads_behind(self, monkeypatch):
        vector_kernel = pytest.importorskip("repro.simulation.vector_kernel")
        monkeypatch.setattr(vector_kernel, "available_cpus", lambda: 2)
        specs = SweepSpec(
            protocols=("circles",), populations=(NUMPY_BURST_THRESHOLD,), ks=(3,),
            engines=("vector",), trials=4, max_steps=5_000, seed=43,
        ).expand()
        threads_before = threading.active_count()
        records = AsyncExecutor(2).map_groups([specs])
        assert threading.active_count() == threads_before
        assert records == SerialExecutor().map_groups([specs])

    @pytest.mark.parametrize(
        "trials, stopping",
        [
            (3, None),
            ("auto", StoppingRule(metric="correct", proportion=True,
                                  target_half_width=0.3, min_trials=2,
                                  batch_size=2, max_trials=6)),
        ],
        ids=["fixed", "auto"],
    )
    def test_store_backed_sweep_equals_per_spec_sweep(
        self, tmp_path, per_spec_sweep, trials, stopping
    ):
        sweep = SweepSpec(
            protocols=("circles",), populations=(8, 12), ks=(2,), engines=("vector",),
            trials=trials, stopping=stopping, seed=47, max_steps_quadratic=200,
        )
        executor = AsyncExecutor(2)
        grouped: list[int] = []
        map_groups = executor.map_groups

        def counting_map_groups(groups):
            grouped.extend(len(group) for group in groups)
            return map_groups(groups)

        executor.map_groups = counting_map_groups
        result = SweepRunner(executor=executor, store=ResultStore(tmp_path)).run(sweep)
        reference = per_spec_sweep(sweep)
        assert grouped and all(rows > 1 for rows in grouped)
        assert result.records == reference.records
        assert result.extras == reference.extras

    def test_failing_group_is_retried_then_cancels_its_siblings(self):
        bad = fault_group("fault-flaky", 3)
        slow = [fault_group("fault-napping", 2, first_seed=10 * i)
                for i in range(1, 5)]
        with _FLAKY["lock"]:
            _FLAKY["failures_left"] = 10**9
            _FLAKY["attempts"] = 0
        with _NAPS["lock"]:
            _NAPS["started"] = 0
        try:
            with pytest.raises(RunFailed) as excinfo:
                AsyncExecutor(2, retries=1, backoff=0.001).map_groups([bad] + slow)
        finally:
            with _FLAKY["lock"]:
                _FLAKY["failures_left"] = 0
        assert (excinfo.value.spec, excinfo.value.rows) == (bad[0], 3)
        assert excinfo.value.attempts == 2
        assert "replicate group of 3 runs" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert _FLAKY["attempts"] == 2  # the first row fails each attempt
        # Only the group the other worker had already started ran; the three
        # queued behind it were cancelled before they began.
        assert _NAPS["started"] == 2

    def test_transient_group_failure_is_retried(self):
        group = fault_group("fault-flaky", 3)
        with _FLAKY["lock"]:
            _FLAKY["failures_left"] = 2
            _FLAKY["attempts"] = 0
        [records] = AsyncExecutor(1, retries=2, backoff=0.001).map_groups([group])
        assert [record.spec for record in records] == group
        assert _FLAKY["attempts"] == 2 + len(group)

    def test_group_timeout_scales_with_its_rows(self):
        """Three 0.2 s rows: a 0.3 s per-run timeout gives the group 0.9 s."""
        group = fault_group("fault-napping", 3)
        [records] = AsyncExecutor(1, timeout=0.3, retries=0).map_groups([group])
        assert [record.spec for record in records] == group
        with pytest.raises(RunFailed) as excinfo:
            AsyncExecutor(1, timeout=0.1, retries=0).map_groups([group])
        assert isinstance(excinfo.value.__cause__, TimeoutError)
        assert excinfo.value.rows == 3


class TestRetryAndBackoff:
    def test_transient_failures_are_retried(self):
        specs = [fault_spec("fault-flaky", i) for i in range(4)]
        with _FLAKY["lock"]:
            _FLAKY["failures_left"] = 3
            _FLAKY["attempts"] = 0
        # retries=3: even if one unlucky spec absorbs all three failures it
        # still has an attempt left, so the test is schedule-independent.
        records = AsyncExecutor(2, retries=3, backoff=0.001).map_groups([[s] for s in specs])
        assert [record.spec for [record] in records] == specs
        assert _FLAKY["attempts"] == len(specs) + 3  # each failure retried

    def test_retry_budget_is_bounded(self):
        spec = fault_spec("fault-flaky", 1)
        with _FLAKY["lock"]:
            _FLAKY["failures_left"] = 10**9
            _FLAKY["attempts"] = 0
        with pytest.raises(RunFailed) as excinfo:
            AsyncExecutor(2, retries=2, backoff=0.001).map_groups([[spec]])
        with _FLAKY["lock"]:
            _FLAKY["failures_left"] = 0
        assert excinfo.value.attempts == 3  # 1 attempt + 2 retries
        assert excinfo.value.spec == spec
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_failure_cancels_the_rest_gracefully(self):
        """A terminal failure surfaces promptly; map_groups never hangs."""
        bad = fault_spec("fault-flaky", 1)
        slow = [fault_spec("fault-sleepy", i) for i in range(2, 6)]
        with _FLAKY["lock"]:
            _FLAKY["failures_left"] = 10**9
        try:
            with pytest.raises(RunFailed):
                AsyncExecutor(2, retries=0, backoff=0.0).map_groups([[s] for s in [bad] + slow])
        finally:
            with _FLAKY["lock"]:
                _FLAKY["failures_left"] = 0


class TestTimeout:
    def test_run_exceeding_timeout_fails_after_retries(self):
        spec = fault_spec("fault-sleepy", 1)
        start = time.perf_counter()
        with pytest.raises(RunFailed) as excinfo:
            AsyncExecutor(1, timeout=0.05, retries=1, backoff=0.001).map_groups([[spec]])
        elapsed = time.perf_counter() - start
        assert isinstance(excinfo.value.__cause__, TimeoutError)
        assert excinfo.value.attempts == 2
        assert elapsed < 5.0

    def test_fast_run_is_unaffected_by_timeout(self):
        spec = RunSpec(protocol="circles", n=8, k=2, engine="batch", seed=3,
                       max_steps=2_000)
        records = AsyncExecutor(1, timeout=30.0).map_groups([[spec]])
        assert records == [[execute_run(spec)]]


class TestValidationAndRegistry:
    def test_asyncio_is_registered(self):
        assert "asyncio" in available_executors()
        executor = build_executor("asyncio", workers=2, timeout=1.0, retries=0)
        assert isinstance(executor, AsyncExecutor)
        assert (executor.workers, executor.timeout, executor.retries) == (2, 1.0, 0)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_workers_must_be_positive(self, bad):
        with pytest.raises(ValueError, match="workers must be a positive"):
            AsyncExecutor(bad)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="timeout must be positive"):
            AsyncExecutor(1, timeout=0)
        with pytest.raises(ValueError, match="retries must be non-negative"):
            AsyncExecutor(1, retries=-1)
        with pytest.raises(ValueError, match="backoff must be non-negative"):
            AsyncExecutor(1, backoff=-0.1)
