"""VectorReplicateSimulation / ReplicateGroup: lockstep replicates, bit-for-bit.

The contract under test: every row of a replicate group is *bit-identical* to
a serial :class:`BatchConfigurationSimulation` run with the same seed — same
convergence verdict, same retirement step, same interactions-changed count,
same ket-exchange count, same final configuration.  That holds on both
representations: the looped-batch fallback (small populations, or numpy-free
installs) and the shared-state-matrix kernel path (``n >= 4096`` with numpy).
"""

import threading

import pytest

from repro.api.executor import MultiprocessingExecutor, SerialExecutor, replicate_group_key
from repro.api.spec import SweepSpec
from repro.core.circles import CirclesProtocol
from repro.protocols.base import PopulationProtocol, TransitionResult
from repro.simulation.batch_engine import BatchConfigurationSimulation
from repro.simulation.convergence import SilentConfiguration, StableCircles
from repro.simulation.observers import KetExchangeObserver
from repro.simulation.vector_engine import (
    ReplicateGroup,
    VectorReplicateSimulation,
)

#: Population size at or above the batch engine's numpy gate — groups built
#: at this size exercise the shared-matrix kernel path (when numpy is
#: installed; without it the fallback runs and the assertions still hold).
KERNEL_N = 4096


class MinEpidemic(PopulationProtocol[int]):
    """Both agents adopt the smaller value — silent once the minimum spreads."""

    name = "min-epidemic"

    def states(self):
        return list(range(self.num_colors))

    def initial_state(self, color: int) -> int:
        return color

    def output(self, state: int) -> int:
        return state

    def transition(self, a: int, b: int) -> TransitionResult[int]:
        low = min(a, b)
        return TransitionResult(low, low)


def serial_batch_rows(
    protocol, colors, seeds, criterion, max_steps, count_ket=False, check_interval=None
):
    """The reference: one looped batch engine per seed."""
    outcomes = []
    for seed in seeds:
        row = BatchConfigurationSimulation.from_colors(protocol, colors, seed=seed)
        observer = None
        if count_ket:
            observer = KetExchangeObserver()
            row.add_observer(observer)
        converged = row.run(max_steps, criterion=criterion, check_interval=check_interval)
        outcomes.append(
            (
                converged,
                row.steps_taken,
                row.interactions_changed,
                observer.exchanges if observer else None,
                row.configuration(),
            )
        )
    return outcomes


def assert_rows_match(group_outcomes, reference):
    assert len(group_outcomes) == len(reference)
    for outcome, (converged, steps, changed, ket, configuration) in zip(
        group_outcomes, reference
    ):
        assert outcome.converged == converged
        assert outcome.steps == steps
        assert outcome.interactions_changed == changed
        assert outcome.ket_exchanges == ket
        assert outcome.configuration == configuration


class TestEngineRegistration:
    def test_vector_is_a_batch_engine(self):
        """R=1 degenerate form: the registry entry runs as a plain batch
        engine, so the conformance/golden suites cover it by registration."""
        assert issubclass(VectorReplicateSimulation, BatchConfigurationSimulation)
        assert VectorReplicateSimulation.engine_name == "vector"
        assert VectorReplicateSimulation.supports_replicates is True

    def test_r1_run_matches_batch(self):
        protocol = CirclesProtocol(3)
        colors = [0] * 20 + [1] * 12 + [2] * 8
        batch = BatchConfigurationSimulation.from_colors(protocol, colors, seed=5)
        vector = VectorReplicateSimulation.from_colors(protocol, colors, seed=5)
        assert batch.run(2_000, criterion=StableCircles()) == vector.run(
            2_000, criterion=StableCircles()
        )
        assert batch.configuration() == vector.configuration()
        assert batch.steps_taken == vector.steps_taken


class TestFallbackPath:
    """Small populations: the group loops per-row batch engines."""

    def test_rows_match_serial_batch_runs(self):
        protocol = CirclesProtocol(3)
        colors = [0] * 24 + [1] * 16 + [2] * 8
        seeds = [101, 202, 303, 404]
        group = VectorReplicateSimulation.replicate_group_from_colors(protocol, colors, seeds)
        outcomes = group.run(20_000, criterion=StableCircles())
        assert_rows_match(
            outcomes,
            serial_batch_rows(protocol, colors, seeds, StableCircles(), 20_000, count_ket=True),
        )

    def test_criterion_free_run_spends_the_full_budget(self):
        group = VectorReplicateSimulation.replicate_group_from_colors(
            CirclesProtocol(3), [0] * 10 + [1] * 10, seeds=[1, 2]
        )
        outcomes = group.run(500)
        assert [outcome.steps for outcome in outcomes] == [500, 500]
        assert all(not outcome.converged for outcome in outcomes)


class TestKernelPath:
    """``n >= 4096``: one shared state matrix, rows retiring independently."""

    def test_rows_match_serial_batch_runs(self):
        protocol = CirclesProtocol(4)
        colors = [0] * 2048 + [1] * 1024 + [2] * 512 + [3] * 512
        assert len(colors) == KERNEL_N
        seeds = [7, 8, 9]
        group = VectorReplicateSimulation.replicate_group_from_colors(protocol, colors, seeds)
        outcomes = group.run(30_000, criterion=StableCircles())
        assert_rows_match(
            outcomes,
            serial_batch_rows(protocol, colors, seeds, StableCircles(), 30_000, count_ket=True),
        )

    def test_midrun_silent_retirement_steps_match(self):
        """Rows hit quiescence at different checks; each retirement step must
        equal the serial engine's under the incremental silent criterion."""
        protocol = MinEpidemic(3)
        colors = [0] + [1] * 2047 + [2] * 2048
        seeds = [11, 12, 13, 14, 15]
        criterion = SilentConfiguration()
        group = VectorReplicateSimulation.replicate_group_from_colors(
            protocol, colors, seeds
        )
        outcomes = group.run(400_000, criterion=criterion)
        reference = serial_batch_rows(protocol, colors, seeds, SilentConfiguration(), 400_000)
        assert_rows_match(outcomes, reference)
        assert all(outcome.converged for outcome in outcomes)
        # Distinct retirement steps prove rows really retire independently.
        assert len({outcome.steps for outcome in outcomes}) > 1

    def test_all_rows_converged_at_step_zero(self):
        """An already-silent start retires every row before any interaction."""
        protocol = MinEpidemic(2)
        colors = [0] * KERNEL_N
        group = VectorReplicateSimulation.replicate_group_from_colors(
            protocol, colors, seeds=[1, 2, 3]
        )
        outcomes = group.run(10_000, criterion=SilentConfiguration())
        assert all(outcome.converged for outcome in outcomes)
        assert [outcome.steps for outcome in outcomes] == [0, 0, 0]

    def test_r1_group(self):
        protocol = CirclesProtocol(3)
        colors = [0] * 2048 + [1] * 1024 + [2] * 1024
        group = VectorReplicateSimulation.replicate_group_from_colors(
            protocol, colors, seeds=[42]
        )
        (outcome,) = group.run(5_000, criterion=StableCircles())
        (reference,) = serial_batch_rows(protocol, colors, [42], StableCircles(), 5_000)
        assert (
            outcome.converged,
            outcome.steps,
            outcome.interactions_changed,
            outcome.configuration,
        ) == (reference[0], reference[1], reference[2], reference[4])


class TestKernelHandoffs:
    """A group hands the kernel one call per check window, not one per round."""

    def test_one_advance_per_check_window(self, monkeypatch):
        vector_kernel = pytest.importorskip("repro.simulation.vector_kernel")
        calls = []
        advance = vector_kernel.PairCodeKernel.advance

        def counted(kernel, rows, length, out=None):
            calls.append((list(rows), length))
            return advance(kernel, rows, length, out=out)

        monkeypatch.setattr(vector_kernel.PairCodeKernel, "advance", counted)
        protocol = MinEpidemic(3)
        colors = [0] + [1] * 2047 + [2] * 2048
        seeds = [31, 32, 33, 34, 35]
        interval = 3 * vector_kernel.DEFAULT_ROUND + 100
        group = VectorReplicateSimulation.replicate_group_from_colors(protocol, colors, seeds)
        outcomes = group.run(400_000, criterion=SilentConfiguration(), check_interval=interval)
        group_calls = list(calls)
        assert_rows_match(
            outcomes,
            serial_batch_rows(
                protocol, colors, seeds, SilentConfiguration(), 400_000, check_interval=interval
            ),
        )
        # Rows retire at different checks; every call advances exactly the
        # rows still active at its window's start, by one whole window.
        steps = [outcome.steps for outcome in outcomes]
        assert len(set(steps)) > 1
        windows = max(steps) // interval
        assert group_calls == [
            ([row for row, last in enumerate(steps) if last > window * interval], interval)
            for window in range(windows)
        ]


class TestWorkerThreads:
    """The kernel's worker threads live for one run, in the running process."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        """Split rows over two workers even on a one-CPU host."""
        vector_kernel = pytest.importorskip("repro.simulation.vector_kernel")
        monkeypatch.setattr(vector_kernel, "available_cpus", lambda: 2)

    def test_run_leaves_no_threads_behind(self):
        protocol = CirclesProtocol(3)
        colors = [0] * 2048 + [1] * 1024 + [2] * 1024
        seeds = [21, 22, 23]
        threads_before = threading.active_count()
        group = VectorReplicateSimulation.replicate_group_from_colors(protocol, colors, seeds)
        outcomes = group.run(6_000, criterion=StableCircles())
        assert threading.active_count() == threads_before
        assert_rows_match(
            outcomes,
            serial_batch_rows(protocol, colors, seeds, StableCircles(), 6_000, count_ket=True),
        )

    def test_multiprocessing_groups_equal_serial(self):
        """Worker processes start their own threads: records match serial ones."""
        specs = SweepSpec(
            protocols=("circles",),
            populations=(KERNEL_N,),
            ks=(2, 3),
            engines=("vector",),
            trials=3,
            max_steps=5_000,
            seed=4,
        ).expand()
        groups: dict[str, list] = {}
        for spec in specs:
            groups.setdefault(replicate_group_key(spec), []).append(spec)
        groups = list(groups.values())
        assert len(groups) == 2
        # The serial pass starts and stops threads in this process before the fork.
        serial = SerialExecutor().map_groups(groups)
        assert MultiprocessingExecutor(2).map_groups(groups) == serial


class TestGroupLifecycle:
    def test_group_runs_only_once(self):
        group = VectorReplicateSimulation.replicate_group_from_colors(
            CirclesProtocol(3), [0] * 10 + [1] * 10, seeds=[1, 2]
        )
        group.run(100)
        with pytest.raises(RuntimeError, match="only run once"):
            group.run(100)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            ReplicateGroup(CirclesProtocol(3), [0] * 10 + [1] * 10, seeds=[])

    def test_invalid_run_arguments_rejected(self):
        group = VectorReplicateSimulation.replicate_group_from_colors(
            CirclesProtocol(3), [0] * 10 + [1] * 10, seeds=[1, 2]
        )
        with pytest.raises(ValueError):
            group.run(-1)
        with pytest.raises(ValueError):
            group.run(100, check_interval=0)
