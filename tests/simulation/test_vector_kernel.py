"""PairCodeKernel: sequential-equivalence and the invariances it relies on.

The kernel's whole claim is that a vectorized round reproduces the sequential
uniform-random-scheduler process *exactly* — same trajectory, same corrected
pre-states, regardless of how many interactions are drawn per call or how
many replicate rows advance together.  This module tests that claim against
an interaction-at-a-time reference implementation and pins the two numpy
behaviors the construction leans on (fancy-assignment write order and
``Generator.integers`` call-split invariance).  Most calls go through
:func:`advance`, which also checks the rows' booking — counts, changed
interactions and tally hits — against the states and codes it produced.
"""

import sys
import threading

import pytest

np = pytest.importorskip("numpy", reason="the position kernel is numpy-only")

from repro.simulation import vector_kernel  # noqa: E402
from repro.simulation.vector_kernel import (  # noqa: E402
    BLOCK_ROWS,
    DEFAULT_ROUND,
    DRAW_CHUNK,
    PairCodeKernel,
)


def mixing_table(d: int) -> np.ndarray:
    """A dense deterministic toy δ-table that keeps all ``d`` states in play."""
    table = np.empty(d * d, dtype=np.int64)
    for a in range(d):
        for b in range(d):
            table[a * d + b] = ((a + b) % d) * d + (a * b + 1) % d
    return table


def random_table(d: int, seed: int, absorbing: bool = True) -> np.ndarray:
    """A seeded random δ-table with self-loop entries and an absorbing state.

    State ``d - 1`` absorbs: any interaction with it sends both agents there.
    About a quarter of the remaining entries are self-loops (no change).
    With ``absorbing=False`` there is no such state, so a long run keeps
    every state in play instead of ending in the sink.
    """
    rng = np.random.default_rng(seed)
    table = rng.integers(0, d * d, d * d, dtype=np.int64)
    codes = np.arange(d * d, dtype=np.int64)
    loops = rng.random(d * d) < 0.25
    table[loops] = codes[loops]
    if absorbing:
        sink = d - 1
        touches_sink = (codes // d == sink) | (codes % d == sink)
        table[touches_sink] = sink * d + sink
    return table


def tally_mask(d: int) -> np.ndarray:
    """A fixed per-pair-code mask for the kernel to tally: every third code."""
    return np.arange(d * d) % 3 == 1


#: Kernels made by :func:`make_kernel` during the running test.
_KERNELS: list[PairCodeKernel] = []


@pytest.fixture(autouse=True)
def close_kernels():
    """Join every kernel's worker threads when its test ends.

    An unclosed kernel's threads exit only after it is collected, which can
    fall inside a later test that counts threads.
    """
    yield
    while _KERNELS:
        _KERNELS.pop().close()


def make_kernel(d: int, n: int, seeds, table: np.ndarray | None = None) -> PairCodeKernel:
    table = mixing_table(d) if table is None else table
    counts = np.full(d, n // d, dtype=np.int64)
    counts[0] += n - int(counts.sum())
    generators = [np.random.default_rng(seed) for seed in seeds]
    kernel = PairCodeKernel(table, d, n, generators, counts, tally=tally_mask(d))
    _KERNELS.append(kernel)
    return kernel


def advance(kernel: PairCodeKernel, rows, length: int) -> np.ndarray:
    """``kernel.advance`` with its codes drawn into ``out``, booking checked.

    After the call every row's booked counts equal the bincount of its state
    row, and the advanced rows' changed and tally increments equal the sums
    recomputed from their codes; rows not advanced book nothing.
    """
    rows = list(rows)
    d = kernel.num_states
    table = kernel._ta.astype(np.int64) * d + kernel._tb
    changed = kernel.changed.copy()
    tallies = kernel.tallies.copy()
    out = np.empty((len(rows), length), dtype=np.int32)
    kernel.advance(rows, length, out=out)
    for row in range(kernel.num_rows):
        assert np.array_equal(
            kernel.counts[row], np.bincount(kernel._states[row], minlength=d)
        )
    for j, row in enumerate(rows):
        changed[row] += np.count_nonzero(table[out[j]] != out[j])
        tallies[row] += np.count_nonzero(tally_mask(d)[out[j]])
    assert np.array_equal(kernel.changed, changed)
    assert np.array_equal(kernel.tallies, tallies)
    return out


def sequential_reference(d: int, n: int, seed: int, length: int, table: np.ndarray):
    """One interaction at a time, straight from the definition."""
    counts = np.full(d, n // d, dtype=np.int64)
    counts[0] += n - int(counts.sum())
    states = np.repeat(np.arange(d, dtype=np.int64), counts)
    gen = np.random.default_rng(seed)
    codes = np.empty(length, dtype=np.int64)
    q = gen.integers(0, n * (n - 1), length, dtype=np.int64)
    for t in range(length):
        i = int(q[t]) // (n - 1)
        r = int(q[t]) - i * (n - 1)
        if r >= i:
            r += 1
        code = states[i] * d + states[r]
        codes[t] = code
        packed = int(table[code])
        states[i] = packed // d
        states[r] = packed % d
    return states, codes


class TestNumpyBehaviorPins:
    """The two numpy contracts the kernel's correctness rests on."""

    def test_fancy_assignment_is_last_write_wins(self):
        out = np.zeros(3, dtype=np.int64)
        out[np.array([0, 2, 0, 0])] = np.array([1, 5, 2, 3])
        assert out.tolist() == [3, 0, 5]

    def test_generator_integers_is_call_split_invariant(self):
        whole = np.random.default_rng(99).integers(0, 10**9, 256, dtype=np.int64)
        gen = np.random.default_rng(99)
        parts = [gen.integers(0, 10**9, size, dtype=np.int64) for size in (1, 100, 155)]
        assert np.array_equal(whole, np.concatenate(parts))


class TestSequentialEquivalence:
    @pytest.mark.parametrize("n,length", [(16, 512), (64, 256), (256, 2048)])
    def test_matches_interaction_at_a_time_reference(self, n, length):
        """Small n + long rounds force dense position chains — the hard case."""
        d = 5
        table = mixing_table(d)
        kernel = make_kernel(d, n, seeds=[7], table=table)
        codes = advance(kernel, [0], length)[0]
        ref_states, ref_codes = sequential_reference(d, n, 7, length, table)
        assert np.array_equal(codes, ref_codes)
        assert np.array_equal(
            kernel.counts[0], np.bincount(ref_states, minlength=d)
        )

    @pytest.mark.parametrize("d", range(2, 9))
    def test_random_tables_match_reference(self, d):
        """Random δ with absorbing and self-loop entries, chains included."""
        n, length = 40, 1500
        table = random_table(d, seed=100 + d)
        kernel = make_kernel(d, n, seeds=[d], table=table)
        codes = advance(kernel, [0], length)[0]
        ref_states, ref_codes = sequential_reference(d, n, d, length, table)
        assert np.array_equal(codes, ref_codes)
        assert np.array_equal(kernel.counts[0], np.bincount(ref_states, minlength=d))

    def test_two_byte_states_match_reference(self):
        """d = 300 states do not fit a byte: the int16 rows follow the reference."""
        d, n, length = 300, 600, 3000
        table = random_table(d, seed=300, absorbing=False)
        kernel = make_kernel(d, n, seeds=[13], table=table)
        codes = advance(kernel, [0], length)[0]
        ref_states, ref_codes = sequential_reference(d, n, 13, length, table)
        assert np.array_equal(codes, ref_codes)
        assert np.array_equal(kernel.counts[0], np.bincount(ref_states, minlength=d))

    @pytest.mark.parametrize("d,dtype", [(2, np.uint8), (256, np.uint8), (257, np.int16)])
    def test_state_rows_are_as_narrow_as_the_codes(self, d, dtype):
        kernel = make_kernel(d, 2 * d, seeds=[1], table=random_table(d, seed=d))
        assert kernel._states.dtype == dtype
        assert kernel._ta.dtype == kernel._tb.dtype == dtype

    def test_non_contiguous_subset_of_many_rows_matches_reference(self):
        """Rows picked across block boundaries each follow their own reference."""
        d, n, length = 6, 30, 700
        table = random_table(d, seed=5)
        seeds = [1000 + row for row in range(BLOCK_ROWS + 3)]
        kernel = make_kernel(d, n, seeds=seeds, table=table)
        rows = [0, 2, 3, BLOCK_ROWS - 1, BLOCK_ROWS + 1, BLOCK_ROWS + 2]
        codes = advance(kernel, rows, length)
        for j, row in enumerate(rows):
            ref_states, ref_codes = sequential_reference(d, n, seeds[row], length, table)
            assert np.array_equal(codes[j], ref_codes)
            assert np.array_equal(
                kernel.counts[row], np.bincount(ref_states, minlength=d)
            )
        untouched = np.bincount(np.repeat(np.arange(d), n // d), minlength=d)
        assert np.array_equal(kernel.counts[1], untouched)

    def test_engine_gate_population_in_full_rounds(self):
        """n = 4096, the engines' kernel gate, advanced in DEFAULT_ROUND rounds."""
        d, n, rounds = 7, 4096, 3
        table = random_table(d, seed=41)
        kernel = make_kernel(d, n, seeds=[41], table=table)
        codes = np.concatenate([advance(kernel, [0], DEFAULT_ROUND)[0] for _ in range(rounds)])
        ref_states, ref_codes = sequential_reference(d, n, 41, rounds * DEFAULT_ROUND, table)
        assert np.array_equal(codes, ref_codes)
        assert np.array_equal(kernel.counts[0], np.bincount(ref_states, minlength=d))

    def test_every_interaction_chains(self):
        """n = 4: every slot recurs, so chains run hundreds of levels deep."""
        d, n, length = 4, 4, 512
        table = mixing_table(d)
        kernel = make_kernel(d, n, seeds=[9], table=table)
        codes = advance(kernel, [0], length)[0]
        ref_states, ref_codes = sequential_reference(d, n, 9, length, table)
        assert np.array_equal(codes, ref_codes)
        assert np.array_equal(kernel.counts[0], np.bincount(ref_states, minlength=d))

    def test_round_size_invariance(self):
        """The trajectory must not depend on how interactions are batched."""
        d, n, total = 4, 32, 1024
        whole = make_kernel(d, n, seeds=[3])
        codes_whole = advance(whole, [0], total)[0]
        split = make_kernel(d, n, seeds=[3])
        pieces = [advance(split, [0], size)[0] for size in (1, 255, 256, 512)]
        assert np.array_equal(codes_whole, np.concatenate(pieces))
        assert np.array_equal(whole.counts[0], split.counts[0])

    def test_row_count_invariance(self):
        """Row ``r`` of an R-row kernel equals a 1-row kernel with its seed."""
        d, n, length = 4, 48, 768
        seeds = [11, 22, 33, 44, 55]
        many = make_kernel(d, n, seeds=seeds)
        codes_many = advance(many, range(len(seeds)), length)
        for row, seed in enumerate(seeds):
            solo = make_kernel(d, n, seeds=[seed])
            assert np.array_equal(advance(solo, [0], length)[0], codes_many[row])
            assert np.array_equal(solo.counts[0], many.counts[row])

    def test_non_contiguous_row_subsets(self):
        """Retired rows stay frozen; active rows advance as if alone."""
        d, n, length = 4, 32, 256
        seeds = [1, 2, 3, 4]
        kernel = make_kernel(d, n, seeds=seeds)
        before_frozen = [kernel.counts[row].copy() for row in (1, 3)]
        advance(kernel, [0, 2], length)
        assert np.array_equal(kernel.counts[1], before_frozen[0])
        assert np.array_equal(kernel.counts[3], before_frozen[1])
        for row, seed in ((0, 1), (2, 3)):
            solo = make_kernel(d, n, seeds=[seed])
            advance(solo, [0], length)
            assert np.array_equal(solo.counts[0], kernel.counts[row])

    @pytest.mark.parametrize("rows", [range(BLOCK_ROWS + 1), [0, 5, BLOCK_ROWS]])
    @pytest.mark.parametrize(
        "sizes",
        [
            (DEFAULT_ROUND, DEFAULT_ROUND, DEFAULT_ROUND, 5),
            (DEFAULT_ROUND, DEFAULT_ROUND - 1, DEFAULT_ROUND + 1, 5),
        ],
    )
    def test_long_advance_splits_into_rounds(self, rows, sizes):
        """A length above DEFAULT_ROUND equals the same run in separate calls:
        the same codes, states and booking."""
        d, n = 5, 256
        seeds = list(range(BLOCK_ROWS + 1))
        table = random_table(d, seed=23, absorbing=False)
        whole = make_kernel(d, n, seeds=seeds, table=table)
        codes_whole = advance(whole, rows, sum(sizes))
        split = make_kernel(d, n, seeds=seeds, table=table)
        pieces = [advance(split, rows, size) for size in sizes]
        assert np.array_equal(codes_whole, np.concatenate(pieces, axis=1))
        assert np.array_equal(whole._states, split._states)
        assert np.array_equal(whole.counts, split.counts)
        assert np.array_equal(whole.changed, split.changed)
        assert np.array_equal(whole.tallies, split.tallies)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_advances_across_draw_chunks(self, monkeypatch, cpus):
        """Calls that end inside, just past and several chunks beyond a draw
        chunk equal one call and equal one-row kernels, on a non-contiguous
        row subset, with one worker and with many."""
        monkeypatch.setattr(vector_kernel, "available_cpus", lambda: cpus)
        d, n = 5, 256
        sizes = (DRAW_CHUNK - 1, DRAW_CHUNK + 1, 3 * DRAW_CHUNK + 5)
        seeds = [700 + row for row in range(BLOCK_ROWS + 3)]
        rows = [0, 2, 3, 7, BLOCK_ROWS, BLOCK_ROWS + 2]
        table = random_table(d, seed=29, absorbing=False)  # no sink before the chunk ends
        whole = make_kernel(d, n, seeds=seeds, table=table)
        codes_whole = advance(whole, rows, sum(sizes))
        split = make_kernel(d, n, seeds=seeds, table=table)
        codes_split = np.concatenate([advance(split, rows, size) for size in sizes], axis=1)
        assert np.array_equal(codes_whole, codes_split)
        assert np.array_equal(whole._states, split._states)
        for j, row in enumerate(rows):
            solo = make_kernel(d, n, seeds=[seeds[row]], table=table)
            solo_codes = np.concatenate([advance(solo, [0], size)[0] for size in sizes])
            assert np.array_equal(codes_whole[j], solo_codes)
            assert np.array_equal(whole._states[row], solo._states[0])
        ref_states, ref_codes = sequential_reference(d, n, seeds[0], sum(sizes), table)
        assert np.array_equal(codes_whole[0], ref_codes)
        assert np.array_equal(whole.counts[0], np.bincount(ref_states, minlength=d))

    def test_more_rows_than_block_size(self):
        """Advancing crosses block boundaries without mixing row streams."""
        d, n, length = 3, 16, 128
        seeds = list(range(BLOCK_ROWS + 3))
        kernel = make_kernel(d, n, seeds=seeds)
        codes = advance(kernel, range(len(seeds)), length)
        for row in (0, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 2):
            solo = make_kernel(d, n, seeds=[seeds[row]])
            assert np.array_equal(advance(solo, [0], length)[0], codes[row])


class TestWorkerThreads:
    """Splitting rows over worker threads must not change a single row."""

    @staticmethod
    def drive(monkeypatch, cpus, seeds):
        """Advance all rows, retire every third, advance the rest; return all."""
        monkeypatch.setattr(vector_kernel, "available_cpus", lambda: cpus)
        d, n = 6, 64
        kernel = make_kernel(d, n, seeds=seeds, table=random_table(d, seed=17))
        try:
            first = advance(kernel, range(len(seeds)), DEFAULT_ROUND + 7)
            survivors = [row for row in range(len(seeds)) if row % 3 != 1]
            second = advance(kernel, survivors, 300)
            return first, second, kernel._states.copy()
        finally:
            kernel.close()

    @pytest.mark.parametrize("num_rows", [1, 2, BLOCK_ROWS + 3])
    def test_one_worker_equals_many(self, monkeypatch, num_rows):
        seeds = [500 + row for row in range(num_rows)]
        threads_before = threading.active_count()
        alone = self.drive(monkeypatch, 1, seeds)
        # More workers than cores, switching threads as often as possible.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            shared = self.drive(monkeypatch, 8, seeds)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads_before
        for one, many in zip(alone, shared):
            assert np.array_equal(one, many)

    def test_single_block_starts_no_threads(self, monkeypatch):
        monkeypatch.setattr(vector_kernel, "available_cpus", lambda: 4)
        kernel = make_kernel(4, 64, seeds=[3])
        threads_before = threading.active_count()
        advance(kernel, [0], 2 * DEFAULT_ROUND)
        assert threading.active_count() == threads_before
        assert kernel._pool is None

    def test_close_stops_workers_and_advance_restarts_them(self, monkeypatch):
        monkeypatch.setattr(vector_kernel, "available_cpus", lambda: 3)
        seeds = [1, 2, 3]
        kernel = make_kernel(4, 64, seeds=seeds)
        threads_before = threading.active_count()
        first = advance(kernel, range(3), 100)
        assert threading.active_count() > threads_before
        kernel.close()
        assert threading.active_count() == threads_before
        second = advance(kernel, range(3), 100)
        kernel.close()
        solo = make_kernel(4, 64, seeds=seeds)
        solo_codes = np.concatenate(
            [advance(solo, range(3), 100), advance(solo, range(3), 100)], axis=1
        )
        solo.close()
        assert np.array_equal(np.concatenate([first, second], axis=1), solo_codes)


class TestBookkeeping:
    def test_population_is_conserved(self):
        kernel = make_kernel(4, 40, seeds=[8, 9])
        advance(kernel, [0, 1], 500)
        assert kernel.counts.sum(axis=1).tolist() == [40, 40]

    def test_rejects_wrong_population_size(self):
        with pytest.raises(ValueError, match="expected 10 agents"):
            PairCodeKernel(
                mixing_table(3), 3, 10, [np.random.default_rng(0)], np.array([3, 3, 3])
            )

    def test_without_a_tally_mask_there_are_no_tallies(self):
        kernel = PairCodeKernel(
            mixing_table(3), 3, 12, [np.random.default_rng(1)], np.array([4, 4, 4])
        )
        kernel.advance([0], 300)
        assert kernel.changed[0] > 0
        assert kernel.tallies is None

    @pytest.mark.parametrize("rows", [[0, 0], [1, 2, 1], [3], [-1], [0, 4]])
    def test_rejects_duplicate_or_out_of_range_rows(self, rows):
        """A duplicate row would be booked twice, by two workers at once."""
        kernel = make_kernel(4, 40, seeds=[1, 2, 3])
        states = kernel._states.copy()
        with pytest.raises(ValueError, match="distinct and in range"):
            kernel.advance(rows, 100)
        assert np.array_equal(kernel._states, states)
        assert kernel.changed.tolist() == kernel.tallies.tolist() == [0, 0, 0]


class TestRowBooking:
    """The kernel's booked counts, changed and tallies follow its state rows."""

    @pytest.mark.parametrize("n", [16, 40, 256])
    @pytest.mark.parametrize("num_rows", [1, 2, BLOCK_ROWS + 3])
    def test_booking_follows_states_on_dense_chains(self, n, num_rows):
        """Random δs with absorbing and self-loop entries; ``advance`` checks
        the booking after every call, on all rows and then on subsets."""
        d = 6
        table = random_table(d, seed=n + num_rows)
        seeds = [300 + row for row in range(num_rows)]
        kernel = make_kernel(d, n, seeds=seeds, table=table)
        subsets = [
            list(range(num_rows)),
            list(range(num_rows // 2, num_rows)),  # contiguous
            list(range(0, num_rows, 2)),  # non-contiguous once num_rows > 2
            list(range(num_rows - 1, -1, -3)),  # descending
        ]
        lengths = {row: 0 for row in range(num_rows)}
        for subset, length in zip(subsets, (700, DEFAULT_ROUND + 3, 257, 64)):
            advance(kernel, subset, length)
            for row in subset:
                lengths[row] += length
        for row in {0, num_rows - 1}:
            ref_states, ref_codes = sequential_reference(d, n, seeds[row], lengths[row], table)
            assert np.array_equal(kernel.counts[row], np.bincount(ref_states, minlength=d))
            assert kernel.changed[row] == np.count_nonzero(table[ref_codes] != ref_codes)
            assert kernel.tallies[row] == np.count_nonzero(tally_mask(d)[ref_codes])
