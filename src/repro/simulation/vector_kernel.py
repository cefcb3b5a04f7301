"""The exact vectorized interaction kernel shared by the batch and vector engines.

Simulating the uniform random scheduler one interaction at a time costs a
Python-level loop per interaction; batching interactions naively changes which
chain is sampled.  This module squares that circle with a *position kernel*
that is sequential-equivalent by construction:

1. **Positions, not states.**  Each interaction is drawn as a single unbiased
   pair code ``q ~ U{0, .., n(n-1)-1}`` and decoded into an ordered pair of
   distinct agent positions ``(i, r)`` — ``i = q // (n-1)``,
   ``r = q - i(n-1)`` bumped past the diagonal.  Agent positions are mere
   labels (the engines are configuration-level), but fixing positions makes
   the trajectory a pure function of the row's uniform stream: it depends
   neither on how many interactions are drawn per call
   (``numpy.random.Generator.integers`` is call-split invariant) nor on how
   many replicate rows advance together.  So each row draws its codes once
   per :data:`DRAW_CHUNK` into one ``(rows × chunk)`` buffer per block, and
   every round decodes a slice of it.  ``tests/simulation/test_vector_kernel``
   pins both invariances.
2. **Round application.**  A round of ``T`` interactions gathers the
   pre-states of all drawn positions at once, applies the compiled δ-table to
   every interaction in one shot, and scatters the moved slots' post-states
   back — NumPy fancy assignment applies duplicate indices in order, so the
   last write wins: the final state of a position touched repeatedly.
3. **Chain resolution.**  Positions drawn more than once inside a round form
   dependency chains: a later interaction must see the *post*-state of the
   earlier one, not the stale gathered value.  The kernel detects the chained
   slots (an ``O(T/n)`` expected fraction at the engines' ``n >= 4096`` gate),
   links each to its predecessor — the previous slot at the same position —
   and replays the affected interactions level by level: every level applies
   δ to the pending interactions whose predecessors are all resolved, reading
   their post-states, and shrinks the pending set to the rest — reproducing
   the sequential order exactly.  Chain heads, whose gathered pre-states are
   already exact, never enter the level loop.
4. **Rows in parallel, in bytes.**  :meth:`PairCodeKernel.advance` splits
   its rows into blocks of at most :data:`BLOCK_ROWS` — at least one block
   per CPU when there are enough rows — and runs the blocks on one worker
   thread per CPU (``os.sched_getaffinity``), each thread with its own
   ``n``-entry int16 scratch.  NumPy releases the interpreter lock inside
   the draws, gathers and scatters, so the threads overlap.  Last
   occurrences are found row by row on that scratch, which stays
   cache-resident (200 KB at ``n = 10⁵``) where a ``(rows × n)`` one would
   not.  State rows and the split δ-tables are uint8 up to 256 states and
   int16 above, so the ``(R, n)`` matrix takes one byte per agent.  Blocks
   own disjoint rows, generators and output slices, so no thread reads what
   another writes and the records do not change.  A single block runs in
   the calling thread with no pool at all — the batch engine's one-row
   kernel included.
5. **Booking in the workers, one handoff per call.**  The worker that owns
   a row books its count vector (the moved slots' pre- and post-states
   telescope through chains), changed interactions and tally hits (Circles:
   ket exchanges) right after each round's scatter.  So
   :meth:`PairCodeKernel.advance` runs a whole check window in one
   submit/wait, and corrected pair codes leave it only on request (``out``).
   Draw chunks end with the call, so a row that retires at a check has
   drawn nothing past its window.

Because a row's trajectory depends only on the row's own generator stream,
row ``r`` of an ``R``-row kernel is bit-identical to a single-row kernel
seeded the same way, however its rows are split into blocks or threads — the
property the replicate-group routing in :mod:`repro.api.executor` relies on
for record-identical sweep results.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

#: Interactions simulated per vectorized round: long enough to amortize the
#: kernel's fixed per-round overhead, short enough that chained positions
#: stay sparse and the per-round working set stays cache-resident.
DEFAULT_ROUND = 2048

#: Interactions whose pair codes a row draws in one ``Generator.integers``
#: call.  Drawing per round made the two worker threads of a 2-vCPU Xeon
#: queue for the interpreter lock; at R = 64, n = 10⁵ the kernel took
#: 0.37 s per 200 000 interactions with one round per draw, 0.31 s with two,
#: 0.285 s with four and no less with eight or sixteen.
DRAW_CHUNK = 4 * DEFAULT_ROUND

#: Replicate rows advanced per block; bounds a block's per-round temporaries
#: and its ``BLOCK_ROWS × DRAW_CHUNK`` int64 draw buffer (2 MB) independently
#: of the replicate count.
BLOCK_ROWS = 32


def available_cpus() -> int:
    """CPUs this process may run on: the most worker threads worth starting."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


class PairCodeKernel:
    """``R`` replicate rows of one compiled protocol, advanced in exact rounds.

    Every row starts from the same configuration (``initial_counts``) and owns
    one ``numpy.random.Generator``; the kernel holds the ``(R, n)`` per-agent
    state matrix, the split transition tables and each row's booking.  Rows
    advance independently — :meth:`advance` takes an explicit row subset, so
    converged rows simply stop being passed in.  A kernel that advances more than one block of rows
    starts its worker threads on first use; :meth:`close` stops them.
    """

    __slots__ = (
        "num_agents", "num_states", "_ta", "_tb", "_tally", "_states", "counts", "changed",
        "tallies", "_generators", "_slot_ids", "_cpus", "_scratches", "_pool",
    )

    def __init__(
        self,
        table,
        num_states: int,
        num_agents: int,
        generators: Sequence[np.random.Generator],
        initial_counts,
        tally=None,
    ) -> None:
        d = int(num_states)
        n = int(num_agents)
        packed = np.asarray(table, dtype=np.int64)
        dtype = np.uint8 if d <= 256 else np.int16
        self._ta = (packed // d).astype(dtype)
        self._tb = (packed % d).astype(dtype)
        self._tally = None if tally is None else np.asarray(tally, dtype=bool)
        self.num_states = d
        self.num_agents = n
        self._generators = list(generators)
        rows = len(self._generators)
        counts = np.asarray(initial_counts, dtype=np.int64)
        if int(counts.sum()) != n:
            raise ValueError(f"initial counts sum to {int(counts.sum())}, expected {n} agents")
        base_row = np.repeat(np.arange(d, dtype=dtype), counts)
        self._states = np.tile(base_row, (rows, 1))
        #: The booking, read-only outside the kernel: per row its count vector,
        #: its interactions that moved a state and its hits on the
        #: per-pair-code ``tally`` mask, if any.
        self.counts = np.tile(counts, (rows, 1))
        self.changed = np.zeros(rows, dtype=np.int64)
        self.tallies = None if tally is None else np.zeros(rows, dtype=np.int64)
        #: Slot ids within a row's round: fewer than 2·DEFAULT_ROUND, so int16.
        self._slot_ids = np.arange(2 * DEFAULT_ROUND, dtype=np.int16)
        self._cpus = available_cpus()
        #: One ``n``-entry last-occurrence scratch per worker, made on demand.
        self._scratches: list[np.ndarray] = []
        self._pool: ThreadPoolExecutor | None = None

    @property
    def num_rows(self) -> int:
        return len(self._generators)

    def advance(self, rows: Sequence[int], length: int, out: np.ndarray | None = None) -> None:
        """Advance every row in ``rows`` by ``length`` interactions.

        The rows' counts, changed interactions and tallies are booked as they
        go.  With ``out``, a ``(len(rows), length)`` int32 matrix, it also
        receives each interaction's *corrected* pre-transition pair code
        ``p·d + q`` — the ordered states the sequential process would have
        seen — in time order.  The trajectory does not depend on how a run
        is split into calls or rounds.
        """
        rows = list(rows)
        if len(set(rows)) != len(rows) or any(not 0 <= row < self.num_rows for row in rows):
            raise ValueError(f"rows must be distinct and in range({self.num_rows}): {rows}")
        if not rows:
            return
        blocks = max(-(-len(rows) // BLOCK_ROWS), min(self._cpus, len(rows)))
        bounds = [len(rows) * b // blocks for b in range(blocks + 1)]
        spans = list(zip(bounds[:-1], bounds[1:]))
        workers = min(self._cpus, blocks)
        while len(self._scratches) < workers:
            self._scratches.append(np.empty(self.num_agents, dtype=np.int16))
        if workers == 1:
            self._advance_spans(rows, spans, length, out, self._scratches[0])
            return
        if self._pool is None:
            self._pool = ThreadPoolExecutor(self._cpus, thread_name_prefix="pair-code-kernel")
        futures = [
            self._pool.submit(
                self._advance_spans, rows, spans[w::workers], length, out, self._scratches[w]
            )
            for w in range(workers)
        ]
        wait(futures)  # every block finishes before any error propagates
        for future in futures:
            future.result()

    def close(self) -> None:
        """Stop the worker threads, if any; a later :meth:`advance` restarts them."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _advance_spans(self, rows, spans, length, out, scratch) -> None:
        """Advance the row blocks ``rows[start:stop]`` of ``spans``, one block at a time.

        A block's state rows are gathered once per call (a view when the rows
        are contiguous) and its pair codes are drawn once per
        :data:`DRAW_CHUNK`; each round then works on a slice of those draws.
        """
        span = self.num_agents * (self.num_agents - 1)
        for start, stop in spans:
            block = rows[start:stop]
            generators = [self._generators[row] for row in block]
            contiguous = block == list(range(block[0], block[0] + len(block)))
            index = slice(block[0], block[0] + len(block)) if contiguous else block
            states = self._states[index]
            for chunk in range(0, length, DRAW_CHUNK):
                draws = np.empty((len(block), min(DRAW_CHUNK, length - chunk)), dtype=np.int64)
                for j, generator in enumerate(generators):
                    draws[j] = generator.integers(0, span, draws.shape[1], dtype=np.int64)
                for begin in range(0, draws.shape[1], DEFAULT_ROUND):
                    codes = self._advance_round(
                        index, states, draws[:, begin : begin + DEFAULT_ROUND], scratch
                    )
                    if out is not None:
                        offset = chunk + begin
                        out[start:stop, offset : offset + codes.shape[1]] = codes
            if not contiguous:
                self._states[block] = states

    def _advance_round(self, index, states, draws, scratch) -> np.ndarray:
        """Apply one round of pair codes ``draws`` to the block ``states``, booked at ``index``."""
        n = self.num_agents
        d = self.num_states
        nb, length = draws.shape
        sflat = states.reshape(-1)

        # Each pair code decoded to ordered distinct positions.  Interleaving
        # initiator and responder slots keeps the slot index in time order.
        positions = np.empty((nb, 2 * length), dtype=np.int64)
        i = positions[:, 0::2]
        r = positions[:, 1::2]
        np.divmod(draws, n - 1, out=(i, r))
        r += r >= i
        # Last-occurrence detection, row by row: scatter each in-row slot id
        # to its position (duplicates resolve last-write-wins), gather back,
        # and a slot that does not read its own id has a later occurrence.
        # Stale scratch entries are never read — every gathered position was
        # just written.
        ids = self._slot_ids[: 2 * length]
        last = np.empty((nb, 2 * length), dtype=np.int16)
        for j in range(nb):
            scratch[positions[j]] = ids
            np.take(scratch, positions[j], out=last[j])
        chained = (last != ids).reshape(-1)
        nonlast = np.flatnonzero(chained)
        # Add each recurring position's final slot, offset to its row.
        chained[nonlast - nonlast % (2 * length) + last.reshape(-1)[nonlast]] = True
        del last  # freed before the booking's temporaries
        # Offset positions into the block-flat state vector.
        positions += np.arange(0, nb * n, n, dtype=np.int64)[:, None]
        fp = positions.reshape(-1)

        pre = np.take(sflat, fp)
        codes = pre[0::2].astype(np.int32) * d + pre[1::2]
        post = np.empty_like(pre)
        post[0::2] = np.take(self._ta, codes)
        post[1::2] = np.take(self._tb, codes)
        if nonlast.size:
            self._resolve_chains(fp, pre, post, codes, np.flatnonzero(chained))

        # Book the round.  Only slots that moved write back: the last moved
        # slot of a position holds its final state, because every later slot
        # there leaves it unchanged.  Their pre and post states telescope
        # through chains into the count delta of each row.
        moved = pre != post
        moves = np.flatnonzero(moved)
        sflat[fp[moves]] = post[moves]
        keys = moves // (2 * length)
        keys *= d
        delta = np.bincount(keys + post[moves], minlength=nb * d)
        delta -= np.bincount(keys + pre[moves], minlength=nb * d)
        self.counts[index] += delta.reshape(nb, d)
        changed = moved[0::2] | moved[1::2]
        self.changed[index] += np.count_nonzero(changed.reshape(nb, length), axis=1)
        if self._tally is not None:
            hits = np.take(self._tally, codes).reshape(nb, length)
            self.tallies[index] += np.count_nonzero(hits, axis=1)
        return codes.reshape(nb, length)

    def _resolve_chains(self, fp, pre, post, codes, chain_slots) -> None:
        """Replay the round's chained interactions in exact sequential order.

        ``chain_slots`` (ascending) holds every slot whose position occurs
        more than once in the round.  A chain slot's true pre-state is the
        post-state of its predecessor — the previous slot at the same
        position — which may itself be chained.  Sorting the chain slots by
        ``(position, slot)`` links each slot to its predecessor; the chained
        interactions are then resolved level by level: each level applies δ
        to every pending interaction whose predecessors are all resolved,
        and the next level works on the rest only.  Chain heads are resolved
        before the first level, and the earliest pending interaction is
        always ready, so the loop ends within chain-depth levels.  ``pre``,
        ``post`` and ``codes`` are corrected in place.
        """
        d = self.num_states
        m = fp.size
        by_pos = chain_slots[np.argsort(fp[chain_slots] * m + chain_slots)]
        linked = np.flatnonzero(fp[by_pos[1:]] == fp[by_pos[:-1]])
        pred = np.full(m, -1, dtype=np.int32)
        pred[by_pos[linked + 1]] = by_pos[linked]

        halves = chain_slots >> 1
        inter = halves[np.concatenate(([True], halves[1:] != halves[:-1]))]
        pa = pred[inter << 1]
        pb = pred[(inter << 1) + 1]
        done = np.zeros(m >> 1, dtype=bool)
        # Chain heads — no chained predecessor on either side — read exact
        # gathered pre-states, so the first pass already applied them.
        heads = (pa < 0) & (pb < 0)
        done[inter[heads]] = True
        tails = ~heads
        inter = inter[tails]
        pa = pa[tails]
        pb = pb[tails]
        while inter.size:
            # A missing predecessor (-1) reads done[-1]; ``pa < 0`` masks it.
            ready = ((pa < 0) | done[pa >> 1]) & ((pb < 0) | done[pb >> 1])
            if not ready.any():
                raise RuntimeError("chain resolution stalled: no resolvable interaction")
            t = inter[ready]
            ra = pa[ready]
            rb = pb[ready]
            sa = t << 1
            sb = sa + 1
            av = np.where(ra < 0, pre[sa], post[ra])
            bv = np.where(rb < 0, pre[sb], post[rb])
            cc = av.astype(np.int32) * d + bv
            post[sa] = np.take(self._ta, cc)
            post[sb] = np.take(self._tb, cc)
            pre[sa] = av
            pre[sb] = bv
            codes[t] = cc
            done[t] = True
            pending = ~ready
            inter = inter[pending]
            pa = pa[pending]
            pb = pb[pending]
