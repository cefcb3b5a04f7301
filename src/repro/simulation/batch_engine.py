"""The batched configuration-level simulation engine.

Agents are anonymous (Definition 1.1), so the uniform random scheduler
induces a Markov chain on state *counts*.  This engine samples that chain
through windows of interactions, in the spirit of the batched
population-protocol simulators of Berenbrink et al.:

- On the default *compiled* path (see :mod:`repro.compile`) with numpy
  available and ``n >= NUMPY_BURST_THRESHOLD``, the engine delegates to the
  position kernel of :mod:`repro.simulation.vector_kernel`: rounds of up to
  ``DEFAULT_ROUND`` interactions are drawn as unbiased pair codes, applied
  through the protocol's flat δ-table in a handful of vectorized array
  operations, and positions drawn twice in a round are replayed in exact
  sequential order.  The trajectory is a pure function of the engine's
  numpy stream — independent of how the budget is split into rounds — which
  is what lets the ``vector`` replicate engine
  (:mod:`repro.simulation.vector_engine`) reproduce batch runs bit-for-bit
  row by row.  The engine's count vector and changed-interaction count are
  the kernel row's own booking; corrected pair codes are drawn out of the
  kernel only for attached observers.
- Below that population size (or without numpy) the compiled engine runs in
  one of two regimes over its count vector:

  * **dense** — one interaction at a time from a flat pool of agent codes:
    two index draws pick an ordered pair of distinct agents, one table
    lookup applies the transition, and a changed interaction is booked on
    the count vector and on codes.  Every interaction, null or not, costs
    two draws, which is the right price while many of them change a state.
  * **sparse** — only *active* interactions are drawn.  With ``W = Σ
    c_p·(c_q - [p=q])`` over the ordered pairs ``(p, q)`` whose transition
    changes a state, the number of null interactions before the next active
    one is Geometric(``W / n(n-1)``) and the active pair is ``(p, q)`` with
    probability ``c_p·(c_q - [p=q]) / W``, drawn by one integer target
    against running sums of per-code masses (:class:`ActivePairMass`, which
    is also the event chain of the Gillespie SSA in
    :mod:`repro.chemistry.gillespie`).  Each event costs ``O(support)``
    bookkeeping (the active row and column lists of the moved codes, cached
    once per compiled protocol), so the cost of a run's tail scales with its
    *changed* interactions: Circles' stabilization tail, where ket exchanges
    have become rare (Theorem 3.4), is skipped in geometric strides, and a
    silent configuration (``W = 0``) consumes any budget without a draw.

  At most once per ``n`` interactions the engine re-decides the regime from
  the counts alone — the active fraction ``W / n(n-1)`` weighted by the
  support size, against the measured ``SPARSE_ENTER_LOAD`` /
  ``SPARSE_LEAVE_LOAD`` — so decisions consume no randomness: a run is
  identical to the dense-only engine until its first switch, and vector
  groups below the kernel gate stay row-for-row identical to serial runs.
  A decision is paid per change, not per window: one that follows a
  window without a changed interaction compares the previous load again
  (0.3–0.5 µs on a 2-vCPU Xeon VM), a sparse one reads ``W`` off the cached
  running sums, and a dense one sums ``W`` over the present codes' active
  rows through cached ``itemgetter`` objects, stopping once the partial sum
  keeps it dense.  Going sparse drops the pool and builds the row masses
  from the present codes' active columns; going dense rebuilds the pool
  from the counts in ``O(n)``.

  Most sparse windows of a stabilization tail draw no event at all.  The
  shared run loop hands them to :meth:`_run_idle_windows`, which runs
  consecutive idle windows back to back at one uniform draw each (none
  on a silent configuration), with their regime decisions and cached
  convergence checks, and leaves the first draw that lands an event as
  the skip the next :meth:`_run_sparse` call starts from.
- Past the compile cap the engine runs the same dense step over a pool of
  codes from a :class:`~repro.compile.LazyInterner`, built in the initial
  configuration's order, and books it on the count vector like the
  compiled loop.  δ comes from the interner's per-pair memo, and a pair
  changes exactly when its packed result differs from it, that is, when δ
  returns different states, whatever its ``changed`` flag says.

The induced Markov chain over configurations is *identical* to the agent
engine's under the uniform random scheduler on every path;
``tests/simulation/test_batch_engine.py`` and
``tests/simulation/test_sparse_regime.py`` check the agreement
distributionally (the latter against the exact chain) and
``tests/integration/test_engine_agreement`` checks that all engines settle
in the configuration predicted by Lemma 3.6.  Convergence checks are
amortized per window through the shared
:meth:`~repro.simulation.base.SimulationEngine.run` loop, which makes
E6-scale convergence sweeps tractable at ``n = 10^5``–``10^6``.

Like every stochastic component of the library, Bernoulli and index draws are
resolved through ``random.Random.random()`` (53-bit resolution); the numpy
path additionally derives a ``numpy.random.Generator`` from the engine seed
for its bulk draws.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Hashable, Iterable
from itertools import accumulate, compress
from math import log, log1p
from operator import itemgetter, mul
from typing import Generic, TypeVar

from repro.protocols.base import PopulationProtocol
from repro.simulation.base import ConfigurationEngine
from repro.simulation.convergence import ConvergenceCriterion
from repro.utils.multiset import Multiset
from repro.utils.rng import RngLike

try:  # numpy runs the position kernel; everything works without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-free installs
    _np = None

State = TypeVar("State", bound=Hashable)

#: Population size from which the vectorized position-kernel path beats the
#: pool path: numpy call overhead is per round, so it amortizes only once
#: rounds are long relative to their chained-position fraction.  Measured
#: against the one-at-a-time pool on a dense phase (20·n interactions from
#: near-tied k=3 inputs, circles and tournament-plurality, two passes on a
#: 2-vCPU Xeon VM), in µs per interaction, pool / kernel:
#:
#: - n = 2048: serial 0.50–0.84 / 0.71–0.89, 32 replicates 0.67–0.84 / 0.35–0.51;
#: - n = 4096: serial 0.65–0.89 / 0.44–0.64, 32 replicates 0.49–0.88 / 0.35–0.39;
#: - n = 8192: serial 0.86–0.96 / 0.32–0.51, 32 replicates 0.85–0.88 / 0.22–0.28;
#: - n = 16384: serial 0.64–0.90 / 0.20–0.36, 32 replicates 0.65–0.79 / 0.14–0.18.
#:
#: Serial runs cross over between n = 2048 and 4096; replicate groups
#: already favour the kernel at 2048.
NUMPY_BURST_THRESHOLD = 4096

#: Regime switch of the compiled pool path.  The *load* is the active
#: fraction ``W / n(n-1)`` times ``1 + support / SPARSE_SUPPORT_SCALE``: a
#: sparse event costs roughly that many dense interactions, because its
#: bookkeeping walks the active lists of the codes it moves, which grow with
#: the support.  Measured on a 2-vCPU Xeon VM (Python 3.11) over runs to the
#: default criterion at n = 256 (and 1024 for the k=3 protocols), a dense
#: interaction costs 0.4–0.55 µs on all four protocols below, and a sparse
#: event 4.3–6.5 µs for circles k=3 (support ≈ 15), 11–14 µs for
#: tournament-plurality k=3 (≈ 45), 21 µs for circles k=6 (≈ 56) and 4.6 µs
#: for exact-majority (≈ 4), so the two regimes break even at a load of
#: 0.10–0.18 across all four.  A dense engine goes sparse below
#: ``SPARSE_ENTER_LOAD`` and a sparse one returns to dense above
#: ``SPARSE_LEAVE_LOAD``; the gap keeps the engine from flapping.
SPARSE_SUPPORT_SCALE = 16
SPARSE_ENTER_LOAD = 0.1
SPARSE_LEAVE_LOAD = 0.2


def _active_row_getters(compiled) -> list[itemgetter]:
    """Per code ``p``, a getter of the counts on ``p``'s active row, as a sequence."""
    getters = []
    for row in compiled.active_lists()[0]:
        if len(row) > 1:
            getters.append(itemgetter(*row))
        else:  # a single index would get a bare count, so slice
            getters.append(itemgetter(slice(row[0], row[0] + 1) if row else slice(0)))
    return getters


class ActivePairMass:
    """The active ordered-pair mass ``W`` of a count vector, and its event draw.

    ``W = Σ c_p·(c_q - [p=q])`` over the ordered pairs ``(p, q)`` whose
    transition changes a state, kept split by initiator code:
    ``row_mass[p]`` is the number of agents ``p`` can change by meeting them
    (``Σ c_q`` over the active row of ``p``, minus ``p`` itself when
    ``(p, p)`` is active), so ``c_p · row_mass[p]`` is ``p``'s share of
    ``W``.  The running sums of those shares (last entry ``W``) are cached
    until the next event.  This is the event chain of the sparse regime and
    of the Gillespie SSA (:func:`repro.chemistry.gillespie.simulate_crn`).

    The count vector is the caller's: it books each drawn event on it before
    the next :meth:`sums` or :meth:`draw`.
    """

    __slots__ = ("_counts", "_table", "_d", "_rows", "_cols", "_row_mass", "_cumulative")

    def __init__(self, compiled, counts: list[int]) -> None:
        self._counts = counts
        self._table = compiled.table
        d = self._d = compiled.num_states
        self._rows, cols = compiled.active_lists()
        self._cols = cols
        changed = compiled.changed
        # Only present codes add to a row mass, so walk their active columns
        # rather than every code's active row.
        row_mass = [-changed[p * d + p] for p in range(d)]
        for q in compress(range(d), counts):
            count = counts[q]
            for p in cols[q]:
                row_mass[p] += count
        self._row_mass = row_mass
        self._cumulative: list[int] | None = None

    def sums(self) -> list[int]:
        """Running sums of the codes' shares of ``W``, rebuilt after an event."""
        cumulative = self._cumulative
        if cumulative is None:
            cumulative = self._cumulative = list(accumulate(map(mul, self._counts, self._row_mass)))
        return cumulative

    def draw(self, uniform: float) -> tuple[int, int, int, int]:
        """The active pair ``(p, q)`` at ``uniform`` in ``[0, 1)``, and its result ``(a, b)``.

        The pair has probability ``c_p·(c_q - [p=q]) / W``: one integer
        target against :meth:`sums` picks ``p``, and a walk over ``p``'s
        active row picks ``q``.  The row masses move to the configuration
        after the event; the counts are left to the caller.  Needs ``W > 0``,
        read off :meth:`sums` since the last event.
        """
        counts = self._counts
        cumulative = self._cumulative
        mass = cumulative[-1]
        target = int(uniform * mass)
        if target >= mass:
            target = mass - 1
        p = bisect_right(cumulative, target)
        offset = (target - (cumulative[p - 1] if p else 0)) // counts[p]
        for q in self._rows[p]:
            weight = counts[q] - (q == p)
            if offset < weight:
                break
            offset -= weight
        d = self._d
        a, b = divmod(self._table[p * d + q], d)
        net = {p: -1}
        net[q] = net.get(q, 0) - 1
        net[a] = net.get(a, 0) + 1
        net[b] = net.get(b, 0) + 1
        row_mass = self._row_mass
        cols = self._cols
        for code, delta in net.items():
            if delta:
                for other in cols[code]:
                    row_mass[other] += delta
        self._cumulative = None
        return p, q, a, b


class BatchConfigurationSimulation(ConfigurationEngine[State], Generic[State]):
    """Simulate the uniform random scheduler exactly, window by window."""

    engine_name = "batch"
    #: Batch trajectories are a pure function of the engine seed's streams,
    #: so the vector replicate engine reproduces them bit-for-bit per row.
    supports_replicates = True

    def __init__(
        self,
        protocol: PopulationProtocol[State],
        initial: Iterable[State] | Multiset[State],
        seed: RngLike = None,
    ) -> None:
        super().__init__(protocol, initial, seed)
        self._kernel = None
        self._pool: list | None = None
        #: The sparse regime's event chain over the count vector; None while dense.
        self._event_chain: ActivePairMass | None = None
        #: A geometric skip drawn by :meth:`_run_idle_windows` for a window it
        #: found an event in; the next :meth:`_run_sparse` call uses it as
        #: its first skip instead of drawing one.
        self._pending_skip: int | None = None
        self._next_decision: int | None = None
        use_numpy = (
            self._compiled is not None
            and _np is not None
            and self._num_agents >= NUMPY_BURST_THRESHOLD
            and self._compiled.numpy_tables() is not None
        )
        if use_numpy:
            # Position-kernel representation: the kernel owns a (1 × n) state
            # row and books its count vector, which the engine shares, so no
            # agent pool is materialized at all.
            from repro.simulation.vector_kernel import PairCodeKernel

            table_np, _, _ = self._compiled.numpy_tables()
            self._kernel = PairCodeKernel(
                table_np,
                self._compiled.num_states,
                self._num_agents,
                [_np.random.default_rng(self._rng.getrandbits(63))],
                self._counts,
            )
            self._counts = self._kernel.counts[0]
        else:
            #: Flat pool of agent codes, one entry per agent.
            self._pool = self._pool_from_counts()
            if self._compiled is not None:
                self._row_getters = self._compiled.derived(
                    "active-row-getters", _active_row_getters
                )
                #: Step at which the regime is next re-decided (once per n),
                #: ``(steps_taken, interactions_changed)`` at the last
                #: decision, and the load it measured (None when it measured
                #: none).  Interned codes stay dense: the sparse regime reads
                #: the compiled tables.
                self._next_decision = 0
                self._last_decision = (0, 0)
                self._load: float | None = None

    # -- stepping ------------------------------------------------------------------

    def run_burst(self, max_interactions: int | None = None) -> int:
        """Execute one window of interactions and return how many it contained.

        On the position-kernel path that is one vectorized round of up to
        :data:`~repro.simulation.vector_kernel.DEFAULT_ROUND` interactions,
        exact in sequential order.  In the dense regime it is up to ``n``
        interactions drawn one at a time from the agent pool, and in the
        sparse regime up to ``n`` interactions of which only the active ones
        are drawn.
        """
        if self._kernel is not None:
            return self._run_round_kernel(max_interactions)
        if self._event_chain is not None:
            return self._run_sparse(max_interactions)
        return self._run_dense(max_interactions)

    def _run_round_kernel(self, max_interactions: int | None) -> int:
        """One vectorized round through the position kernel, booked on its row."""
        from repro.simulation.vector_kernel import DEFAULT_ROUND

        cap = self._num_agents if max_interactions is None else max_interactions
        if cap <= 0:
            return 0
        length = min(cap, DEFAULT_ROUND)
        kernel = self._kernel
        codes = _np.empty((1, length), dtype=_np.int32) if self._observers else None
        kernel.advance((0,), length, out=codes)
        changed = int(kernel.changed[0])
        tracker = self._active_pairs
        if tracker is not None and changed > self.interactions_changed:
            # The round changed counts wholesale: diff the tracker's
            # classification against the live vector in one vectorized pass
            # and reclassify only the codes whose class actually moved
            # (usually none on a near-quiescent run).
            classes = _np.frombuffer(tracker.classes_view(), dtype=_np.uint8)
            stale = _np.nonzero(_np.minimum(self._counts, 2) != classes)[0]
            if stale.size:
                tracker.update_codes(stale.tolist())
        if codes is not None:
            # Observers get one booking per changed pair type per round.
            d = self._compiled.num_states
            table_np, changed_np, _ = self._compiled.numpy_tables()
            unique, pair_counts = _np.unique(codes[changed_np[codes]], return_counts=True)
            for code, count in zip(unique.tolist(), pair_counts.tolist()):
                p, q = divmod(code, d)
                a, b = divmod(int(table_np[code]), d)
                self._record_changed_codes(p, q, a, b, count)
        self.interactions_changed = changed
        self.steps_taken += length
        return length

    def _run_dense(self, max_interactions: int | None) -> int:
        """Up to ``n`` interactions, each an ordered pair of distinct pool agents.

        The initiator is a uniform pool index and the responder a uniform
        index among the other ``n - 1`` agents.  ``random() < 1`` and ``n``
        is far below ``2**53``, so ``int(random() * n)`` is always below
        ``n``.  Deltas carry the step of the interaction that produced them.
        """
        n = self._num_agents
        window = n if max_interactions is None else min(max_interactions, n)
        if window <= 0:
            return 0
        pool = self._pool
        rng_random = self._rng.random
        others = n - 1
        start = self.steps_taken
        compiled = self._compiled
        if compiled is None:
            # Lazily interned codes: δ from the interner's memo, where a pair
            # changes exactly when its packed result differs from it.  Codes
            # first met extend the count vector before it is booked.
            table, stride, states = self._codes.table, self._codes.stride, self._codes.states
            counts = self._counts
            book = self._book_changed_codes
            for step in range(start, start + window):
                first = int(rng_random() * n)
                second = int(rng_random() * others)
                if second >= first:
                    second += 1
                pair = pool[first] * stride + pool[second]
                packed = table[pair]
                if packed != pair:
                    p, q = divmod(pair, stride)
                    a, b = divmod(packed, stride)
                    pool[first] = a
                    pool[second] = b
                    counts.extend([0] * (len(states) - len(counts)))
                    self.steps_taken = step
                    book(p, q, a, b, 1)
            self.steps_taken = start + window
            return window
        d = compiled.num_states
        table = compiled.table
        changed = compiled.changed
        counts = self._counts
        tracker = self._active_pairs
        record = self._record_changed_codes if self._observers else None
        changes = 0
        for step in range(start, start + window):
            first = int(rng_random() * n)
            second = int(rng_random() * others)
            if second >= first:
                second += 1
            p = pool[first]
            q = pool[second]
            code = p * d + q
            if changed[code]:
                a, b = divmod(table[code], d)
                pool[first] = a
                pool[second] = b
                counts[p] -= 1
                counts[q] -= 1
                counts[a] += 1
                counts[b] += 1
                if tracker is not None:
                    tracker.update(p)
                    tracker.update(q)
                    tracker.update(a)
                    tracker.update(b)
                if record is None:
                    changes += 1
                else:
                    self.steps_taken = step
                    record(p, q, a, b, 1)
        self.interactions_changed += changes
        self.steps_taken = start + window
        return window

    def _advance(self, max_interactions: int) -> int:
        if self._next_decision is not None and self.steps_taken >= self._next_decision:
            self._decide_regime()
        return self.run_burst(max_interactions)

    # -- the sparse regime --------------------------------------------------------------

    def _decide_regime(self) -> None:
        """Pick the dense or the sparse regime from the current counts.

        Runs at most once per ``n`` interactions and consumes no randomness.
        The load depends on the counts alone, so when no interaction changed
        a state since the last decision, that decision's load is compared
        again, against the thresholds as they are now.
        """
        n = self._num_agents
        steps, changes = self.steps_taken, self.interactions_changed
        last_steps, last_changes = self._last_decision
        self._last_decision = (steps, changes)
        self._next_decision = steps + n
        sparse = self._event_chain is not None
        load = self._load
        if load is None or changes != last_changes:
            load = self._load = self._measure_load(
                sparse, changes - last_changes, steps - last_steps
            )
            if load is None:
                return
        if sparse and load > SPARSE_LEAVE_LOAD:
            self._event_chain = None
            self._pool = self._pool_from_counts()
        elif not sparse and load < SPARSE_ENTER_LOAD:
            self._event_chain = ActivePairMass(self._compiled, self._counts)
            self._pool = None

    def _measure_load(self, sparse: bool, changes: int, steps: int) -> float | None:
        """The load of the current counts, or None where they keep a dense engine dense.

        A sparse engine reads ``W`` off its running sums.  A dense engine
        first looks at the fraction of its last ``steps`` interactions that
        changed a state; only when that is low does it sum ``W`` over the
        active rows of the present codes, and it stops once the partial sum
        alone reaches ``SPARSE_ENTER_LOAD``: the remaining terms are
        non-negative, so the full sum would too.
        """
        n = self._num_agents
        total = n * (n - 1)
        counts = self._counts
        d = len(counts)
        scale = 1.0 + (d - counts.count(0)) / SPARSE_SUPPORT_SCALE
        if sparse:
            return self._event_chain.sums()[-1] / total * scale
        # The changed fraction estimates W / n(n-1) from one window; the 1.5
        # margin keeps its noise from hiding a configuration worth checking.
        if changes * scale > 1.5 * SPARSE_ENTER_LOAD * steps:
            return None
        changed = self._compiled.changed
        getters = self._row_getters
        mass = 0
        for p in compress(range(d), counts):
            mass += counts[p] * (sum(getters[p](counts)) - changed[p * d + p])
            if mass / total * scale >= SPARSE_ENTER_LOAD:
                return None
        return mass / total * scale

    def _pool_from_counts(self) -> list[int]:
        """The agent pool of the current counts, in code order (O(n))."""
        pool: list[int] = []
        for code, count in enumerate(self._counts):
            pool.extend([code] * count)
        return pool

    def _run_sparse(self, max_interactions: int | None) -> int:
        """Up to ``n`` interactions, drawing only the active ones (exact).

        The number of null interactions before the next active one is
        Geometric(``W / n(n-1)``), and the active pair is ``(p, q)`` with
        probability ``c_p·(c_q - [p=q]) / W``.  A skip that overruns the
        window consumes it and is redrawn on the next call, which is exact
        because the geometric distribution is memoryless.  The first skip is
        the pending one when :meth:`_run_idle_windows` drew it for this
        window.  A silent configuration (``W = 0``) consumes the whole cap
        without a draw.
        """
        n = self._num_agents
        cap = n if max_interactions is None else max_interactions
        if cap <= 0:
            return 0
        window = min(cap, n)
        left = window
        total = n * (n - 1)
        rng_random = self._rng.random
        chain = self._event_chain
        while True:
            mass = chain.sums()[-1]
            if mass == 0:
                self.steps_taken += left + cap - window
                return cap
            skip = self._pending_skip
            if skip is not None:
                self._pending_skip = None
            elif mass < total:
                skip = int(log(1.0 - rng_random()) / log1p(-mass / total))
            else:
                skip = 0
            if skip >= left:
                break
            self.steps_taken += skip
            left -= skip + 1
            p, q, a, b = chain.draw(rng_random())
            self._book_changed_codes(p, q, a, b, 1)
            self.steps_taken += 1
        self.steps_taken += left
        return window

    def _run_idle_windows(
        self,
        executed: int,
        max_steps: int,
        interval: int,
        criterion: ConvergenceCriterion[State] | None,
    ) -> int:
        """Run consecutive sparse windows that draw no event, one draw each.

        Each window is the ``min(left, n)`` interactions a :meth:`_run_sparse`
        call would take at this point of the run, with the regime decisions
        that fall due between them.  A window is idle when its one uniform
        draw gives a geometric skip that overruns it, exactly the test of
        :meth:`_run_sparse`; a silent configuration makes every window idle
        without a draw.  The first draw that lands an event inside its
        window is kept as the pending skip, and :meth:`run` then runs that
        window through :meth:`_run_sparse`.  Checks at the boundaries crossed
        find the configuration unchanged, so their verdicts come from the
        cache, and observers see ``on_check`` at the same steps as before.
        """
        if self._next_decision is None:
            return 0
        if self.steps_taken >= self._next_decision:
            self._decide_regime()
        if self._event_chain is None:
            return 0
        n = self._num_agents
        total = n * (n - 1)
        mass = self._event_chain.sums()[-1]
        if mass >= total:
            return 0
        null_rate = log1p(-mass / total)
        rng_random = self._rng.random
        start = executed
        while True:
            end = min(executed - executed % interval + interval, max_steps)
            if mass:
                window = min(end - executed, n)
                skip = int(log(1.0 - rng_random()) / null_rate)
                if skip < window:
                    self._pending_skip = skip
                    break
            else:
                window = end - executed
            self.steps_taken += window
            executed += window
            if executed == end and criterion is not None:
                self._check(criterion)
            if executed == max_steps:
                break
            if self.steps_taken >= self._next_decision:
                self._decide_regime()
                if self._event_chain is None:
                    break
        return executed - start

    # -- inspection -------------------------------------------------------------------

    @property
    def regime(self) -> str:
        """How interactions are sampled now: ``"kernel"``, ``"dense"`` or ``"sparse"``."""
        if self._kernel is not None:
            return "kernel"
        return "dense" if self._event_chain is None else "sparse"

    def states(self) -> list[State]:
        """The current agent states (anonymous, so order carries no meaning)."""
        if self._pool is None:
            return super().states()
        decode = self._codes.decode
        return [decode(code) for code in self._pool]
