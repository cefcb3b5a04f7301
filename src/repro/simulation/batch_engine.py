"""The batched configuration-level simulation engine.

:class:`~repro.simulation.config_engine.ConfigurationSimulation` already
exploits anonymity to simulate the uniform random scheduler on state *counts*,
but it still pays two ``O(d)`` linear scans plus one transition evaluation per
interaction.  This engine samples the same chain in larger steps, in the
spirit of Gillespie-style aggregation (see :mod:`repro.chemistry.gillespie`)
and of the batched population-protocol simulators of Berenbrink et al.:

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
  row by row.  The count vector is kept in sync per round from the kernel's
  corrected pair codes.
- Below that population size (or without numpy) the compiled engine runs in
  one of two regimes over its count vector:

  * **dense** — *bursts*: interactions over pairwise-distinct agents
    commute, the number of interactions until an agent is re-drawn depends
    only on agent identities, so a maximal collision-free burst is sampled
    directly from the birthday-process distribution (``Θ(√n)``
    interactions), its agents popped from a flat pool in ``O(1)`` and
    applied per ordered pair type, and the burst-ending collision
    interaction is applied exactly — matching the conditional distribution
    of the sequential process.  Every interaction, null or not, costs one
    pool draw, which is the right price while many of them change a state.
  * **sparse** — only *active* interactions are drawn.  With ``W = Σ
    c_p·(c_q - [p=q])`` over the ordered pairs ``(p, q)`` whose transition
    changes a state, the number of null interactions before the next active
    one is Geometric(``W / n(n-1)``) and the active pair is ``(p, q)`` with
    probability ``c_p·(c_q - [p=q]) / W``, drawn by one integer target
    against running sums of per-code masses.  Each event costs ``O(support)``
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
  Going sparse drops the pool; going dense rebuilds it from the counts in
  ``O(n)``.
- Uncompiled engines (``compiled=False`` or a δ-closure over the compile
  cap) run dense bursts over a pool of decoded states.

The induced Markov chain over configurations is *identical* to
:class:`ConfigurationSimulation`'s (and to the agent engine's under the
uniform random scheduler) on every path;
``tests/simulation/test_batch_engine.py`` and
``tests/simulation/test_sparse_regime.py`` check the agreement
distributionally (the latter against the exact chain) and
``tests/integration/test_engine_agreement`` checks that all engines settle
in the configuration predicted by Lemma 3.6.  Convergence checks are
amortized per window through the shared
:meth:`~repro.simulation.base.SimulationEngine.run` loop, which makes
E6-scale convergence sweeps tractable at ``n = 10^5``–``10^6``.

Like every stochastic component of the library, Bernoulli and index draws are
resolved through ``random.Random.random()`` (53-bit resolution, the same
convention as :func:`repro.utils.rng.weighted_choice`); the numpy path
additionally derives a ``numpy.random.Generator`` from the engine seed for
its bulk draws.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Hashable, Iterable
from itertools import accumulate
from math import log, log1p
from operator import mul
from typing import Generic, TypeVar

from repro.protocols.base import PopulationProtocol, TransitionResult
from repro.simulation.base import ConfigurationEngine, TransitionObserver
from repro.utils.multiset import Multiset
from repro.utils.rng import RngLike

try:  # numpy accelerates the compiled burst path; everything works without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-free installs
    _np = None

State = TypeVar("State", bound=Hashable)

#: Below this population size a burst is shorter than its bookkeeping, so the
#: engine samples interactions one at a time (still exactly, still through the
#: pool and the transition table).
SEQUENTIAL_FALLBACK_THRESHOLD = 16

#: Population size from which the vectorized position-kernel path beats the
#: pool path: numpy call overhead is per round, so it amortizes only once
#: rounds are long relative to their chained-position fraction (measured
#: crossover is near n = 4096 for Circles-sized tables).
NUMPY_BURST_THRESHOLD = 4096

#: Regime switch of the compiled pool path.  The *load* is the active
#: fraction ``W / n(n-1)`` times ``1 + support / SPARSE_SUPPORT_SCALE``: a
#: sparse event costs roughly that many dense interactions, because its
#: bookkeeping walks the active lists of the codes it moves, which grow with
#: the support.  Measured on a 2-vCPU Xeon VM (Python 3.11), a dense
#: interaction costs 3–4.5 µs and a sparse event 9.5 µs for circles k=3
#: (support ≈ 18), 22 µs for tournament-plurality k=3 (≈ 60) and 31–36 µs for
#: circles k=6 (≈ 90–136), so the two regimes break even at a load of
#: 0.75–0.85 across all three.  A dense engine goes sparse below
#: ``SPARSE_ENTER_LOAD`` and a sparse one returns to dense above
#: ``SPARSE_LEAVE_LOAD``; the gap keeps the engine from flapping.
SPARSE_SUPPORT_SCALE = 16
SPARSE_ENTER_LOAD = 0.4
SPARSE_LEAVE_LOAD = 0.8


class BatchConfigurationSimulation(ConfigurationEngine[State], Generic[State]):
    """Simulate the uniform random scheduler in exact batched bursts."""

    engine_name = "batch"
    #: Batch trajectories are a pure function of the engine seed's streams,
    #: so the vector replicate engine reproduces them bit-for-bit per row.
    supports_replicates = True

    def __init__(
        self,
        protocol: PopulationProtocol[State],
        initial: Iterable[State] | Multiset[State],
        seed: RngLike = None,
        transition_observer: TransitionObserver | None = None,
        compiled: bool | None = None,
    ) -> None:
        super().__init__(
            protocol, initial, seed, transition_observer=transition_observer, compiled=compiled
        )
        self._transition_cache: dict[tuple[State, State], TransitionResult[State]] = {}
        self._neg_survival: list[float] | None = None
        self._kernel = None
        self._pool: list | None = None
        #: Sparse-regime state: ``_row_mass[p]`` is the number of agents ``p``
        #: can change by meeting them (``Σ c_q`` over the active row of ``p``,
        #: minus ``p`` itself when ``(p, p)`` is active), so ``c_p ·
        #: _row_mass[p]`` is ``p``'s share of the active ordered-pair mass ``W``;
        #: ``_cumulative`` caches the running sums of those shares (last entry
        #: ``W``) until the next event.  None while dense.
        self._row_mass: list[int] | None = None
        self._cumulative: list[int] | None = None
        self._next_decision: int | None = None
        use_numpy = (
            self._compiled is not None
            and _np is not None
            and self._num_agents >= NUMPY_BURST_THRESHOLD
            and self._compiled.numpy_tables() is not None
        )
        if use_numpy:
            # Position-kernel representation: the kernel owns a (1 × n) state
            # row and the engine keeps the count vector in sync per round, so
            # no agent pool is materialized at all.
            from repro.simulation.vector_kernel import PairCodeKernel

            self._counts = _np.array(self._counts, dtype=_np.int64)
            table_np, _, _ = self._compiled.numpy_tables()
            self._kernel = PairCodeKernel(
                table_np,
                self._compiled.num_states,
                self._num_agents,
                [_np.random.default_rng(self._rng.getrandbits(63))],
                self._counts,
            )
        elif self._compiled is not None:
            #: Flat pool of encoded agent states; random pops are O(1).
            self._pool = self._pool_from_counts()
            self._active_rows, self._active_cols = self._compiled.active_lists()
            #: Step at which the regime is next re-decided (once per n), and
            #: ``(steps_taken, interactions_changed)`` at the last decision.
            self._next_decision = 0
            self._last_decision = (0, 0)
        else:
            #: Flat pool of agent states; random pops are O(1) via swap-remove.
            self._pool = list(self._configuration.elements())

    # -- transition evaluation ---------------------------------------------------

    def _transition(self, initiator: State, responder: State) -> TransitionResult[State]:
        """Memoized Python-dispatch transition (uncompiled path only)."""
        key = (initiator, responder)
        result = self._transition_cache.get(key)
        if result is None:
            result = self.protocol.transition(initiator, responder)
            self._transition_cache[key] = result
        return result

    def _apply_pair(self, initiator, responder, count: int):
        """Transition one ordered pool pair type, book it, return the results."""
        if self._compiled is not None:
            a, b, changed = self._compiled.transition_codes(initiator, responder)
            if changed:
                self._book_changed_codes(initiator, responder, a, b, count)
            return a, b
        result = self._transition(initiator, responder)
        if result.changed:
            self._apply_changed_transition(initiator, responder, result, count)
        return result.initiator, result.responder

    # -- sampling primitives ------------------------------------------------------

    def _random_index(self, size: int) -> int:
        index = int(self._rng.random() * size)
        return size - 1 if index >= size else index

    def _pop_random(self):
        """Remove and return a uniformly random pool entry in O(1)."""
        pool = self._pool
        index = self._random_index(len(pool))
        last = pool.pop()
        if index < len(pool):
            state = pool[index]
            pool[index] = last
            return state
        return last

    def _sample_burst_length(self, cap: int) -> tuple[int, tuple[bool, bool] | None]:
        """Sample how many interactions precede the burst's first collision.

        Returns ``(length, collision)``: ``length`` non-colliding interactions
        (capped at ``cap``, in which case ``collision`` is None) followed by
        one interaction whose ``(initiator_is_touched, responder_is_touched)``
        pattern is ``collision``.  The pattern depends only on agent
        identities, so it is sampled before any state is drawn: with ``m``
        agents touched, an interaction's ordered slot pair is fresh/fresh,
        fresh/touched, touched/fresh or touched/touched with probabilities
        proportional to ``(n-m)(n-m-1)``, ``(n-m)·m``, ``m·(n-m)`` and
        ``m·(m-1)``.  The length is drawn by inverse transform on the
        birthday-process survival function (one uniform draw per burst); the
        collision pattern by one more draw over the three colliding masses.
        """
        n = self._num_agents
        total_pairs = float(n * (n - 1))
        rng_random = self._rng.random
        if self._neg_survival is None:
            # Precompute the survival function S_t = P(first t interactions
            # touch 2t distinct agents); it depends only on n.  Stored negated
            # so bisect can search the (ascending) sequence.  S_t underflows
            # to exactly 0.0 after O(√(n·log n)) entries, which bounds both
            # the table size and every later lookup.
            negated: list[float] = [-1.0]
            survival = 1.0
            step = 0
            while survival > 0.0:
                fresh = n - 2 * step
                survival *= max(fresh * (fresh - 1), 0) / total_pairs
                negated.append(-survival)
                step += 1
            self._neg_survival = negated
        u = rng_random()
        # The burst length is the largest t with S_t > u (inverse transform).
        length = bisect_left(self._neg_survival, -u) - 1
        if length >= cap:
            return cap, None
        m = 2 * length
        fresh = n - m
        collision_mass = total_pairs - fresh * (fresh - 1)
        target = rng_random() * collision_mass
        if target < fresh * m:
            return length, (False, True)
        target -= fresh * m
        if target < m * fresh:
            return length, (True, False)
        return length, (True, True)

    # -- stepping ------------------------------------------------------------------

    def run_burst(self, max_interactions: int | None = None) -> int:
        """Execute one batch of interactions and return how many it contained.

        On the position-kernel path that is one vectorized round of up to
        :data:`~repro.simulation.vector_kernel.DEFAULT_ROUND` interactions,
        exact in sequential order.  On the pool path it is a maximal run of
        interactions over pairwise-distinct agents, applied in bulk per
        ordered pair type, plus (when the cap allows) the collision
        interaction that ends it.  In the sparse regime it is a window of up
        to ``n`` interactions of which only the active ones are drawn.
        """
        if self._kernel is not None:
            return self._run_round_kernel(max_interactions)
        if self._row_mass is not None:
            return self._run_sparse(max_interactions)
        return self._run_burst_pool(max_interactions)

    def _run_round_kernel(self, max_interactions: int | None) -> int:
        """One vectorized round through the position kernel (exact, in order)."""
        from repro.simulation.vector_kernel import DEFAULT_ROUND

        cap = self._num_agents if max_interactions is None else max_interactions
        if cap <= 0:
            return 0
        length = min(cap, DEFAULT_ROUND)
        codes = self._kernel.advance((0,), length)[0]
        self._book_round_codes(codes)
        self.steps_taken += length
        return length

    def _book_round_codes(self, codes) -> None:
        """Fold one round of corrected pair codes into counts and bookkeeping.

        The count-vector delta telescopes exactly through chained positions —
        each agent's successive pre-state equals its previous post-state — so
        binning the changed interactions' pre and post codes reproduces the
        kernel's state matrix on the count vector.
        """
        compiled = self._compiled
        d = compiled.num_states
        table_np, changed_np, _ = compiled.numpy_tables()
        packed = table_np[codes]
        moved = codes[packed != codes]
        if moved.size:
            results = table_np[moved]
            counts = self._counts
            delta = _np.bincount(results // d, minlength=d)
            delta += _np.bincount(results % d, minlength=d)
            delta -= _np.bincount(moved // d, minlength=d)
            delta -= _np.bincount(moved % d, minlength=d)
            counts += delta
            tracker = self._active_pairs
            if tracker is not None:
                # The round changed counts wholesale: diff the tracker's
                # classification against the live vector in one vectorized
                # pass and reclassify only the codes whose class actually
                # moved (usually none on a near-quiescent run).
                classes = _np.frombuffer(tracker.classes_view(), dtype=_np.uint8)
                stale = _np.nonzero(_np.minimum(counts, 2) != classes)[0]
                if stale.size:
                    tracker.update_codes(stale.tolist())
        changed_codes = codes[changed_np[codes]]
        if not changed_codes.size:
            return
        if not self._observers:
            self.interactions_changed += int(changed_codes.size)
        else:
            # The observer contract wants one decoded delta per pair type.
            unique, pair_counts = _np.unique(changed_codes, return_counts=True)
            for code, count in zip(unique.tolist(), pair_counts.tolist()):
                p, q = divmod(code, d)
                a, b = divmod(int(table_np[code]), d)
                self._record_changed_codes(p, q, a, b, count)

    def _run_burst_pool(self, max_interactions: int | None) -> int:
        """The pool burst: O(1) random pops, pair-type aggregation, bulk apply."""
        cap = self._num_agents if max_interactions is None else max_interactions
        if cap <= 0:
            return 0
        length, collision = self._sample_burst_length(cap)

        # Draw the fresh agents' states without replacement.  The pool pops
        # are inlined (swap-remove) — this loop dominates the engine's
        # per-interaction cost — and the drawn ordered pairs are aggregated
        # into per-pair-type counts by Counter's C-level counting loop.
        pool = self._pool
        rng_random = self._rng.random
        pairs: list[tuple] = []
        append_pair = pairs.append
        size = len(pool)
        for _ in range(length):
            index = int(rng_random() * size)
            size -= 1
            last = pool.pop()
            if index < size:
                initiator = pool[index]
                pool[index] = last
            else:
                initiator = last
            index = int(rng_random() * size)
            size -= 1
            last = pool.pop()
            if index < size:
                responder = pool[index]
                pool[index] = last
            else:
                responder = last
            append_pair((initiator, responder))
        pair_counts = Counter(pairs)

        #: Current states of the agents touched by this burst (one entry per
        #: distinct agent, updated as transitions apply).
        touched: list = []
        for (initiator, responder), count in pair_counts.items():
            new_initiator, new_responder = self._apply_pair(initiator, responder, count)
            touched.extend([new_initiator] * count)
            touched.extend([new_responder] * count)

        executed = length
        if collision is not None:
            executed += self._collision_step_pool(touched, collision)
        self._pool.extend(touched)
        self.steps_taken += executed
        return executed

    def _collision_step_pool(self, touched: list, collision: tuple[bool, bool]) -> int:
        """Apply the interaction that ends the burst by re-using an agent.

        A touched slot resolves to a uniformly random already-touched agent
        (its state reflecting the burst's bulk updates); a fresh slot to a
        pool draw — exactly the conditional distribution of the sequential
        process given the sampled collision pattern.
        """
        initiator_touched, responder_touched = collision
        initiator_index: int | None = None
        responder_index: int | None = None
        if initiator_touched:
            initiator_index = self._random_index(len(touched))
            initiator = touched[initiator_index]
        else:
            initiator = self._pop_random()
        if responder_touched:
            if initiator_touched:
                # The responder is any *other* touched agent.
                responder_index = self._random_index(len(touched) - 1)
                if responder_index >= initiator_index:
                    responder_index += 1
            else:
                responder_index = self._random_index(len(touched))
            responder = touched[responder_index]
        else:
            responder = self._pop_random()

        new_initiator, new_responder = self._apply_pair(initiator, responder, 1)
        if initiator_index is not None:
            touched[initiator_index] = new_initiator
        else:
            touched.append(new_initiator)
        if responder_index is not None:
            touched[responder_index] = new_responder
        else:
            touched.append(new_responder)
        return 1

    def _sequential_step(self) -> None:
        """One exact interaction straight from the pool (small-``n`` fallback)."""
        pool = self._pool
        n = self._num_agents
        first = self._random_index(n)
        second = self._random_index(n - 1)
        if second >= first:
            second += 1
        initiator, responder = pool[first], pool[second]
        if self._compiled is not None:
            a, b, changed = self._compiled.transition_codes(initiator, responder)
            if changed:
                pool[first] = a
                pool[second] = b
                self._book_changed_codes(initiator, responder, a, b, 1)
        else:
            result = self._transition(initiator, responder)
            if result.changed:
                pool[first] = result.initiator
                pool[second] = result.responder
                self._apply_changed_transition(initiator, responder, result, 1)
        self.steps_taken += 1

    def _advance(self, max_interactions: int) -> int:
        if self._next_decision is not None and self.steps_taken >= self._next_decision:
            self._decide_regime()
        if self._row_mass is None and self._num_agents < SEQUENTIAL_FALLBACK_THRESHOLD:
            if self._next_decision is not None:
                # Come back within n steps so the regime is re-decided on time.
                max_interactions = min(max_interactions, self._num_agents)
            for _ in range(max_interactions):
                self._sequential_step()
            return max_interactions
        return self.run_burst(max_interactions)

    # -- the sparse regime --------------------------------------------------------------

    def _decide_regime(self) -> None:
        """Pick the dense or the sparse regime from the current counts.

        Runs at most once per ``n`` interactions and consumes no randomness.
        A dense engine first looks at the fraction of interactions that
        changed a state since the last decision; only when that is low does
        it pay the ``O(active pairs)`` computation of the exact mass ``W``.
        """
        n = self._num_agents
        steps, changes = self.steps_taken, self.interactions_changed
        last_steps, last_changes = self._last_decision
        self._last_decision = (steps, changes)
        self._next_decision = steps + n
        sparse = self._row_mass is not None
        counts = self._counts
        present = [code for code, count in enumerate(counts) if count]
        scale = 1.0 + len(present) / SPARSE_SUPPORT_SCALE
        # The changed fraction estimates W / n(n-1) from one window; the 1.5
        # margin keeps its noise from hiding a configuration worth checking.
        if not sparse and (changes - last_changes) * scale > 1.5 * SPARSE_ENTER_LOAD * (
            steps - last_steps
        ):
            return
        changed = self._compiled.changed
        d = len(counts)
        if sparse:
            mass = sum(map(mul, counts, self._row_mass))
        else:
            # W over the present codes only: O(support²), not O(d²).
            mass = 0
            for p in present:
                base = p * d
                row = sum(counts[q] for q in present if changed[base + q])
                mass += counts[p] * (row - changed[base + p])
        load = mass / (n * (n - 1)) * scale
        if sparse and load > SPARSE_LEAVE_LOAD:
            self._row_mass = self._cumulative = None
            self._pool = self._pool_from_counts()
        elif not sparse and load < SPARSE_ENTER_LOAD:
            get = counts.__getitem__
            self._row_mass = [
                sum(map(get, row)) - changed[p * d + p] for p, row in enumerate(self._active_rows)
            ]
            self._pool = None

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
        because the geometric distribution is memoryless.  A silent
        configuration (``W = 0``) consumes the whole cap without a draw.
        """
        n = self._num_agents
        cap = n if max_interactions is None else max_interactions
        if cap <= 0:
            return 0
        window = min(cap, n)
        left = window
        total = n * (n - 1)
        rng_random = self._rng.random
        while True:
            cumulative = self._cumulative
            if cumulative is None:
                cumulative = self._cumulative = list(
                    accumulate(map(mul, self._counts, self._row_mass))
                )
            mass = cumulative[-1]
            if mass == 0:
                self.steps_taken += left + cap - window
                return cap
            skip = 0 if mass >= total else int(log(1.0 - rng_random()) / log1p(-mass / total))
            if skip >= left:
                break
            self.steps_taken += skip
            left -= skip + 1
            self._sparse_event(cumulative, mass)
            self.steps_taken += 1
        self.steps_taken += left
        return window

    def _sparse_event(self, cumulative: list[int], mass: int) -> None:
        """Draw one active ordered pair by integer target and apply it."""
        counts = self._counts
        target = int(self._rng.random() * mass)
        if target >= mass:
            target = mass - 1
        p = bisect_right(cumulative, target)
        offset = (target - (cumulative[p - 1] if p else 0)) // counts[p]
        for q in self._active_rows[p]:
            weight = counts[q] - (q == p)
            if offset < weight:
                break
            offset -= weight
        compiled = self._compiled
        d = compiled.num_states
        a, b = divmod(compiled.table[p * d + q], d)
        net = {p: -1}
        net[q] = net.get(q, 0) - 1
        net[a] = net.get(a, 0) + 1
        net[b] = net.get(b, 0) + 1
        row_mass = self._row_mass
        cols = self._active_cols
        for code, delta in net.items():
            if delta:
                for other in cols[code]:
                    row_mass[other] += delta
        self._cumulative = None
        self._book_changed_codes(p, q, a, b, 1)

    # -- inspection -------------------------------------------------------------------

    @property
    def regime(self) -> str:
        """How interactions are sampled now: ``"kernel"``, ``"dense"`` or ``"sparse"``."""
        if self._kernel is not None:
            return "kernel"
        return "dense" if self._row_mass is None else "sparse"

    def states(self) -> list[State]:
        """The current agent states (anonymous, so order carries no meaning)."""
        if self._pool is None:
            return super().states()
        if self._compiled is not None:
            decode = self._compiled.decode
            return [decode(code) for code in self._pool]
        return list(self._pool)
