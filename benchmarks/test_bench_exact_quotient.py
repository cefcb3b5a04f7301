"""Symmetry-quotient benchmark — exact analysis on tied inputs.

The quotient chain (:mod:`repro.exact.quotient`) folds the configuration
space by the input's color-symmetry stabilizer, so on perfectly tied inputs
the fundamental-matrix solve runs on an orbit set up to ``|stabilizer|``
times smaller — and the solve is cubic, so the wall-clock win compounds.
Checks:

* the rational-arithmetic analysis of the tied circles ``k = 3`` input
  (560 configurations, 192 orbits) is at least **4× faster** quotiented
  than unquotiented.  The orbit ratio (560 / 192 ≈ 2.9) bounds what folding
  can save once the solve works block by block over strongly connected
  components; fastest-of-20 timings read about 1.9× on a 2-vCPU Xeon VM, so
  this gate fails as it stands;
* the golden-suite regeneration (every case in
  :data:`repro.exact.golden.GOLDEN_CASES`, exact rationals) is recorded
  quotiented vs. unquotiented so the perf log tracks the end-to-end cost of
  the default-on quotient across PRs.

Both timed comparisons run each variant once untimed first, so compilation,
the symmetry search and interpreter warm-up are paid before either is timed
(timed cold, the variant that ran first paid them alone).  Each variant
then takes :data:`REPEATS` timed runs, interleaved with the other's so both
see the same host load, and the ratio compares the fastest of each: a single
~10 ms analysis per variant measured the host more than the quotient.

Wall-clock assertions carry the ``perf`` marker (opt-in via
``pytest --perf benchmarks/``); marker-free smoke tests keep the quotient
path exercised in the default suite and the CI bench-smoke job.
"""

import time

import pytest

import repro  # noqa: F401  (populates the protocol registry)
from repro.core.circles import CirclesProtocol
from repro.exact import ExactMarkovEngine, QuotientChain
from repro.exact.golden import GOLDEN_CASES, case_criterion
from repro.protocols.registry import get_protocol

#: The tentpole's acceptance input: all three colors tied, cyclic stabilizer
#: of order 3, 560 source configurations folded to 192 orbits.
TIED_K3 = (0, 0, 1, 1, 2, 2)


#: Timed runs per variant in each comparison (see the module docstring).
REPEATS = 20


def _fastest_times(run) -> tuple[float, float]:
    """Fastest ``run(quotient)`` wall time of each variant: (quotiented, plain).

    One untimed warm-up run per variant, then :data:`REPEATS` rounds that
    time both variants back to back.
    """
    best = {True: float("inf"), False: float("inf")}
    run(True)
    run(False)
    for _ in range(REPEATS):
        for quotient in (True, False):
            start = time.perf_counter()
            run(quotient)
            best[quotient] = min(best[quotient], time.perf_counter() - start)
    return best[True], best[False]


def _tied_analysis(quotient: bool) -> None:
    engine = ExactMarkovEngine.from_colors(
        CirclesProtocol(3), TIED_K3, arithmetic="exact", quotient=quotient
    )
    engine.run(0)


def test_quotient_chain_smoke():
    """Smoke (default suite): the quotient path builds and folds orbits."""
    chain = QuotientChain.from_colors(CirclesProtocol(3), TIED_K3)
    assert chain.is_quotiented
    assert chain.stabilizer_order == 3
    assert chain.num_configurations == 192
    assert chain.num_source_configurations == 560


def test_quotiented_engine_smoke():
    """Smoke (default suite): default-on quotient reports source semantics."""
    engine = ExactMarkovEngine.from_colors(CirclesProtocol(2), (0, 0, 1, 1))
    engine.run(0)
    result = engine.distribution_result
    assert result.num_orbits is not None
    assert result.num_configurations > result.num_orbits


@pytest.mark.perf
def test_quotient_speeds_up_the_tied_rational_analysis(record_perf):
    """≥4× on the tied circles k=3 rational solve (cubic in the orbit count)."""
    quotient_time, plain_time = _fastest_times(_tied_analysis)
    print(
        f"\ntied circles k=3 exact analysis (fastest of {REPEATS}): quotient "
        f"{quotient_time * 1e3:.1f}ms, unquotiented {plain_time * 1e3:.1f}ms, "
        f"speedup {plain_time / quotient_time:.2f}x"
    )
    record_perf(
        "exact-quotient-tied-k3",
        n=len(TIED_K3),
        engine="exact",
        seconds=quotient_time,
        speedup=plain_time / quotient_time,
        baseline_seconds=plain_time,
    )
    assert quotient_time * 4 <= plain_time, (
        f"quotient only {plain_time / quotient_time:.1f}x faster "
        f"({quotient_time:.2f}s vs {plain_time:.2f}s)"
    )


@pytest.mark.perf
def test_golden_suite_cost_is_recorded(record_perf):
    """The golden-suite regeneration cost, quotiented vs. not, goes to the log.

    The suite mixes tied cases (which fold) with untied ones (bit-identical
    passthrough), so this tracks the *end-to-end* cost of leaving the
    quotient on by default — the number that must not regress.
    """

    def suite(quotient: bool) -> None:
        for protocol_name, k, colors in GOLDEN_CASES:
            engine = ExactMarkovEngine.from_colors(
                get_protocol(protocol_name, k),
                colors,
                arithmetic="exact",
                quotient=quotient,
            )
            engine.run(0, criterion=case_criterion(protocol_name))

    quotient_time, plain_time = _fastest_times(suite)
    print(
        f"\ngolden suite (exact rationals, fastest of {REPEATS}): quotient "
        f"{quotient_time * 1e3:.1f}ms, unquotiented {plain_time * 1e3:.1f}ms"
    )
    record_perf(
        "exact-quotient-golden-suite",
        n=max(len(colors) for _, _, colors in GOLDEN_CASES),
        engine="exact",
        seconds=quotient_time,
        speedup=plain_time / quotient_time,
        baseline_seconds=plain_time,
    )
    # No hard ratio: most golden cases are untied by design.  The guard is
    # only that the default-on quotient does not slow the suite down.
    assert quotient_time <= plain_time * 1.25
