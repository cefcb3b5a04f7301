"""Symmetry-quotient benchmark — exact analysis on tied inputs.

The quotient chain (:mod:`repro.exact.quotient`) folds the configuration
space by the input's color-symmetry stabilizer, so on perfectly tied inputs
the fundamental-matrix solve runs on an orbit set up to ``|stabilizer|``
times smaller — and the solve is cubic, so the wall-clock win compounds.
Checks:

* the rational-arithmetic analysis of the tied circles ``k = 3`` input
  (560 configurations, 192 orbits) is at least **4× faster** quotiented
  than unquotiented (about 6× since the rational solve works block by block
  over strongly connected components; chain enumeration now weighs as much);
* the golden-suite regeneration (every case in
  :data:`repro.exact.golden.GOLDEN_CASES`, exact rationals) is recorded
  quotiented vs. unquotiented so the perf log tracks the end-to-end cost of
  the default-on quotient across PRs.

Both timed comparisons run each variant once untimed first, so compilation,
the symmetry search and interpreter warm-up are paid before either is timed
(timed cold, the variant that ran first paid them alone).

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


def _analysis_time(quotient: bool, arithmetic: str = "exact") -> float:
    start = time.perf_counter()
    engine = ExactMarkovEngine.from_colors(
        CirclesProtocol(3), TIED_K3, arithmetic=arithmetic, quotient=quotient
    )
    engine.run(0)
    return time.perf_counter() - start


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
    _analysis_time(quotient=True)
    _analysis_time(quotient=False)
    quotient_time = _analysis_time(quotient=True)
    plain_time = _analysis_time(quotient=False)
    print(
        f"\ntied circles k=3 exact analysis: quotient {quotient_time:.2f}s, "
        f"unquotiented {plain_time:.2f}s, speedup {plain_time / quotient_time:.1f}x"
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

    def suite_time(quotient: bool) -> float:
        start = time.perf_counter()
        for protocol_name, k, colors in GOLDEN_CASES:
            engine = ExactMarkovEngine.from_colors(
                get_protocol(protocol_name, k),
                colors,
                arithmetic="exact",
                quotient=quotient,
            )
            engine.run(0, criterion=case_criterion(protocol_name))
        return time.perf_counter() - start

    suite_time(True)
    suite_time(False)
    quotient_time = suite_time(True)
    plain_time = suite_time(False)
    print(
        f"\ngolden suite (exact rationals): quotient {quotient_time:.2f}s, "
        f"unquotiented {plain_time:.2f}s"
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
