"""Exact Markov-chain analysis of population protocols (``engine="exact"``).

Everything the stochastic engines estimate, computed exactly for small
populations: the uniform random scheduler induces a finite discrete-time
Markov chain over configurations, and this package materializes and solves
it —

* :class:`ConfigurationChain` — the sparse transition matrix over the
  reachable configuration space, as integer weights over the one
  denominator ``n·(n-1)`` with exact rational (``fractions.Fraction``) or
  float64 probability views, plus exact distributions after ``t``
  interactions;
* :func:`analyze_absorption` / :func:`hitting_analysis` — stable (closed)
  classes, absorption probabilities, and exact expected interactions to
  convergence, all read off one row of the fundamental matrix (the expected
  visits from the initial configuration), solved one strongly connected
  component at a time (see :mod:`repro.exact.solve`);
* :class:`ExactMarkovEngine` — the fourth registry engine
  (``get_engine("exact")``), producing a :class:`DistributionResult` that
  rides through ``RunSpec`` sweeps and ``RunRecord`` JSON;
* :func:`exact_expected_convergence` / :func:`exact_correctness_probability`
  — one-call conveniences behind the exact columns of experiments E3/E6 and
  the golden files under ``tests/golden/`` (regenerate with
  ``python -m repro.exact.golden tests/golden``).

The exact engine is ground truth, not a fast path: cost grows with the
reachable configuration count (capped, :class:`ChainTooLarge`) and with the
largest strongly connected component of the transient chain the
fundamental-matrix solve eliminates (capped, :class:`SolveTooLarge`).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.exact.absorption import (
    AbsorptionAnalysis,
    HittingAnalysis,
    analyze_absorption,
    closed_classes,
    hitting_analysis,
    strongly_connected_components,
)
from repro.exact.chain import (
    DEFAULT_MAX_CONFIGURATIONS,
    ChainTooLarge,
    ConfigurationChain,
)
from repro.exact.engine import ExactMarkovEngine, criterion_predicate
from repro.exact.quotient import QuotientChain
from repro.exact.result import DistributionResult, StableClassSummary
from repro.exact.solve import SolveTooLarge
from repro.protocols.base import PopulationProtocol
from repro.simulation.convergence import ConvergenceCriterion

__all__ = [
    "AbsorptionAnalysis",
    "ChainTooLarge",
    "ConfigurationChain",
    "DEFAULT_MAX_CONFIGURATIONS",
    "DistributionResult",
    "ExactMarkovEngine",
    "HittingAnalysis",
    "QuotientChain",
    "SolveTooLarge",
    "StableClassSummary",
    "analyze_absorption",
    "closed_classes",
    "exact_correctness_probability",
    "exact_expected_convergence",
    "hitting_analysis",
    "strongly_connected_components",
]


def exact_expected_convergence(
    protocol: PopulationProtocol,
    colors: Sequence[int],
    criterion: ConvergenceCriterion | None = None,
    *,
    max_configurations: int = DEFAULT_MAX_CONFIGURATIONS,
    quotient: bool = True,
) -> float | None:
    """Exact expected interactions until convergence, or ``None``.

    With a criterion, convergence means "the criterion first holds" (what a
    stochastic engine's run length estimates); ``None`` when that event is
    not almost sure.  Without one, convergence means entering a stable class.

    Runs exactly one visit-row solve (unlike a full
    :class:`ExactMarkovEngine` run, which also produces the absorption half
    a table cell would discard).  ``quotient`` (default on) folds the chain
    by the input's color-symmetry stabilizer — hitting times of
    symmetry-invariant criteria are unchanged by the lumping, and both caps
    then count orbit representatives; criteria with
    ``symmetry_invariant = False`` fall back to the unquotiented chain.

    Raises:
        ChainTooLarge / SolveTooLarge: when the input is too big for exact
            analysis (callers typically degrade to an empty table cell).
    """
    quotient = quotient and (
        criterion is None or getattr(criterion, "symmetry_invariant", True)
    )
    chain_cls = QuotientChain if quotient else ConfigurationChain
    chain = chain_cls.from_colors(
        protocol, colors, max_configurations=max_configurations
    )
    if criterion is None:
        absorption = analyze_absorption(chain)
        return float(absorption.expected_interactions)
    hit = hitting_analysis(
        chain, criterion_predicate(chain, criterion), expectation_only=True
    )
    if not hit.almost_sure:
        return None
    return float(hit.expected_interactions)


def exact_correctness_probability(
    protocol: PopulationProtocol,
    colors: Sequence[int],
    **engine_kwargs: object,
) -> float | None:
    """Exact probability of stabilizing on the unique relative majority.

    ``None`` when the input has no unique majority (correctness is then
    undefined, as in the paper).
    """
    engine = ExactMarkovEngine.from_colors(protocol, colors, **engine_kwargs)
    engine.run(0)
    return engine.distribution_result.correctness_probability


def _register_engine() -> None:
    """Make ``get_engine("exact")`` resolve.

    Registration lives here (not in :mod:`repro.simulation.registry`)
    because the engine depends on :mod:`repro.simulation.base` — the
    registry importing this package back would be an import cycle.  The
    ``repro`` package init imports :mod:`repro.exact`, so every entry point
    into the library sees the engine registered.
    """
    from repro.simulation.registry import ENGINES

    ENGINES.setdefault(ExactMarkovEngine.engine_name, ExactMarkovEngine)


_register_engine()
