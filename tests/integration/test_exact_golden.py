"""Golden-reference conformance: every stochastic engine vs. the exact engine.

Two layers of ground truth, neither of which is engine-vs-engine:

* **Distributional conformance** — for every protocol in the registry at
  small ``n``, the empirical distribution of output histograms produced by
  the agent, batch and vector engines after a fixed number of
  interactions is chi-squared-tested against the *exact* distribution
  computed by the Markov-chain engine (:mod:`repro.exact`).  A bias shared
  by all stochastic engines — which the engine-vs-engine agreement suites
  cannot see — fails here.
* **Golden files** — ``tests/golden/*.json`` pin exact absorption
  probabilities, expected interactions to convergence and correctness
  probabilities for the circles-family protocols at small ``(k, n)``,
  generated in exact rational arithmetic.  Every run recomputes them, in
  float mode and in exact rationals, and compares against the pinned
  values.  Regenerate after an intentional semantic change with::

      PYTHONPATH=src python -m repro.exact.golden tests/golden
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import repro  # noqa: F401  (populates the default protocol registry)
from repro.exact import ConfigurationChain, QuotientChain
from repro.exact.golden import GOLDEN_CASES, case_criterion, case_filename, golden_payload
from repro.protocols.registry import DEFAULT_REGISTRY
from repro.scheduling.random_uniform import UniformRandomScheduler
from repro.simulation import ENGINES, AgentSimulation, stochastic_engines

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

PROTOCOL_NAMES = DEFAULT_REGISTRY.names()
# The batch engine's sampler paths, each pinned (see the ``pin_batch_path``
# fixture): at n = 5 its measured regime switch mostly stays dense, so the
# pins are what checks the sparse event chain and the uncompiled pool
# against the exact chain on every registry protocol.
SAMPLERS = [*stochastic_engines(), "batch-dense", "batch-sparse", "batch-uncompiled"]
MATRIX = [
    (protocol_name, engine_name)
    for protocol_name in PROTOCOL_NAMES
    for engine_name in SAMPLERS
]

TRIALS = 200
HORIZON = 25
NUM_AGENTS = 5


def make_colors(protocol, num_agents):
    """A majority-skewed input assignment valid for the protocol's ``k``."""
    k = protocol.num_colors
    minority = list(range(1, k)) * 2 if k > 1 else []
    minority = minority[: max(0, num_agents - 1)]
    return [0] * (num_agents - len(minority)) + minority


def build_engine(engine_cls, protocol, colors, seed):
    """Construct a stochastic engine on the uniform random scheduler chain."""
    if issubclass(engine_cls, AgentSimulation):
        scheduler = UniformRandomScheduler(len(colors), seed=seed)
        return engine_cls.from_colors(protocol, colors, seed=seed, scheduler=scheduler)
    return engine_cls.from_colors(protocol, colors, seed=seed)


@pytest.mark.parametrize("protocol_name,engine_name", MATRIX)
def test_engine_matches_the_exact_distribution(
    protocol_name, engine_name, make_registry_protocol, one_sample_chi_squared, pin_batch_path
):
    """Empirical output histograms match the exactly computed distribution."""
    protocol = make_registry_protocol(protocol_name)
    colors = make_colors(protocol, NUM_AGENTS)
    chain = ConfigurationChain.from_colors(protocol, colors)
    exact = chain.output_distribution_after(HORIZON)
    assert math.isclose(sum(exact.values()), 1.0, abs_tol=1e-9)

    sampler = pin_batch_path(engine_name)
    observed: dict = {}
    for trial in range(TRIALS):
        simulation = build_engine(ENGINES[sampler], protocol, colors, seed=70_000 + trial)
        if engine_name == "batch-uncompiled":
            assert simulation.compiled_protocol is None
        simulation.run(HORIZON)
        key = tuple(sorted(simulation.output_counts().items()))
        observed[key] = observed.get(key, 0) + 1

    statistic, critical = one_sample_chi_squared(observed, exact, TRIALS)
    assert statistic < critical, (
        f"{protocol_name}: engine {engine_name!r} disagrees with the exact "
        f"distribution (chi-squared {statistic:.1f} > {critical:.1f})"
    )


#: A perfectly tied input: on circles its quotient chain folds a nontrivial
#: stabilizer, so the lifted exact distribution is genuinely reconstructed
#: from orbit representatives rather than computed directly.
TIE_COLORS = [0, 0, 1, 1]


@pytest.mark.parametrize("engine_name", SAMPLERS)
def test_engines_match_the_quotiented_exact_distribution(
    engine_name, make_registry_protocol, one_sample_chi_squared, pin_batch_path
):
    """The quotient chain's *lifted* distribution is what the samplers sample.

    Same chi-squared design as the matrix above, but the ground truth comes
    from :class:`QuotientChain` on a tied input — conformance coverage for
    the orbit lift itself, not just the lumped chain.
    """
    protocol = make_registry_protocol("circles")
    chain = QuotientChain.from_colors(protocol, TIE_COLORS)
    assert chain.is_quotiented
    exact = chain.output_distribution_after(HORIZON)
    assert math.isclose(sum(exact.values()), 1.0, abs_tol=1e-9)

    sampler = pin_batch_path(engine_name)
    observed: dict = {}
    for trial in range(TRIALS):
        simulation = build_engine(ENGINES[sampler], protocol, TIE_COLORS, seed=90_000 + trial)
        if engine_name == "batch-uncompiled":
            assert simulation.compiled_protocol is None
        simulation.run(HORIZON)
        key = tuple(sorted(simulation.output_counts().items()))
        observed[key] = observed.get(key, 0) + 1

    statistic, critical = one_sample_chi_squared(observed, exact, TRIALS)
    assert statistic < critical, (
        f"engine {engine_name!r} disagrees with the quotient-lifted exact "
        f"distribution (chi-squared {statistic:.1f} > {critical:.1f})"
    )


def _approx(actual, pinned, tolerance=1e-9):
    if pinned is None or actual is None:
        return pinned is None and actual is None
    return math.isclose(float(actual), float(pinned), rel_tol=tolerance, abs_tol=tolerance)


def test_every_golden_case_has_a_file():
    """A new golden case must be regenerated into tests/golden/."""
    on_disk = {path.name for path in GOLDEN_DIR.glob("*.json")}
    expected = {case_filename(*case) for case in GOLDEN_CASES}
    assert on_disk == expected, (
        "golden files out of sync with repro.exact.golden.GOLDEN_CASES; "
        "regenerate with: PYTHONPATH=src python -m repro.exact.golden tests/golden"
    )


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda case: case_filename(*case))
def test_golden_values_have_not_drifted(case):
    """Recompute each pinned case (float mode) and compare to the golden file."""
    protocol_name, k, colors = case
    pinned = json.loads((GOLDEN_DIR / case_filename(*case)).read_text())
    recomputed = golden_payload(protocol_name, k, colors, arithmetic="float")

    # Structure must agree exactly.
    for field in (
        "protocol_name",
        "num_agents",
        "num_colors",
        "num_configurations",
        "num_transient",
        "num_classes",
        "majority",
        "criterion",
    ):
        assert recomputed[field] == pinned[field], field

    # Probabilities and expectations must agree to float precision.
    for field in (
        "correctness_probability",
        "expected_interactions",
        "expected_changed_interactions",
        "criterion_probability",
        "expected_interactions_to_criterion",
        "expected_changed_to_criterion",
    ):
        assert _approx(recomputed[field], pinned[field]), (
            f"{field}: recomputed {recomputed[field]!r} != pinned {pinned[field]!r}; "
            "if the change is intentional, regenerate with "
            "'PYTHONPATH=src python -m repro.exact.golden tests/golden'"
        )

    assert len(recomputed["classes"]) == len(pinned["classes"])
    for new, old in zip(recomputed["classes"], pinned["classes"]):
        assert new["size"] == old["size"]
        assert new["unanimous_output"] == old["unanimous_output"]
        assert new["correct"] == old["correct"]
        assert new["example"] == old["example"]
        assert _approx(new["probability"], old["probability"])


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda case: case_filename(*case))
def test_golden_case_matches_in_exact_arithmetic(case):
    """Every case recomputed with Fractions: the rational strings are byte-identical."""
    pinned = json.loads((GOLDEN_DIR / case_filename(*case)).read_text())
    recomputed = golden_payload(*case, arithmetic="exact")
    exact_fields = [field for field in pinned if field.endswith("_exact")]
    assert exact_fields
    for field in exact_fields:
        assert recomputed[field] == pinned[field], field
    assert len(recomputed["classes"]) == len(pinned["classes"])
    for new, old in zip(recomputed["classes"], pinned["classes"]):
        assert new["probability_exact"] == old["probability_exact"]


def test_absorption_probabilities_sum_to_one():
    """Within every golden file, class probabilities form a distribution."""
    for case in GOLDEN_CASES:
        pinned = json.loads((GOLDEN_DIR / case_filename(*case)).read_text())
        total = sum(entry["probability"] for entry in pinned["classes"])
        assert math.isclose(total, 1.0, abs_tol=1e-9), case_filename(*case)


def test_circles_golden_cases_are_always_correct_on_unique_majorities():
    """Theorem 3.7, pinned: every unique-majority circles case has P(correct) = 1."""
    for case in GOLDEN_CASES:
        protocol_name, k, colors = case
        if protocol_name != "circles":
            continue
        pinned = json.loads((GOLDEN_DIR / case_filename(*case)).read_text())
        if pinned["majority"] is None:
            continue
        assert pinned["correctness_probability_exact"] == "1/1", case_filename(*case)
        assert pinned["criterion_probability"] == 1.0


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda case: case_filename(*case))
def test_stochastic_engines_respect_the_golden_absorption_times(case):
    """Sampled convergence agrees with the pinned expectation (coarse guard).

    The distributional test above is the sharp check; this one closes the
    loop on the *absorption-time* golden values: the batch engine's
    mean interactions to the pinned criterion must land within a generous
    band around the exact expectation (or the criterion must be non-a.s.,
    matching a pinned ``null``).
    """
    protocol_name, k, colors = case
    pinned = json.loads((GOLDEN_DIR / case_filename(*case)).read_text())
    expected = pinned["expected_interactions_to_criterion"]
    if expected is None:
        return  # criterion not almost sure; nothing to time
    protocol = DEFAULT_REGISTRY.create(protocol_name, k)
    criterion = case_criterion(protocol_name)
    trials = 120
    total = 0
    for trial in range(trials):
        simulation = ENGINES["batch"].from_colors(
            protocol, colors, seed=40_000 + trial
        )
        assert simulation.run(100_000, criterion=criterion, check_interval=1)
        total += simulation.steps_taken
    mean = total / trials
    # Hitting times are heavy-tailed; 35% around the exact mean at 120 trials
    # is ~4 standard errors for these cases — loose enough to be stable,
    # tight enough to catch a systematically wrong golden value.
    assert abs(mean - expected) <= max(3.0, 0.35 * expected), (
        f"{case_filename(*case)}: empirical mean {mean:.2f} vs exact {expected:.2f}"
    )
