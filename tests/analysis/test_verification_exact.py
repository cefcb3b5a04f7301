"""``verify_always_correct`` against the exact engine, registry-wide.

The model checker (:mod:`repro.analysis.verification`) and the exact Markov
chain (:mod:`repro.exact`) formalize the same question from different ends:

* the checker asks *graph-theoretically* whether from every reachable
  configuration a correct-closed configuration stays reachable (and no
  incorrect trap exists);
* the chain asks *probabilistically* whether absorption into correct stable
  classes has probability one under the uniform random scheduler.

For finite chains these are equivalent: the probability of eventually
entering a closed class is one, closed classes are exactly the sets runs
end up in, and a reachable non-correct closed class is precisely a
configuration from which no correct-closed configuration is reachable.  The
suite pins that equivalence on **every registry protocol** — including the
heuristics where both sides must *fail* together — so neither analysis can
silently drift.  The checker's verdict is a closed-class query on the same
chain, via the same :func:`repro.exact.absorption.closed_classes`; the
independent oracle for it is the definition-literal reference checker of
``test_verification_reference.py``.
"""

import math

import pytest

import repro  # noqa: F401  (populates the default protocol registry)
from repro.analysis.verification import verify_always_correct
from repro.exact import (
    ChainTooLarge,
    ExactMarkovEngine,
    SolveTooLarge,
    exact_correctness_probability,
)
from repro.protocols.registry import DEFAULT_REGISTRY

PROTOCOL_NAMES = DEFAULT_REGISTRY.names()

#: Small unique-majority inputs; sized so every registry protocol's
#: configuration graph stays comfortably explorable.
INPUTS = ((0, 0, 1), (0, 0, 0, 1, 1))


@pytest.mark.parametrize("protocol_name", PROTOCOL_NAMES)
@pytest.mark.parametrize("colors", INPUTS, ids=lambda colors: f"n{len(colors)}")
def test_model_checker_agrees_with_exact_absorption(
    protocol_name, colors, make_registry_protocol
):
    """verified == (absorption probability into correct outputs is 1)."""
    protocol = make_registry_protocol(protocol_name)
    if max(colors) >= protocol.num_colors:
        pytest.skip(f"{protocol_name} instance has too few colors for {colors}")
    try:
        probability = exact_correctness_probability(protocol, colors)
    except (ChainTooLarge, SolveTooLarge) as too_large:
        pytest.skip(f"{protocol_name} on {colors}: {too_large}")
    assert probability is not None
    verdict = verify_always_correct(protocol, colors)
    assert not verdict.truncated
    always_correct = math.isclose(probability, 1.0, abs_tol=1e-12)
    assert verdict.verified == always_correct, (
        f"{protocol_name} on {colors}: model checker says verified={verdict.verified} "
        f"but exact correctness probability is {probability}"
    )
    # The hard-trap flag must agree with the exact analysis too: a trap means
    # some probability mass is absorbed where no correct configuration is
    # even reachable, so correctness cannot be almost sure.
    if verdict.has_incorrect_trap:
        assert probability < 1.0


@pytest.mark.parametrize("colors", INPUTS, ids=lambda colors: f"n{len(colors)}")
def test_circles_is_verified_and_always_correct(colors, circles_k3):
    """Theorem 3.7 from both ends on the paper's protocol."""
    verdict = verify_always_correct(circles_k3, colors)
    assert verdict.verified
    engine = ExactMarkovEngine.from_colors(circles_k3, colors, arithmetic="exact")
    engine.run(0)
    result = engine.distribution_result
    assert result.correctness_probability_exact == "1/1"
    assert result.always_correct is True


def test_configuration_counts_agree():
    """Both analyses enumerate the same reachable configuration space."""
    protocol = DEFAULT_REGISTRY.create("circles", 2)
    colors = (0, 0, 0, 1, 1)
    verdict = verify_always_correct(protocol, colors)
    engine = ExactMarkovEngine.from_colors(protocol, colors)
    engine.run(0)
    assert engine.distribution_result.num_configurations == verdict.num_configurations
