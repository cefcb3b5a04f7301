"""Registry-wide conformance matrix: every protocol × every engine.

These tests are parametrized over the **full protocol registry × engine
registry**, so any future protocol or engine is conformance-tested by
registration alone.  Per cell the matrix checks:

* **population-size conservation** — the number of agents never changes;
* **outputs always in O** — every reported output is in the image of the
  output map over the protocol's reachable state space;
* **quiescence detection** — when an engine reports convergence under the
  sound :class:`SilentConfiguration` criterion, the final configuration is
  verified (through the compiled transition table) to really be silent, and
  a silent population keeps reporting convergence;
* **small-n distributional agreement** — under the uniform random scheduler
  every engine samples the same Markov chain, checked by a two-sample
  chi-squared test on output-count histograms against the agent engine
  driven by :class:`UniformRandomScheduler` (the independent, per-agent
  implementation of that chain);
* **static verification** — the ``repro.verify`` analyzer runs over the
  compiled δ-table (no simulation): no ERROR diagnostics, certificates
  re-verify, and the static stable-class analysis agrees with a fresh
  :func:`repro.exact.absorption.analyze_absorption` run.
"""

import pytest

import repro  # noqa: F401  (populates the default protocol registry)
from repro.compile import compile_protocol
from repro.exact.absorption import analyze_absorption, closed_classes
from repro.exact.chain import ChainTooLarge, ConfigurationChain
from repro.protocols.registry import DEFAULT_REGISTRY
from repro.scheduling.random_uniform import UniformRandomScheduler
from repro.simulation import (
    ENGINES,
    AgentSimulation,
    stochastic_engines,
)
from repro.simulation.convergence import SilentConfiguration
from repro.utils.multiset import Multiset
from repro.verify import check_conservation, check_ranking, transition_effects
from repro.verify.lint import Severity
from repro.verify.verifier import verify_protocol

PROTOCOL_NAMES = DEFAULT_REGISTRY.names()
# The matrix covers the engines that sample trajectories; the analytical
# "exact" engine is itself the reference the golden suite
# (test_exact_golden.py) checks these engines against.
ENGINE_NAMES = list(stochastic_engines())
# The batch engine's sampler paths, each pinned (see the ``pin_batch_path``
# fixture): at these small n its measured regime switch mostly stays dense,
# so the pins are what puts the sparse event chain and the uncompiled pool
# through every registry protocol.
BATCH_PATHS = ["batch-dense", "batch-sparse", "batch-uncompiled"]
MATRIX = [
    (protocol_name, engine_name)
    for protocol_name in PROTOCOL_NAMES
    for engine_name in ENGINE_NAMES + BATCH_PATHS
]


def make_colors(protocol, num_agents):
    """A majority-skewed input assignment valid for the protocol's ``k``."""
    k = protocol.num_colors
    minority = list(range(1, k)) * 2 if k > 1 else []
    minority = minority[: max(0, num_agents - 1)]
    return [0] * (num_agents - len(minority)) + minority


def build_engine(engine_cls, protocol, colors, seed, engine_name=None):
    """Construct any registry engine on the uniform random scheduler chain.

    ``engine_name`` is the matrix cell's name, if any; a ``batch-uncompiled``
    cell must really run uncompiled.
    """
    if issubclass(engine_cls, AgentSimulation):
        scheduler = UniformRandomScheduler(len(colors), seed=seed)
        return engine_cls.from_colors(protocol, colors, seed=seed, scheduler=scheduler)
    simulation = engine_cls.from_colors(protocol, colors, seed=seed)
    if engine_name == "batch-uncompiled":
        assert simulation.compiled_protocol is None
    return simulation


@pytest.mark.parametrize("protocol_name,engine_name", MATRIX)
class TestConformanceCell:
    def test_population_size_is_conserved(
        self, protocol_name, engine_name, make_registry_protocol, pin_batch_path
    ):
        protocol = make_registry_protocol(protocol_name)
        colors = make_colors(protocol, 12)
        engine = pin_batch_path(engine_name)
        simulation = build_engine(
            ENGINES[engine], protocol, colors, seed=11, engine_name=engine_name
        )
        simulation.run(400)
        if engine_name in ("batch-dense", "batch-sparse"):
            assert f"batch-{simulation.regime}" == engine_name
        assert simulation.steps_taken == 400
        assert simulation.num_agents == 12
        assert len(simulation.states()) == 12
        assert sum(simulation.output_counts().values()) == 12

    def test_outputs_stay_in_the_output_maps_image(
        self, protocol_name, engine_name, make_registry_protocol, pin_batch_path
    ):
        protocol = make_registry_protocol(protocol_name)
        colors = make_colors(protocol, 18)
        allowed = compile_protocol(protocol, colors).output_colors()
        engine = pin_batch_path(engine_name)
        simulation = build_engine(
            ENGINES[engine], protocol, colors, seed=13, engine_name=engine_name
        )
        simulation.run(2_000)
        outputs = simulation.outputs()
        assert len(outputs) == 18
        assert set(outputs) <= allowed
        assert set(simulation.output_counts()) <= allowed

    def test_quiescence_detection_is_sound(
        self, protocol_name, engine_name, make_registry_protocol, pin_batch_path
    ):
        protocol = make_registry_protocol(protocol_name)
        colors = make_colors(protocol, 8)
        engine = pin_batch_path(engine_name)
        simulation = build_engine(
            ENGINES[engine], protocol, colors, seed=17, engine_name=engine_name
        )
        converged = simulation.run(
            20_000, criterion=SilentConfiguration(), check_interval=64
        )
        if not converged:
            return  # a protocol need not reach silence; soundness is what matters
        # A claimed-silent configuration must have no changing interaction
        # (a same-state pair needs two copies of the state to be realizable).
        compiled = compile_protocol(protocol, colors)
        final = Multiset(simulation.states())
        support = [(compiled.encode(state), count) for state, count in final.items()]
        for p, p_count in support:
            for q, _q_count in support:
                if p == q and p_count < 2:
                    continue
                assert not compiled.transition_codes(p, q)[2], (
                    f"{protocol_name}/{engine_name} reported silence but "
                    f"δ({compiled.decode(p)}, {compiled.decode(q)}) still changes"
                )
        # ...and silence is permanent: the criterion keeps holding.
        assert simulation.run(200, criterion=SilentConfiguration(), check_interval=1)
        assert SilentConfiguration().is_converged_configuration(
            protocol, Multiset(simulation.states())
        )


@pytest.mark.parametrize("protocol_name", PROTOCOL_NAMES)
def test_engines_agree_distributionally_at_small_n(
    protocol_name, make_registry_protocol, two_sample_chi_squared
):
    """Every configuration-level engine samples the agent engine's chain."""
    protocol = make_registry_protocol(protocol_name)
    colors = make_colors(protocol, 6)
    trials = 150
    horizon = 40

    def histogram(engine_name, seed_base):
        counts = {}
        for trial in range(trials):
            simulation = build_engine(
                ENGINES[engine_name], protocol, colors, seed=seed_base + trial
            )
            simulation.run(horizon)
            key = tuple(sorted(simulation.output_counts().items()))
            counts[key] = counts.get(key, 0) + 1
        return counts

    reference = histogram(AgentSimulation.engine_name, 50_000)
    for engine_name in ENGINE_NAMES:
        if engine_name == AgentSimulation.engine_name:
            continue
        observed = histogram(engine_name, 90_000)
        statistic, critical = two_sample_chi_squared(observed, reference)
        assert statistic < critical, (
            f"{protocol_name}: engine {engine_name!r} disagrees with the agent "
            f"engine (chi-squared {statistic:.1f} > {critical:.1f})"
        )


# -- static verification column ---------------------------------------------


@pytest.mark.parametrize("protocol_name", PROTOCOL_NAMES)
def test_static_verifier_is_clean_and_certificates_reverify(
    protocol_name, make_registry_protocol
):
    """Every registry protocol passes protolint, and the report's
    certificates re-verify against a freshly derived effect basis."""
    protocol = make_registry_protocol(protocol_name)
    report = verify_protocol(protocol, name=protocol_name)
    assert report.compiled
    assert not report.has_errors(), [
        diagnostic.to_dict()
        for diagnostic in report.diagnostics
        if diagnostic.severity >= Severity.ERROR
    ]
    # Re-derive the effect vectors from a fresh compile and re-check both
    # certificate families — the report must not merely assert them.
    effects = transition_effects(compile_protocol(protocol))
    assert check_conservation(report.conservation, effects)
    assert check_ranking(effects, report.ranking)
    assert report.silence_certified == report.ranking.is_silence_certificate


@pytest.mark.parametrize("protocol_name", PROTOCOL_NAMES)
def test_static_stable_classes_agree_with_exact_absorption(
    protocol_name, make_registry_protocol
):
    """The report's probe summaries must match a fresh exact-arithmetic
    :mod:`repro.exact.absorption` recomputation on every probe small enough
    to rebuild (closed classes depend only on edge support, so float and
    Fraction chains must agree exactly)."""
    protocol = make_registry_protocol(protocol_name)
    report = verify_protocol(protocol, name=protocol_name)
    checked = 0
    for summary in report.probes:
        if "skipped" in summary:
            continue
        try:
            chain = ConfigurationChain.from_colors(
                protocol,
                summary["colors"],
                arithmetic="exact",
                max_configurations=4_000,
            )
        except ChainTooLarge:
            continue  # the cross-check targets probes under the state cap
        classes = closed_classes(chain.rows)
        assert summary["num_configurations"] == chain.num_configurations
        assert summary["num_classes"] == len(classes)
        assert summary["class_sizes"] == [len(members) for members in classes]
        for members, consistent in zip(classes, summary["output_consistent"]):
            keys = {chain.output_key(member) for member in members}
            assert (len(keys) == 1) == consistent
        if len(chain.rows) <= 200:
            # Small enough for the fundamental-matrix solve: the absorption
            # analysis must see the same classes and total probability one.
            analysis = analyze_absorption(chain)
            assert analysis.classes == classes
            assert sum(analysis.class_probabilities) == 1
        checked += 1
    assert checked, f"{protocol_name}: no probe small enough to cross-check"
