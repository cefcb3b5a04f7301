"""The batch engine's position kernel samples the exact chain at small n.

The kernel path runs only from ``NUMPY_BURST_THRESHOLD`` agents, far above
any population the exact chain can enumerate, so no golden or conformance
case reaches it.  Lowering the threshold below ``n`` puts a six-agent
Circles run on the kernel (one row, so no worker threads start), and its
output histogram after a fixed horizon must match
:meth:`~repro.exact.chain.ConfigurationChain.output_distribution_after`.
The lone color-1 agent of the second input sits at the last kernel
position, so a pair draw that favours positions moves its histogram.
"""

import math

import pytest

import repro.simulation.batch_engine as batch_engine
from repro.core.circles import CirclesProtocol
from repro.exact import ConfigurationChain
from repro.simulation.batch_engine import BatchConfigurationSimulation

pytest.importorskip("numpy")

#: Ends inside a kernel round and after several of Circles' ket exchanges.
HORIZON = 13
TRIALS = 2_000


@pytest.mark.parametrize("colors", [[0, 0, 0, 1, 1, 1], [0, 0, 0, 0, 0, 1]], ids=["tied", "lone"])
def test_kernel_output_histogram_matches_the_exact_chain(
    monkeypatch, one_sample_chi_squared, colors
):
    monkeypatch.setattr(batch_engine, "NUMPY_BURST_THRESHOLD", len(colors) - 1)
    protocol = CirclesProtocol(2)
    exact = ConfigurationChain.from_colors(protocol, colors).output_distribution_after(HORIZON)
    assert math.isclose(sum(exact.values()), 1.0, abs_tol=1e-9)
    observed: dict = {}
    for trial in range(TRIALS):
        simulation = BatchConfigurationSimulation.from_colors(
            protocol, colors, seed=50_000 + trial
        )
        assert simulation.regime == "kernel"
        simulation.run(HORIZON)
        assert simulation.steps_taken == HORIZON
        key = tuple(sorted(simulation.output_counts().items()))
        observed[key] = observed.get(key, 0) + 1
    assert len(observed) > 1
    statistic, critical = one_sample_chi_squared(observed, exact, TRIALS)
    assert statistic < critical, (
        f"position kernel disagrees with the exact chain "
        f"(chi-squared {statistic:.1f} > {critical:.1f})"
    )
