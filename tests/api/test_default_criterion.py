"""One source for the default criterion: ``PopulationProtocol.default_criterion``.

``run_protocol``, the exact anchors of adaptive stopping and E6's exact
column all stop a run that names no criterion on the protocol's own
default, so the empirical and the analytical numbers of one cell always
measure the same first-hitting time.
"""

import pytest

import repro.exact
from repro.api.executor import exact_anchor_value
from repro.api.spec import RunSpec
from repro.experiments import e6_convergence
from repro.protocols.registry import DEFAULT_REGISTRY, get_protocol
from repro.simulation.base import SimulationEngine
from repro.simulation.convergence import OutputConsensus, StableCircles
from repro.simulation.runner import run_protocol

COLORS = [0, 0, 1]


@pytest.fixture
def recorded(monkeypatch):
    """Record the criterion every engine run and exact solve is handed."""
    criteria = []
    engine_run = SimulationEngine.run

    def run(self, max_steps, criterion=None, check_interval=None):
        criteria.append(criterion)
        return engine_run(self, max_steps, criterion=criterion, check_interval=check_interval)

    def solve(protocol, colors, criterion, **kwargs):
        criteria.append(criterion)
        return 1.0

    monkeypatch.setattr(SimulationEngine, "run", run)
    monkeypatch.setattr(repro.exact, "exact_expected_convergence", solve)
    monkeypatch.setattr(e6_convergence, "exact_expected_convergence", solve)
    return criteria


def test_circles_defaults_to_stable_circles_and_others_to_consensus():
    for name in DEFAULT_REGISTRY.names():
        expected = StableCircles if name == "circles" else OutputConsensus
        assert type(get_protocol(name, 2).default_criterion()) is expected


@pytest.mark.parametrize("name", DEFAULT_REGISTRY.names())
def test_every_path_uses_the_protocol_default(recorded, name):
    protocol = get_protocol(name, 2)
    expected = type(protocol.default_criterion())

    run_protocol(protocol, COLORS, engine="batch", seed=1, max_steps=50)
    spec = RunSpec(protocol=name, n=len(COLORS), k=2, seed=1, workload_seed=1)
    assert exact_anchor_value(spec, "steps") == 1.0
    assert e6_convergence.exact_expected_cell(name, 2, COLORS) == "1.0"

    assert [type(criterion) for criterion in recorded] == [expected] * 3
