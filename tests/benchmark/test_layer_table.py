"""The benchmark's layer table names attributes that exist.

``perfbench/layers.py`` wraps layer boundaries by attribute name; a renamed
or moved attribute would only surface when the next traced benchmark run
raises.  Installing and restoring the table here fails the test suite
instead.  The table wraps the numpy vector kernel, so the test needs numpy.
"""

import pytest

from perfbench.tracing import Tracer
from repro.core.circles import CirclesProtocol
from repro.exact import ExactMarkovEngine

pytest.importorskip("numpy")
from perfbench import layers  # noqa: E402  (imports the numpy vector kernel)


def test_every_layer_installs_and_restores():
    tracer = Tracer()
    layers.install(tracer)
    try:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, raw in patches:
            assert owner.__dict__[attr] is not raw
        engine = ExactMarkovEngine.from_colors(
            CirclesProtocol(2), (0, 0, 0, 1, 1), arithmetic="exact"
        )
        engine.run(0)
    finally:
        tracer.restore()
    for owner, attr, raw in patches:
        assert owner.__dict__[attr] is raw
    # The exact analyses reach their solve through the wrapped name.
    assert {"exact.chain", "exact.absorption", "exact.solve"} <= set(tracer.names)
