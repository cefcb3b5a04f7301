"""The optional stacks load on first use: numpy and the sweep service.

``import repro`` and the runs that never reach the position kernel, a float
solve or the vector engine's row-wise checks must leave numpy unloaded, and
only the service exports (or the service's own executor) load ``asyncio``
and ``http.server``.  Each check
runs in a fresh interpreter, because the pytest process may already hold
every one of those modules.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.utils.optional import numpy_module

_SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules a lean process must not hold: the accelerator and the service stack.
HEAVY = ("numpy", "asyncio", "http.server")

PROBE = """
import json, sys
HEAVY = {heavy!r}
report = {{}}

def note(stage):
    report[stage] = [name for name in HEAVY if name in sys.modules]

import repro
note("import")
from repro import SweepSpec, get_protocol, run_circles, run_sweep
from repro.exact.engine import ExactMarkovEngine
from repro.exact.golden import GOLDEN_CASES, case_criterion

run_sweep(SweepSpec(protocols=("circles",), populations=(16,), ks=(3,),
                    engines=("vector",), trials=4, seed=1), executor="serial")
run_circles([0] * 90 + [1] * 60 + [2] * 50, engine="batch", seed=1)
name, k, colors = GOLDEN_CASES[3]
engine = ExactMarkovEngine.from_colors(get_protocol(name, k), colors, arithmetic="exact")
engine.run(0, criterion=case_criterion(name))
note("runs")
lazy = {{"service", "AsyncExecutor", "ResultStore", "SweepManifest"}}
report["dir"] = sorted(lazy & set(dir(repro)))
repro.ResultStore
note("service")
if {kernel!r}:
    run_circles([0] * 1500 + [1] * 1400 + [2] * 1196, engine="batch", seed=1, max_steps=4096)
    note("kernel")
print(json.dumps(report))
"""


HAS_NUMPY = importlib.util.find_spec("numpy") is not None


@pytest.fixture(scope="module")
def report() -> dict:
    """The modules a fresh process holds after each stage of :data:`PROBE`."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(heavy=HEAVY, kernel=HAS_NUMPY)],
        env={**os.environ, "PYTHONPATH": str(_SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def test_runs_off_the_kernel_load_neither_numpy_nor_the_service(report):
    assert report["import"] == []
    assert report["runs"] == []


def test_the_service_exports_load_the_service_stack(report):
    assert report["dir"] == ["AsyncExecutor", "ResultStore", "SweepManifest", "service"]
    assert report["service"] == ["asyncio", "http.server"]


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy not available")
def test_a_run_past_the_kernel_gate_loads_numpy(report):
    assert "numpy" in report["kernel"]


def test_lazy_exports_are_the_service_objects():
    import repro
    from repro import ResultStore
    from repro.service import AsyncExecutor, SweepManifest
    from repro.service.store import ResultStore as StoreClass

    assert ResultStore is StoreClass
    assert (repro.AsyncExecutor, repro.SweepManifest) == (AsyncExecutor, SweepManifest)
    assert set(repro.__all__) <= set(dir(repro))
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name


def test_numpy_module_is_imported_once():
    assert numpy_module() is numpy_module()
    if HAS_NUMPY:
        import numpy

        assert numpy_module() is numpy
    else:
        assert numpy_module() is None
