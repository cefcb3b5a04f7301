"""Import-footprint benchmark — a fresh ``import repro`` stays lean.

numpy (the position kernel's accelerator) and the sweep service's stack
(``asyncio``, ``http.server``) load on first use, so a process that only
runs small-n grids or rational exact analyses never pays for them.  Each
sample is one fresh interpreter, because the pytest process may already
hold every one of those modules.  Checks:

* smoke (default suite): a fresh ``import repro`` holds none of numpy,
  ``asyncio`` and ``http.server``;
* ``--perf``: the median over :data:`IMPORT_RUNS` fresh processes of the
  import's wall time and of the process's peak RSS (``ru_maxrss``) right
  after it, recorded in ``BENCH_results.json`` as ``import-repro`` against
  the eager import's numbers, and the RSS must stay at least
  :data:`MIN_RSS_SAVING_MB` under the eager import's.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules a fresh ``import repro`` must not load.
HEAVY = ("numpy", "asyncio", "http.server")

#: Fresh processes per ``--perf`` measurement; the medians are recorded.
IMPORT_RUNS = 9

#: Median seconds and peak RSS (MB) of a fresh ``import repro`` when it
#: loaded numpy and the service stack eagerly, measured with this bench on a
#: 2-vCPU Xeon VM (Python 3.11.7, numpy 2.4.6).
EAGER_IMPORT_S = 0.287
EAGER_IMPORT_RSS_MB = 39.6

#: numpy alone adds about 13.7 MB of RSS to the eager import.
MIN_RSS_SAVING_MB = 10.0

PROBE = f"""
import resource, sys, time
start = time.perf_counter()
import repro
seconds = time.perf_counter() - start
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
import json
print(json.dumps({{"seconds": seconds, "rss_mb": rss_mb,
                  "heavy": [name for name in {HEAVY!r} if name in sys.modules]}}))
"""


#: Starts :data:`PROBE` from a small interpreter.  On Linux a process's
#: ``ru_maxrss`` starts at the peak of the process it was forked from, so a
#: probe started by pytest itself would report pytest's RSS.
LAUNCH = f"""
import subprocess, sys
sys.exit(subprocess.run([sys.executable, "-c", {PROBE!r}]).returncode)
"""


def fresh_import() -> dict:
    """One fresh interpreter's ``import repro``: seconds, peak RSS, heavy modules."""
    done = subprocess.run(
        [sys.executable, "-c", LAUNCH],
        env={**os.environ, "PYTHONPATH": str(_SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def test_fresh_import_is_lean_smoke():
    """Smoke (default suite): neither numpy nor the service stack is loaded."""
    assert fresh_import()["heavy"] == []


@pytest.mark.perf
def test_import_footprint_is_recorded(record_perf):
    samples = [fresh_import() for _ in range(IMPORT_RUNS)]
    seconds = statistics.median(sample["seconds"] for sample in samples)
    rss_mb = statistics.median(sample["rss_mb"] for sample in samples)
    print(
        f"\nimport repro: {seconds:.3f}s, peak RSS {rss_mb:.1f} MB "
        f"(eager import: {EAGER_IMPORT_S:.3f}s, {EAGER_IMPORT_RSS_MB:.1f} MB)"
    )
    record_perf(
        "import-repro",
        n=0,
        engine="import",
        seconds=seconds,
        speedup=EAGER_IMPORT_S / seconds,
        baseline_seconds=EAGER_IMPORT_S,
        peak_rss_mb=rss_mb,
    )
    assert rss_mb <= EAGER_IMPORT_RSS_MB - MIN_RSS_SAVING_MB, (
        f"import repro peaks at {rss_mb:.1f} MB, under {MIN_RSS_SAVING_MB} MB below "
        f"the eager import's {EAGER_IMPORT_RSS_MB} MB"
    )
