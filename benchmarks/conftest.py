"""Benchmark-suite configuration.

Each benchmark wraps one experiment from :mod:`repro.experiments` (E1–E8)
with pytest-benchmark, runs it exactly once (experiments are seconds-long,
deterministic table builders — not micro-benchmarks) and prints the
resulting table so that ``pytest benchmarks/ --benchmark-only -s``
regenerates every row of ``python -m repro.experiments.report``.
"""

from __future__ import annotations

import importlib.metadata
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.utils.perflog import append_perf_entry  # noqa: E402  (needs src on sys.path)

#: Machine-readable perf log, appended to by ``--perf`` runs so the
#: performance trajectory is tracked across PRs.
BENCH_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_results.json"


def _git(*args: str) -> str | None:
    try:
        result = subprocess.run(
            ["git", *args],
            cwd=BENCH_RESULTS_PATH.parent,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return result.stdout.strip()


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def perf_provenance() -> dict:
    """Where a perf entry was measured: commit, host and library versions."""
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "git_sha": commit,
        "git_dirty": None if status is None else bool(status),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


@pytest.fixture
def run_experiment_once(benchmark):
    """A helper that runs an experiment exactly once under pytest-benchmark.

    Experiments are seconds-long deterministic table builders, so one round is
    the meaningful measurement; the resulting table is printed so the bench
    output contains the same rows as the experiment report.
    """

    def _run(runner, **params):
        result = benchmark.pedantic(lambda: runner(**params), rounds=1, iterations=1)
        print()
        print(result.to_text())
        return result

    return _run


@pytest.fixture
def record_perf(request):
    """Append a machine-readable timing entry to ``BENCH_results.json``.

    Only ``--perf`` runs record (the wall-clock comparisons are skipped
    otherwise, so the fixture is effectively perf-gated); each entry carries
    the bench name, the population size, the engine, the measured seconds,
    the speedup over the bench's own baseline, the peak RSS in MB when the
    bench measures one, and enough provenance (python version, timestamp,
    commit, CPU and numpy/scipy versions) to chart the perf trajectory
    across PRs.
    """

    def _record(
        bench: str,
        *,
        n: int,
        engine: str,
        seconds: float,
        speedup: float | None = None,
        baseline_seconds: float | None = None,
        peak_rss_mb: float | None = None,
    ) -> None:
        if not request.config.getoption("--perf"):
            return
        entry = {
            "bench": bench,
            "n": n,
            "engine": engine,
            "seconds": round(seconds, 4),
            "speedup": None if speedup is None else round(speedup, 2),
            "baseline_seconds": (
                None if baseline_seconds is None else round(baseline_seconds, 4)
            ),
            **({} if peak_rss_mb is None else {"peak_rss_mb": round(peak_rss_mb, 2)}),
            "python": platform.python_version(),
            "timestamp": int(time.time()),
            "provenance": perf_provenance(),
        }
        # Atomic append (temp-then-rename): an interrupted run must not
        # destroy the accumulated perf history.
        append_perf_entry(BENCH_RESULTS_PATH, entry)

    return _record
