"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid-small-n --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` measures untraced passes for half the time, then one pass with
every layer boundary wrapped (:mod:`perfbench.layers`), and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The run's provenance, samples and layer table go
to ``.perfbench/results/``, and the traced spans to ``.perfbench/spans/``.

The exit code is 0 only when every output passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_RUNS = 5
#: Timings of the reference work per reference measurement.
REFERENCE_LOOPS = 5


#: A tail percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def tail_latency(values: list[float]) -> tuple[float, float]:
    """``(level, value)``: the nearest-rank p95, or the median with too few samples.

    A p95 needs ``TAIL_SAMPLES`` samples beyond it, so it takes 200 requests;
    workloads that time a handful of multi-second passes report their median.
    """
    if len(values) * (1 - 0.95) < TAIL_SAMPLES:
        return 0.5, statistics.median(values)
    ordered = sorted(values)
    return 0.95, ordered[math.ceil(0.95 * len(ordered)) - 1]


def _git(*args: str) -> str | None:
    # The ceiling keeps git from reporting an enclosing repository when the
    # checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, env=env, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


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


def provenance(workload: str, seed: int, seconds: int, trace: int, passes: int) -> dict:
    """Where and on what a result was measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": passes,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": digest.hexdigest(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def measure_setup(workload: str, seed: int, size: str, runs: int) -> list[float]:
    """Seconds from process start until a fresh process could begin a pass."""
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--size", size, "--setup-probe"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = child.communicate(timeout=120)
        if line.strip() != b"ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{err.decode(errors='replace')[-4000:]}")
        samples.append(elapsed)
    return samples


def _run_pass(workload, index: int, tracer=None):
    """One pass and its elapsed time; a pass that raises counts as one failure."""
    from perfbench.workloads import PassResult

    start = time.perf_counter()
    try:
        result = workload.run_pass(index, tracer)
    except Exception:  # noqa: BLE001 - a crashed pass is a failed output, keep measuring
        result = PassResult(0.0, 0, 0, 1, 1, [], 0.0, problems=[traceback.format_exc()])
    return result, time.perf_counter() - start


def _reference_work() -> int:
    """Fixed interpreter work: integer arithmetic and dict stores."""
    total = 0
    table = {}
    for i in range(200_000):
        total += i * i % 7
        table[i & 1023] = total
    return total


def reference() -> float:
    """Seconds the host needs for the reference work right now.

    About 0.05 s on an idle 2-vCPU Xeon VM.  The median of
    ``REFERENCE_LOOPS`` timings, so one preempted loop does not count.
    """
    samples = []
    for _ in range(REFERENCE_LOOPS):
        start = time.perf_counter()
        _reference_work()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def end_to_end(passes, setup_samples: list[float], references: list[float]) -> dict[str, float]:
    """Measured values, and the timings again in units of the reference work.

    ``references[i]`` and ``references[i + 1]`` were taken just before and
    just after pass ``i``; their mean is that pass's reference unit, so a
    host that slows both the pass and the reference work cancels out.
    """
    units = [(before + after) / 2 for before, after in zip(references, references[1:])]
    ok = [(p, unit) for p, unit in zip(passes, units) if p.runs and p.wall_s > 0]
    if not ok:
        raise RuntimeError("every measured pass failed; no metric to report")
    latencies = [value for p, _ in ok for value in p.latencies_s]
    return {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reference_s": statistics.median(references),
        "wall_s": statistics.median(p.wall_s for p, _ in ok),
        "runs_per_s": statistics.median(p.runs / p.wall_s for p, _ in ok),
        "interactions_per_s": statistics.median(p.interactions / p.wall_s for p, _ in ok),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_latency(latencies)[1] * 1e3,
        "wall_ref": statistics.median(p.wall_s / unit for p, unit in ok),
        "runs_per_ref": statistics.median(p.runs / p.wall_s * unit for p, unit in ok),
        "interactions_per_ref": statistics.median(
            p.interactions / p.wall_s * unit for p, unit in ok
        ),
        "latency_p50_ref": statistics.median(
            value / unit for p, unit in ok for value in p.latencies_s
        ),
    }


def per_layer(tracer, traced, traced_elapsed: float, untraced) -> tuple[dict, dict]:
    """Per-layer metrics of the traced pass, and its full layer table."""
    from perfbench.tracing import layer_table

    table, covered = layer_table(tracer)
    counters = tracer.counters

    def total(layer):
        return table.get(layer, {}).get("total_s", 0.0)

    def self_s(layer):
        return table.get(layer, {}).get("self_s", 0.0)

    def calls(layer):
        return table.get(layer, {}).get("calls", 0)

    checks = counters.get("simulation.check_calls", 0)
    kernel_interactions = counters.get("simulation.kernel_interactions", 0)
    attempts = calls("service.queue.attempt")
    metrics = {
        "simulation.burst_s": total("simulation.burst"),
        "simulation.burst_calls": calls("simulation.burst"),
        "simulation.check_s": total("simulation.check"),
        "simulation.check_calls": checks,
        "simulation.check_converged_ratio": (
            counters.get("simulation.check_converged", 0) / checks if checks else 0.0
        ),
        "simulation.kernel_s": total("simulation.kernel"),
        "simulation.kernel_calls": calls("simulation.kernel"),
        "simulation.kernel_interactions": kernel_interactions,
        "simulation.kernel_interactions_per_s": (
            kernel_interactions / total("simulation.kernel") if kernel_interactions else 0.0
        ),
        "simulation.setup_s": total("simulation.setup"),
        "simulation.run_s": total("simulation.run"),
        "workloads.generate_s": total("workloads.generate"),
        "api.executor.group_s": total("api.executor.group"),
        "api.executor.group_self_s": self_s("api.executor.group"),
        "compile.compile_s": total("compile.compile"),
        "compile.compile_calls": calls("compile.compile"),
        "api.spec.expand_s": total("api.spec.expand"),
        "api.spec.sha_s": total("api.spec.sha"),
        "api.spec.sha_calls": calls("api.spec.sha"),
        "api.records.to_dict_s": total("api.records.to_dict"),
        "api.records.from_dict_s": total("api.records.from_dict"),
        "service.store.put_s": total("service.store.put"),
        "service.store.put_calls": calls("service.store.put"),
        "service.store.manifest_save_s": total("service.store.manifest_save"),
        "service.store.manifest_saves": calls("service.store.manifest_save"),
        "service.store.shard_bytes": traced.counts.get("service.store.shard_bytes", 0),
        "service.store.get_s": total("service.store.get"),
        "service.store.get_calls": calls("service.store.get"),
        "service.store.hit_rate": traced.counts.get("service.store.hit_rate", 0.0),
        "service.store.corrupt": traced.counts.get("service.store.corrupt", 0),
        "service.queue.attempts": attempts,
        "service.queue.retries": attempts - counters.get("service.queue.specs", 0),
        "service.queue.failed": counters.get("service.queue.failed", 0),
        "service.serve.self_s": self_s("service.serve"),
        "service.serve.bytes_streamed": traced.counts.get("service.serve.bytes_streamed", 0),
        "exact.chain_s": total("exact.chain"),
        "exact.configurations": traced.counts.get("exact.configurations", 0),
        "exact.orbits": traced.counts.get("exact.orbits", 0),
        "exact.absorption_s": total("exact.absorption"),
        "exact.solve_s": total("exact.solve"),
        "exact.transient_states": traced.counts.get("exact.transient_states", 0),
        "trace.coverage": covered / traced.timed_s if traced.timed_s else 0.0,
        "trace.overhead_s": traced_elapsed - statistics.median(elapsed for _, elapsed in untraced),
    }
    return metrics, table


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: int,
    size: str = "full",
    setup_runs: int = SETUP_RUNS,
) -> dict:
    """Measure one workload; returns the result and everything behind it."""
    from perfbench import layers
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    setup_samples = measure_setup(name, seed, size, setup_runs)
    workload = WORKLOADS[name](seed, size, OUT / "work")
    index = 0
    checked = []
    untraced = []
    references: list[float] = []
    tracer = traced = None
    try:
        workload.setup()
        # An untimed pass lets lazy tables and shard indexes fill first.
        for _ in range(workload.warm_up_passes):
            checked.append(_run_pass(workload, index))
            index += 1
        window = seconds / 2 if trace else seconds
        references.append(reference())
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < window:
            untraced.append(_run_pass(workload, index))
            index += 1
            references.append(reference())
        e2e = end_to_end([p for p, _ in untraced], setup_samples, references)
        if trace:
            tracer = Tracer()
            origin = time.perf_counter()
            layers.install(tracer)
            try:
                traced = _run_pass(workload, index, tracer)
            finally:
                tracer.restore()
            tracer.write(OUT / "spans" / f"{name}.json", origin)
        final = workload.final_check()
    finally:
        workload.close()

    results = checked + untraced + ([traced] if traced else [])
    outcomes = [p for p, _ in results] + ([final] if final else [])
    attempted = sum(p.attempted for p in outcomes)
    failed = sum(p.failed for p in outcomes)
    layer_rows = {}
    if trace:
        values, layer_rows = per_layer(tracer, traced[0], traced[1], untraced)
        section = "per_layer"
    else:
        values, section = e2e, "end_to_end"
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in bench[section]
    }
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "provenance": provenance(name, seed, seconds, trace, len(untraced)),
        "setup_samples_s": setup_samples,
        "reference_samples_s": references,
        "samples": {
            "wall_s": [p.wall_s for p, _ in untraced],
            "pass_elapsed_s": [elapsed for _, elapsed in untraced],
            "latencies": sum(len(p.latencies_s) for p, _ in untraced),
            "tail_level": tail_latency([v for p, _ in untraced for v in p.latencies_s])[0],
            "traced_timed_s": traced[0].timed_s if traced else None,
        },
        "end_to_end": e2e,
        "layers": layer_rows,
        "problems": [problem for p in outcomes for problem in p.problems],
    }


def report(run: dict) -> None:
    """Print the human-readable summary."""
    result = run["result"]
    info = run["provenance"]
    print(
        f"perfbench {info['workload']} seed={info['seed']} trace={info['trace']} "
        f"passes={info['passes']} git={info['git_sha'] or 'n/a'}"
        f"{'+dirty' if info['git_dirty'] else ''} src={info['source_sha256'][:12]}"
    )
    print(
        f"  host: {info['cpu']}, nproc={info['nproc']}, python {info['python']}, "
        f"numpy {info['numpy']}, scipy {info['scipy']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    samples = run["samples"]
    e2e = run["end_to_end"]
    print(
        f"  measured: wall {e2e['wall_s']:.4g} s, {e2e['runs_per_s']:.4g} runs/s, "
        f"{e2e['interactions_per_s']:.4g} interactions/s, latency p50 "
        f"{e2e['latency_p50_ms']:.4g} ms, p{samples['tail_level'] * 100:.0f} "
        f"{e2e['latency_tail_ms']:.4g} ms, reference {e2e['reference_s']:.4g} s"
    )
    print(
        f"  samples: {len(samples['wall_s'])} passes, {samples['latencies']} requests, "
        f"{len(run['reference_samples_s'])} references, setup x{len(run['setup_samples_s'])}"
    )
    rate = result["failed"] / result["attempted"]
    print(f"  error_rate: {result['failed']}/{result['attempted']} = {rate:.4g}")
    if run["layers"]:
        rows = sorted(run["layers"].items(), key=lambda item: -item[1]["total_s"])
        wall = run["samples"]["traced_timed_s"]
        print(f"  {'layer':32s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} {'share':>7s}")
        for layer, row in rows:
            print(
                f"  {layer:32s} {row['calls']:9d} {row['total_s']:10.4f} "
                f"{row['self_s']:10.4f} {row['total_s'] / wall:7.1%}"
            )
    for problem in run["problems"][:10]:
        print(f"  FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.setup_probe:
        workload = WORKLOADS[args.workload](args.seed, args.size, OUT / "work")
        try:
            workload.setup()
            print("ready", flush=True)
        finally:
            workload.close()
        return 0
    run = run_benchmark(args.workload, args.seed, args.seconds, args.trace, args.size)
    report(run)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(run, indent=1) + "\n")
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
