"""Compare two sets of benchmark results: the parent commit's and a change's.

Usage, from the root of a checkout::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files ``perfbench/run.py`` writes to
``.perfbench/results/`` (copy them aside between the two commits).  Runs of a
workload pair up by seed.  For every workload and end-to-end metric the
command prints both medians and quartiles, the share of pairs the change
wins (ties count for neither side), and a verdict under the metric's bound
in ``BENCHMARK.json``:

* ``improved`` — the change wins at least nine tenths of the pairs and its
  median beats the parent's by more than the parent's own quartile spread;
* ``unresolved`` — the parent's runs spread wider than the bound, and not
  every change run beats every parent run;
* ``worse`` — the change's median is worse than the parent's by more than
  the bound;
* ``no worse`` — otherwise.

Per-layer metrics of traced runs are listed as medians, without a verdict.
The exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[tuple[str, int], dict[int, dict[str, float]]]:
    """``(workload, trace) -> seed -> metric -> value`` for every result file."""
    runs: dict[tuple[str, int], dict[int, dict[str, float]]] = {}
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text())
        info = data["provenance"]
        values = {name: m["value"] for name, m in data["result"]["metrics"].items()}
        runs.setdefault((info["workload"], info["trace"]), {})[info["seed"]] = values
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(
    parent: list[float], change: list[float], pairs: list[tuple[float, float]], better: str, bound: float
) -> tuple[str, float]:
    """The verdict for one metric and the change's pair win rate."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    p_low, p_median, p_high = quartiles(parent)
    c_median = statistics.median(change)
    gain = sign * (c_median - p_median)
    if win_rate >= 0.9 and gain > p_high - p_low:
        return "improved", win_rate
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (p_high - p_low) / abs(p_median) > bound and not all_better:
        return "unresolved", win_rate
    if -gain / abs(p_median) > bound:
        return "worse", win_rate
    return "no worse", win_rate


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/compare.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument("parent", type=Path, help="result files of the parent commit")
    parser.add_argument("change", type=Path, help="result files of the change")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    any_worse = False
    header = (
        f"{'workload':20s} {'metric':22s} {'parent q1/med/q3':>32s} "
        f"{'change q1/med/q3':>32s} {'wins':>5s}  verdict"
    )
    print(header)
    for workload in bench["workloads"]:
        key = (workload["name"], 0)
        if key not in parent or key not in change:
            continue
        p_runs, c_runs = parent[key], change[key]
        seeds = sorted(set(p_runs) & set(c_runs))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p_values = [run[name] for run in p_runs.values()]
            c_values = [run[name] for run in c_runs.values()]
            pairs = [(p_runs[s][name], c_runs[s][name]) for s in seeds]
            outcome, win_rate = verdict(
                p_values, c_values, pairs, metric["better"], metric["bound"]
            )
            any_worse |= outcome == "worse"
            p_q, c_q = quartiles(p_values), quartiles(c_values)
            print(
                f"{workload['name']:20s} {name:22s} "
                f"{' / '.join(f'{v:.4g}' for v in p_q):>32s} "
                f"{' / '.join(f'{v:.4g}' for v in c_q):>32s} {win_rate:5.0%}  {outcome}"
                f"  (n={len(p_values)}/{len(c_values)}, pairs={len(pairs)})"
            )
    for workload in bench["workloads"]:
        key = (workload["name"], 1)
        if key not in parent or key not in change:
            continue
        print(f"\nper-layer medians, {workload['name']} (parent -> change)")
        for metric in bench["per_layer"]:
            name = metric["name"]
            p_median = statistics.median(run[name] for run in parent[key].values())
            c_median = statistics.median(run[name] for run in change[key].values())
            if p_median or c_median:
                print(f"  {name:40s} {p_median:14.6g} -> {c_median:14.6g} {metric['unit']}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
