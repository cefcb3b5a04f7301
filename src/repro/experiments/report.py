"""Generate the full experiment report (all of E1–E8) as Markdown.

Usage::

    python -m repro.experiments.report                 # print to stdout
    python -m repro.experiments.report -o out.md       # write to a file
    python -m repro.experiments.report E2 E6           # a subset of experiments
    python -m repro.experiments.report out.md          # legacy: positional .md path

The report runs every registered experiment with its default (laptop-scale)
parameters and renders each result section as a Markdown table (the README's
*Experiment reports* section lists the commands), so regenerating the measured numbers after a code change is a single
command.
"""

from __future__ import annotations

import argparse
from collections.abc import Iterable

from repro.experiments.harness import ExperimentResult, experiment_catalog, get_experiment


def generate_report(experiment_ids: Iterable[str] | None = None) -> str:
    """Run the selected experiments (all by default) and return a Markdown report."""
    ids = list(experiment_ids) if experiment_ids is not None else experiment_catalog()
    sections: list[str] = ["# Experiment report", ""]
    for experiment_id in ids:
        result: ExperimentResult = get_experiment(experiment_id)()
        sections.append(result.to_markdown())
        sections.append("")
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.report",
        description="Run registered experiments and render a Markdown report.",
    )
    parser.add_argument(
        "ids",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment identifiers (e.g. E2 E6); all registered experiments by default",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    args = parser.parse_args(argv)
    ids = list(args.ids)
    output_path = args.output
    # Legacy spelling kept working: a leading positional "out.md" is the output.
    if output_path is None and ids and ids[0].endswith(".md"):
        output_path = ids.pop(0)
    report = generate_report(ids or None)
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {output_path}")
    else:
        print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    raise SystemExit(main())
