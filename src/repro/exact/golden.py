"""Golden-reference generation for the exact engine.

The files under ``tests/golden/`` pin exact absorption probabilities,
expected interactions to convergence and correctness probabilities for the
circles-family protocols at small ``(k, n)``, computed in exact rational
arithmetic.  ``tests/integration/test_exact_golden.py`` recomputes them on
every run, in float mode and in exact rationals, and fails on any
drift — a regression net over the whole exact pipeline *and* the δ-tables
underneath it.

Regenerate after an intentional semantic change with::

    PYTHONPATH=src python -m repro.exact.golden tests/golden

Each golden file is the :meth:`~repro.exact.result.DistributionResult.to_dict`
payload of one exact run, wrapped with the case description (protocol, k,
colors) and the regeneration command.

Cases are chosen so the reachable chains stay small (≲200 transient
configurations).  Every case is re-solved in exact rationals on every run;
the pure-python solve is block-triangular over the chain's strongly
connected components, so the whole rational suite takes under a second.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import repro  # noqa: F401  (populates the protocol registry)
from repro.core.circles import CirclesProtocol
from repro.exact.engine import ExactMarkovEngine
from repro.protocols.registry import get_protocol
from repro.simulation.convergence import (
    ConvergenceCriterion,
    SilentConfiguration,
    StableCircles,
)

#: The pinned cases: ``(protocol registry name, k, colors)``.
#:
#: The all-tie ``circles k=2 n=6`` case pins the *quotiented* pipeline: its
#: input has a nontrivial color-symmetry stabilizer (the color swap, order
#: 2), so the default engine folds the chain by orbits and lifts the results
#: — the golden file stores unquotiented semantics with ``num_orbits`` set.
GOLDEN_CASES: tuple[tuple[str, int, tuple[int, ...]], ...] = (
    ("circles", 2, (0, 0, 1)),
    ("circles", 2, (0, 0, 0, 1, 1)),
    ("circles", 2, (0, 0, 0, 1, 1, 1)),
    ("circles", 3, (0, 1, 1, 2, 2)),
    ("circles", 3, (0, 1, 1, 2, 2, 2)),
    ("circles-unordered", 2, (0, 0, 1)),
    ("circles-tie-report", 2, (0, 0, 0, 1, 1)),
    ("circles-tie-report", 3, (0, 1, 1, 2, 2)),
)

#: The regeneration command documented in every golden file.
REGENERATE = "PYTHONPATH=src python -m repro.exact.golden tests/golden"


def case_criterion(protocol_name: str) -> ConvergenceCriterion:
    """The convergence criterion whose hitting time a case pins.

    Plain Circles uses the paper's :class:`StableCircles`; the extension
    protocols (different state types) use the universally sound
    :class:`SilentConfiguration`.
    """
    protocol = get_protocol(protocol_name, 2)
    if isinstance(protocol, CirclesProtocol):
        return StableCircles()
    return SilentConfiguration()


def case_filename(protocol_name: str, k: int, colors: tuple[int, ...]) -> str:
    """The golden file name of one case."""
    return f"{protocol_name}_k{k}_n{len(colors)}.json"


def golden_payload(
    protocol_name: str, k: int, colors: tuple[int, ...], arithmetic: str = "exact"
) -> dict:
    """Compute one case's golden payload (exact rationals by default)."""
    protocol = get_protocol(protocol_name, k)
    engine = ExactMarkovEngine.from_colors(protocol, colors, arithmetic=arithmetic)
    engine.run(0, criterion=case_criterion(protocol_name))
    assert engine.distribution_result is not None
    return {
        "regenerate": REGENERATE,
        "protocol": protocol_name,
        "k": k,
        "colors": list(colors),
        **engine.distribution_result.to_dict(),
    }


def write_golden_files(output_dir: Path) -> list[Path]:
    """Write every golden case into ``output_dir``; returns the paths."""
    output_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for protocol_name, k, colors in GOLDEN_CASES:
        payload = golden_payload(protocol_name, k, colors)
        path = output_dir / case_filename(protocol_name, k, colors)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exact.golden",
        description="Regenerate the exact-engine golden files.",
    )
    parser.add_argument(
        "output_dir",
        type=Path,
        help="directory to write the golden JSON files into (tests/golden)",
    )
    args = parser.parse_args(argv)
    for path in write_golden_files(args.output_dir):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    raise SystemExit(main())
