"""The exact columns of E3 and E6, pinned cell for cell.

The strings were rendered by the whole-matrix float solves the
block-triangular solve replaced; the block solve moves float results in the
last bits at most, so every rendered cell — and every sentinel, "—" for a
chain or solve past its cap and "∞" for a criterion not almost surely
reached — must stay exactly as it was.
"""

import pytest

from repro.experiments.e3_correctness import model_check_rows
from repro.experiments.e6_convergence import exact_expected_cell

#: One cell per (protocol, k, n) of E6's planted-majority rows at n ∈ {8, 12}
#: (the workload colors the sweep resolves, written out), plus the two k = 4
#: adversarial cells that solve to a number.
E6_CELLS = [
    ("circles", 2, [1, 0, 0, 1, 0, 0, 1, 0], "36.9"),
    ("cancellation-plurality", 2, [1, 0, 0, 1, 0, 0, 1, 0], "36.9"),
    ("tournament-plurality", 2, [1, 0, 0, 1, 0, 0, 1, 0], "36.9"),
    ("exact-majority", 2, [1, 0, 0, 1, 0, 0, 1, 0], "36.9"),
    ("approximate-majority", 2, [1, 0, 0, 1, 0, 0, 1, 0], "27.8"),
    ("circles", 2, [0, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0], "103.3"),
    ("cancellation-plurality", 2, [0, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0], "103.3"),
    ("tournament-plurality", 2, [0, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0], "103.3"),
    ("exact-majority", 2, [0, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0], "103.3"),
    ("approximate-majority", 2, [0, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0], "57.9"),
    ("circles", 3, [0, 1, 0, 0, 1, 2, 0, 2], "52.1"),
    ("cancellation-plurality", 3, [0, 1, 0, 0, 1, 2, 0, 2], "∞"),
    ("tournament-plurality", 3, [0, 1, 0, 0, 1, 2, 0, 2], "—"),
    ("circles", 3, [2, 0, 0, 1, 1, 0, 0, 0, 1, 2, 1, 2], "—"),
    ("cancellation-plurality", 3, [2, 0, 0, 1, 1, 0, 0, 0, 1, 2, 1, 2], "∞"),
    ("tournament-plurality", 3, [2, 0, 0, 1, 1, 0, 0, 0, 1, 2, 1, 2], "—"),
    ("circles", 4, [2, 2, 0, 0, 3, 0, 1, 1], "—"),
    ("cancellation-plurality", 4, [2, 2, 0, 0, 3, 0, 1, 1], "∞"),
    ("tournament-plurality", 4, [2, 2, 0, 0, 3, 0, 1, 1], "—"),
    ("circles", 4, [0, 1, 0, 0, 0, 3, 2, 0], "44.0"),
    ("cancellation-plurality", 4, [0, 1, 0, 0, 0, 3, 2, 0], "31.4"),
    ("circles", 4, [1, 0, 1, 0, 3, 2, 2, 3, 1, 0, 0, 2], "—"),
    ("cancellation-plurality", 4, [1, 0, 1, 0, 3, 2, 2, 3, 1, 0, 0, 2], "—"),
    ("tournament-plurality", 4, [1, 0, 1, 0, 3, 2, 2, 3, 1, 0, 0, 2], "—"),
]


@pytest.mark.parametrize("protocol, k, colors, expected", E6_CELLS)
def test_e6_exact_cell_is_pinned(protocol, k, colors, expected):
    assert exact_expected_cell(protocol, k, colors) == expected


def test_e3_model_check_rows_are_pinned():
    rows = model_check_rows([(0, 0, 1), (0, 0, 1, 1, 1), (0, 1, 1, 2), (0, 0, 1, 2, 2, 2)])
    assert rows == [
        ("model-check", "[0, 0, 1]", 2, 3, "1.000000", True),
        ("model-check", "[0, 0, 1, 1, 1]", 2, 11, "1.000000", True),
        ("model-check", "[0, 1, 1, 2]", 3, 26, "1.000000", True),
        ("model-check", "[0, 0, 1, 2, 2, 2]", 3, 160, "1.000000", True),
    ]
