"""The re-pin evidence script's payload classifier, on synthetic payload pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "pin_evidence.py"
_SPEC = importlib.util.spec_from_file_location("pin_evidence", _PATH)
pin_evidence = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pin_evidence)
classify = pin_evidence.classify

RECORD = {
    "spec": {"protocol": "circles", "n": 8, "seed": 3, "observers": [["energy", {}]]},
    "steps": 40,
    "extras": {},
}


@pytest.mark.parametrize(
    "parent, child, verdict",
    [
        (RECORD, dict(RECORD), "same"),
        ("a table\n", "a table\n", "same"),
        ([1, 2.5, None], [1, 2.5, None], "same"),
        # A key one side lacks, at any depth, in either direction.
        ({**RECORD, "engine": "agent"}, RECORD, "differs only by keys engine"),
        (RECORD, {**RECORD, "engine": "agent"}, "differs only by keys engine"),
        (
            [{**RECORD, "spec": {**RECORD["spec"], "runner": "protocol"}, "seed": 3}],
            [RECORD],
            "differs only by keys runner, seed",
        ),
        # A changed value is a difference even beside a dropped key.
        ({**RECORD, "steps": 41, "seed": 3}, RECORD, "differs"),
        ({**RECORD, "spec": {**RECORD["spec"], "n": 9}}, RECORD, "differs"),
        # Lists must agree in length and element by element.
        ([RECORD, RECORD], [RECORD], "differs"),
        ([1, 2], [2, 1], "differs"),
        # Types count: 1 and 1.0, or True and 1, are not the same payload.
        ({"x": 1}, {"x": 1.0}, "differs"),
        ({"x": True}, {"x": 1}, "differs"),
        ("a table\n", "another table\n", "differs"),
        (
            {"sha256": "ab", "bytes": 10},
            {"sha256": "cd", "bytes": 10},
            "differs",
        ),
        # A dict against a list (or a scalar) differs outright.
        ({"a": 1}, [1], "differs"),
        ({"a": {}}, {"a": None}, "differs"),
    ],
)
def test_classify(parent, child, verdict):
    assert classify(parent, child) == verdict


def test_report_tallies_each_table():
    parent = {
        "GOLDEN_SWEEP_SHA": {"payload": {"seed": 1, "runner": "protocol"}, "digest": "a", "pinned": "a"},
        "PINNED[x]": {"payload": {"sha256": "s", "bytes": 1}, "digest": "d", "pinned": "d"},
        "PINNED[y]": {"payload": {"sha256": "t", "bytes": 1}, "digest": "e", "pinned": "e"},
    }
    child = {
        "GOLDEN_SWEEP_SHA": {"payload": {"seed": 1}, "digest": "b", "pinned": "a"},
        "PINNED[x]": {"payload": {"sha256": "s", "bytes": 1}, "digest": "d", "pinned": "d"},
        "PINNED[y]": {"payload": {"sha256": "u", "bytes": 1}, "digest": "f", "pinned": "e"},
    }
    lines = pin_evidence.report(parent, child)
    assert lines[0].startswith(
        "GOLDEN_SWEEP_SHA: differs only by keys runner (parent pin holds, child pin stale"
    )
    assert lines[1].startswith("PINNED[x]: same (parent pin holds, child pin holds")
    assert lines[2].startswith("PINNED[y]: differs (")
    assert lines[3:] == [
        "== GOLDEN_SWEEP_SHA: 1 pins: 1 differs only by keys runner",
        "== PINNED: 2 pins: 1 differs; 1 same",
    ]
