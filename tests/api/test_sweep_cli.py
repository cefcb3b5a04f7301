"""Tests for the ``python -m repro.api.sweep`` CLI."""

import json

import pytest

from repro.api.records import SweepResult
from repro.api.spec import SweepSpec
from repro.api.sweep import main


def _write_spec(tmp_path, **overrides):
    sweep = SweepSpec(
        name="cli-sweep",
        protocols=("circles", "cancellation-plurality"),
        populations=(8,),
        ks=(3,),
        engines=("batch",),
        trials=2,
        seed=17,
        max_steps_quadratic=200,
        **overrides,
    )
    path = tmp_path / "spec.json"
    path.write_text(sweep.to_json(indent=2), encoding="utf-8")
    return path, sweep


class TestSweepCli:
    def test_prints_aggregate_table(self, tmp_path, capsys):
        path, sweep = _write_spec(tmp_path)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "circles" in out
        assert "cancellation-plurality" in out
        assert "mean_steps" in out
        assert f"{len(sweep)} runs" in out

    def test_writes_lossless_result_json(self, tmp_path, capsys):
        path, sweep = _write_spec(tmp_path)
        output = tmp_path / "result.json"
        assert main([str(path), "-o", str(output)]) == 0
        restored = SweepResult.from_json(output.read_text(encoding="utf-8"))
        assert restored.spec == sweep
        assert len(restored.records) == len(sweep)
        assert str(output) in capsys.readouterr().out

    def test_workers_flag_matches_serial(self, tmp_path):
        path, _ = _write_spec(tmp_path)
        serial_out = tmp_path / "serial.json"
        parallel_out = tmp_path / "parallel.json"
        assert main([str(path), "-o", str(serial_out)]) == 0
        assert main([str(path), "-o", str(parallel_out), "--workers", "2"]) == 0
        serial = json.loads(serial_out.read_text(encoding="utf-8"))
        parallel = json.loads(parallel_out.read_text(encoding="utf-8"))
        assert serial["records"] == parallel["records"]

    def test_custom_grouping_and_stats(self, tmp_path, capsys):
        path, _ = _write_spec(tmp_path)
        assert main([str(path), "--group", "protocol", "--value", "steps",
                     "--stats", "mean", "q90"]) == 0
        out = capsys.readouterr().out
        assert "q90_steps" in out

    def test_hand_written_json_spec(self, tmp_path, capsys):
        # The documented minimal spelling: bare names, no params.
        path = tmp_path / "hand.json"
        path.write_text(
            json.dumps(
                {
                    "protocols": ["circles"],
                    "populations": [8],
                    "ks": [2],
                    "engines": ["batch"],
                    "trials": 1,
                    "seed": 5,
                    "max_steps_quadratic": 200,
                }
            ),
            encoding="utf-8",
        )
        assert main([str(path)]) == 0
        assert "circles" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--trials", "x"], "expected a positive integer, got 'x'"),
            (["--trials", "0"], "expected a positive integer, got '0'"),
            (["--workers", "0"], "expected a positive integer, got '0'"),
            (["--executor", "nope"], "unknown executor 'nope'"),
        ],
    )
    def test_bad_arguments_are_usage_errors(self, tmp_path, capsys, argv, message):
        path, _ = _write_spec(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main([str(path), *argv])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage:") and message in captured.err
        assert captured.out == ""
