"""The benchmark-trajectory regression gate (benchmarks/_trajectory.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "_trajectory.py"
_spec = importlib.util.spec_from_file_location("_trajectory", _PATH)
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)


def bench_file(tmp_path, metric, values):
    path = tmp_path / "BENCH_x.json"
    records = [
        {"commit": f"c{i}", "date": "2026-01-01", "headline": {metric: value}}
        for i, value in enumerate(values)
    ]
    path.write_text(json.dumps({"benchmark": "x", "latest": {}, "trajectory": records}))
    return path


class TestCheck:
    def test_lower_is_better_fails_on_a_rise(self, tmp_path):
        path = bench_file(tmp_path, "p99_s", [0.10, 0.12, 0.11, 0.15])
        ok, message = trajectory.check(path, "p99_s", factor=1.25)
        assert not ok and "rose x1.364" in message  # 0.15 / median 0.11
        assert trajectory.check(path, "p99_s", factor=1.5)[0]

    def test_lower_is_better_ignores_a_fall(self, tmp_path):
        path = bench_file(tmp_path, "p99_s", [0.10, 0.12, 0.11, 0.01])
        assert trajectory.check(path, "p99_s", factor=1.25)[0]

    def test_higher_is_better_fails_on_a_fall(self, tmp_path):
        path = bench_file(tmp_path, "jobs_per_s", [350.0, 360.0, 340.0, 270.0])
        ok, message = trajectory.check(
            path, "jobs_per_s", factor=1.25, higher_is_better=True
        )
        assert not ok and "fell x1.296" in message  # median 350 / 270
        # exactly median / factor still passes: newest >= median / factor
        edge = bench_file(tmp_path, "jobs_per_s", [350.0, 360.0, 340.0, 280.0])
        assert trajectory.check(edge, "jobs_per_s", factor=1.25, higher_is_better=True)[0]

    def test_higher_is_better_ignores_a_rise(self, tmp_path):
        path = bench_file(tmp_path, "jobs_per_s", [350.0, 360.0, 340.0, 900.0])
        assert trajectory.check(path, "jobs_per_s", higher_is_better=True)[0]
        # ...which the lower-is-better reading of the same file would fail
        assert not trajectory.check(path, "jobs_per_s")[0]

    def test_throughput_dropping_to_zero_fails(self, tmp_path):
        path = bench_file(tmp_path, "jobs_per_s", [350.0, 0.0])
        assert not trajectory.check(path, "jobs_per_s", higher_is_better=True)[0]

    def test_single_record_has_nothing_to_compare(self, tmp_path):
        path = bench_file(tmp_path, "jobs_per_s", [350.0])
        assert trajectory.check(path, "jobs_per_s", higher_is_better=True)[0]


class TestCommandLine:
    @pytest.mark.parametrize(
        ("flags", "code"), [(["--higher-is-better"], 1), ([], 0)]
    )
    def test_exit_code_follows_direction(self, tmp_path, capsys, flags, code):
        path = bench_file(tmp_path, "jobs_per_s", [358.0, 200.0])
        argv = ["check", str(path), "jobs_per_s", "--factor", "1.25", *flags]
        assert trajectory.main(argv) == code
        out = capsys.readouterr().out
        assert out.startswith("REGRESSION " if code else "OK ")
