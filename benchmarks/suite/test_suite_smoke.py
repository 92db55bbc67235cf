"""Smoke test of the benchmark suite itself (not part of tier-1).

Run explicitly, from the repository root::

    python3 -m pytest benchmarks/suite/test_suite_smoke.py -q

It uses ``--quick`` sizes and proves the failure accounting: a wrong
simulator digest, a spec that fails pre-flight and a killed ``serve``
each show up as failed operations instead of dropped samples or a crash.
"""

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.require_source()

import run as suite  # noqa: E402
from compare import compare_metric  # noqa: E402
from workloads import WORKLOADS, SimGrid, SvcBurst, gw_small, task_xml  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_meets_the_contract():
    spec = suite.SPEC
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["benchmarks/suite"]
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in (
        spec["end_to_end"]
    )
    names = [
        item["name"]
        for key in ("workloads", "end_to_end", "per_layer") for item in spec[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert len(spec["per_layer"]) <= 128
    assert len(json.dumps(spec)) < 64 * 1024


def test_every_workload_reports_every_end_to_end_metric(capsys):
    for name in WORKLOADS:
        result = suite.run_once(name, seed=3, seconds=0.2, trace=False, quick=True)
        assert result["correct"] and result["failed"] == 0 < result["attempted"], name
        assert set(result["metrics"]) == set(suite.END_TO_END), name
        for metric, reading in result["metrics"].items():
            assert reading["value"] > 0, (name, metric)
            assert reading["unit"] == suite.END_TO_END[metric]["unit"]
    assert not harness.WORK_DIR.exists(), "a run left temp files behind"


def test_traced_pass_reports_every_per_layer_metric(capsys):
    by_workload = {}
    for name in ("sim_grid", "gw_small"):
        result = suite.run_once(name, seed=3, seconds=0.4, trace=True, quick=True)
        assert result["correct"], name
        assert set(result["metrics"]) == set(suite.PER_LAYER), name
        by_workload[name] = {k: v["value"] for k, v in result["metrics"].items()}
        assert (harness.RESULTS_DIR / f"trace-{name}.json").is_file()
    for metric in suite.PER_LAYER:
        touched = [name for name, values in by_workload.items() if values[metric] != 0]
        if metric.startswith(("net.ping", "net.status", "net.submit", "net.terminal",
                              "net.polls", "net.jobs", "net.server", "net.unattr",
                              "self_us_per_op.net", "self_us_per_op.bench.job")):
            assert touched == ["gw_small"], metric
        elif metric in ("self_us_per_op.bench.run", "self_us_per_op.core.make_scheduler",
                        "self_us_per_op.simulation.simulate_run"):
            assert touched == ["sim_grid"], metric
        elif metric.startswith("self_us_per_op.") or metric == "net.rejected":
            assert touched == [], metric
        else:  # a layer probe: the same on whatever workload the pass belongs to
            assert touched == ["sim_grid", "gw_small"], metric
    out = capsys.readouterr().out
    assert "where the p50 job's time goes" in out


def test_wrong_sim_digest_counts_as_failed():
    with SimGrid(1, quick=True, expected_digest="0" * 16) as workload:
        workload.setup()
        attempted, failed = workload.warmup()
    assert attempted == failed == 24


def test_spec_that_fails_preflight_counts_as_failed():
    missing_input = task_xml(200, "simple-1", input_name="missing.bin")
    with SvcBurst(1, quick=True, spec_xml=missing_input) as workload:
        workload.setup()
        block = workload.block()
    assert block.attempted == block.failed == 5 * SvcBurst.BURST
    assert block.ops == 0 and len(block.latencies_s) == 5


def test_killed_serve_counts_as_failed_and_leaves_nothing_behind():
    with gw_small(1, quick=True) as workload:
        workload.setup()
        assert workload.warmup() == (16, 0)
        workload.server.proc.kill()
        workload.server.proc.wait()
        block = workload.block()
        assert block.fatal and block.ops == 0
        assert block.failed == block.attempted == 20
        assert workload.finish() == (1, 1)
        base_dir = workload.base_dir
    assert not base_dir.exists() and not harness.WORK_DIR.exists()
    assert workload.server.proc.poll() is not None


def test_compare_reads_higher_is_better_the_right_way_round():
    def reps(*values):
        ordered = sorted(values)
        return {"median": ordered[len(ordered) // 2], "min": ordered[0],
                "max": ordered[-1], "values": list(values)}

    # the drop that went unnoticed: gateway throughput 358 -> 307 jobs/s
    assert compare_metric(reps(357, 358, 359), reps(306, 307, 308), "higher", 0.05)[0] == (
        "regressed"
    )
    assert compare_metric(reps(306, 307, 308), reps(357, 358, 359), "higher", 0.05)[0] == "ok"
    assert compare_metric(reps(12.4, 12.5, 12.6), reps(13.4, 13.5, 13.6), "lower", 0.05)[0] == (
        "regressed"
    )
    # within the bound, but the repetitions scatter wider than it
    assert compare_metric(reps(90, 100, 110), reps(91, 101, 111), "lower", 0.05)[0] == (
        "unresolved"
    )
    # ... unless every run of B beats every run of A
    assert compare_metric(reps(90, 100, 110), reps(70, 80, 89), "lower", 0.05)[0] == "ok"
