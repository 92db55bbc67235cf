"""The reference benchmark: six workloads, end-to-end and per-layer metrics.

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1
        one run of one workload in this process; the last line of stdout is
        the JSON result (BENCHMARK.json says which metrics each mode prints)
    python3 benchmarks/suite/run.py [--workload W]... [--reps 3] [--trace] [--out F]
        every (or the named) workload, each repetition in a fresh child
        process; prints median [min .. max] per metric and writes F
    python3 benchmarks/suite/run.py --compare A.json B.json
        applies BENCHMARK.json's bounds to two result files

See README.md beside this file for what every name means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from harness import (
    REPO_ROOT,
    RESULTS_DIR,
    Recorder,
    percentile,
    require_source,
)

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: fresh child processes that set up, warm up and stop; setup_s is their median
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0
CHILD_STOP_TIMEOUT_S = 15.0


def measure(workload, seconds: float) -> list:
    """Blocks until ``seconds`` have passed (always at least one block)."""
    deadline = time.perf_counter() + seconds
    blocks = []
    while True:
        blocks.append(workload.block())
        if blocks[-1].fatal or time.perf_counter() >= deadline:
            return blocks


def throughput(blocks: list) -> float:
    """Median over blocks of correct operations per wall second."""
    return median([block.ops / block.wall_s for block in blocks])


def cpu_ms_per_op(blocks: list) -> float:
    """Median over blocks of CPU milliseconds per correct operation.

    The median, not the run's total: a neighbour on the shared host or a
    full collection in ``serve`` inflates a block or two of a run, and the
    total would carry that into the result.
    """
    per_block = [block.cpu_s / block.ops * 1e3 for block in blocks if block.ops]
    return median(per_block) if per_block else 0.0


def run_child(args: list[str]) -> list[str]:
    """stdout lines of a child ``run.py``.

    On every exit path the child is reaped; an interrupted parent asks it
    to stop with SIGTERM first, so the child stops its own ``serve``.
    """
    cmd = [sys.executable, __file__, *args]
    with subprocess.Popen(
        cmd, cwd=REPO_ROOT, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as child:
        try:
            out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            child.terminate()
            try:
                child.wait(CHILD_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
            raise
    if child.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} produced no result:\n{err}")
    return out.splitlines()


def setup_probe(name: str, seed: int, quick: bool) -> float:
    """Seconds from spawning a fresh interpreter to the end of its warm-up."""
    spawned_at = time.time()
    lines = run_child(["--setup-probe", "--workload", name, "--seed", str(seed)]
                      + (["--quick"] if quick else []))
    return json.loads(lines[-1])["ready_at"] - spawned_at


def run_setup_probe(name: str, seed: int, quick: bool) -> int:
    from workloads import WORKLOADS

    with WORKLOADS[name](seed, quick=quick) as workload:
        workload.setup()
        workload.warmup()
        ready_at = time.time()
    print(json.dumps({"ready_at": ready_at}))
    return 0


def run_once(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One run of one workload; returns the contract's result object."""
    from workloads import WORKLOADS

    setups = []
    if not trace:
        setups = [
            setup_probe(name, seed, quick) for _ in range(1 if quick else SETUP_PROBES)
        ]
    recorder = None
    with WORKLOADS[name](seed, quick=quick) as workload:
        workload.setup()
        attempted, failed = workload.warmup()
        blocks = measure(workload, seconds / 2 if trace else seconds)
        traced = []
        if trace and not blocks[-1].fatal:
            workload.rec = recorder = Recorder()
            workload.trace_begin()
            traced = measure(workload, seconds / 2)
            layer = workload.layer_metrics(traced)
        checks, check_failures = workload.finish()
        rss_mb = workload.peak_rss_mb()
        budget = getattr(workload, "budget", None)
    for block in blocks + traced:
        attempted += block.attempted
        failed += block.failed
    attempted += checks
    failed += check_failures

    if trace:
        from probes import run_probes

        values = dict.fromkeys(PER_LAYER, 0.0)  # a layer the workload never enters
        values.update(run_probes(quick))
        if traced:
            ops = sum(block.ops for block in traced)
            values.update(layer)
            for span, (_calls, self_s) in recorder.self_seconds().items():
                values[f"self_us_per_op.{span}"] = self_s / max(1, ops) * 1e6
            values["bench.trace_overhead_ratio"] = throughput(blocks) / throughput(traced)
            recorder.write_chrome_trace(RESULTS_DIR / f"trace-{name}.json")
        unknown = set(values) - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        spec = PER_LAYER
        notes = {"bench.trace_overhead_ratio": f"{len(blocks)}/{len(traced)} blocks"}
    else:
        latencies = [s for block in blocks for s in block.latencies_s]
        ops = sum(block.ops for block in blocks)
        values = {
            "setup_s": median(setups),
            "throughput_per_s": throughput(blocks),
            "latency_p50_ms": percentile(latencies, 0.50) * 1e3 if latencies else 0.0,
            "latency_p95_ms": percentile(latencies, 0.95) * 1e3 if latencies else 0.0,
            "cpu_ms_per_op": cpu_ms_per_op(blocks),
            "peak_rss_mb": rss_mb,
        }
        spec = END_TO_END
        notes = {
            "setup_s": f"n={len(setups)} fresh processes",
            "throughput_per_s": f"n={len(blocks)} blocks, {ops} ops",
            "latency_p50_ms": f"n={len(latencies)}",
            "latency_p95_ms": f"n={len(latencies)}",
            "cpu_ms_per_op": f"n={len(blocks)} blocks",
        }

    print(f"== {name} seed={seed} seconds={seconds:g} trace={int(trace)}"
          f"{' quick' if quick else ''}")
    for metric, value in values.items():
        print(f"{metric:44s} {value:14.6g} {spec[metric]['unit']:6s} {notes.get(metric, '')}")
    if budget:
        print(f"-- {name}: where the p50 job's time goes (ms)")
        for label, ms in budget:
            print(f"{label:56s} {ms:9.3f}")
    print(f"attempted={attempted} failed={failed} "
          f"failed_share={failed / max(1, attempted):.6g}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": spec[metric]["unit"]}
            for metric, value in values.items()
        },
    }


# -- the whole suite: repetitions in fresh child processes --------------------------

def child_run(name: str, seed: int, seconds: float, trace: bool, quick: bool):
    """(human-readable lines, result object) of one run in a fresh process."""
    *lines, last = run_child(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))] + (["--quick"] if quick else [])
    )
    return lines, json.loads(last)


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_suite(names, reps, seed, seconds, trace, quick, out_path) -> int:
    from workloads import SIM_DIGEST

    results = {}
    for name in names:
        runs = [child_run(name, seed, seconds, False, quick)[1] for _ in range(reps)]
        metrics = {}
        for metric, spec in END_TO_END.items():
            values = [run["metrics"][metric]["value"] for run in runs]
            metrics[metric] = {
                "unit": spec["unit"], "median": median(values),
                "min": min(values), "max": max(values), "values": values,
            }
        entry = {
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "correct": all(run["correct"] for run in runs),
            "metrics": metrics,
        }
        print(f"== {name}: median [min .. max] of {reps} runs, "
              f"failed_share={entry['failed'] / entry['attempted']:.6g}")
        for metric, m in metrics.items():
            print(f"{metric:20s} {m['median']:12.6g} "
                  f"[{m['min']:.6g} .. {m['max']:.6g}] {m['unit']}")
        if trace:
            lines, traced = child_run(name, seed, seconds, True, quick)
            print("\n".join(lines))
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["correct"] = entry["correct"] and traced["correct"]
        results[name] = entry
    summary = {
        "meta": {
            "command": SPEC["command"], "seed": seed, "seconds": seconds,
            "reps": reps, "quick": quick, "commit": git_commit(),
            "sim_digest": SIM_DIGEST,
            "python": platform.python_version(),
            "sqlite": sqlite3.sqlite_version, "nproc": os.cpu_count(),
            "machine": platform.platform(),
        },
        "workloads": results,
        "claim": None,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out_path}")
    return 0 if all(entry["correct"] for entry in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: run_seconds of "
                             "BENCHMARK.json; 1 with --quick)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="1: traced pass, prints the per-layer metrics")
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions per workload; runs the suite (default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of every count, for the smoke test")
    parser.add_argument("--out", default=str(RESULTS_DIR / "suite.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare, SPEC)
    require_source()
    # a terminated run still unwinds: serve is stopped, temp dirs are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if len(os.sched_getaffinity(0)) < 2:
        print("the benchmark needs 2 cores: 2 load threads beside the server",
              file=sys.stderr)
        return 2
    seconds = args.seconds or (1.0 if args.quick else float(SPEC["run_seconds"]))
    names = args.workload or WORKLOAD_NAMES
    if args.setup_probe:
        return run_setup_probe(names[0], args.seed, args.quick)
    if len(names) == 1 and args.reps is None:
        result = run_once(names[0], args.seed, seconds, bool(args.trace), args.quick)
        print(json.dumps(result))
        return 0
    return run_suite(names, args.reps or 3, args.seed, seconds, bool(args.trace),
                     args.quick, Path(args.out))


if __name__ == "__main__":
    raise SystemExit(main())
