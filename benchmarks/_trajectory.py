"""Benchmark trajectories: headline numbers tracked across commits.

The ``BENCH_*.json`` files the benches commit used to hold only the
latest run, so a slow regression (each commit 5 % worse than the last)
never showed.  This module normalizes them into one shape::

    {
      "benchmark": "net_gateway",
      "latest": { ... full results of the newest run ... },
      "trajectory": [
        {"commit": "6a2eda7", "date": "2026-08-07",
         "headline": {"submit_p99_s": 0.18, ...}},
        ...
      ]
    }

``trajectory`` is append-only (newest last, capped) and carries only
small, comparable headline numbers; ``latest`` keeps the newest run's
full detail.  Legacy flat files are migrated on first append: the old
dict becomes ``latest`` with an unattributed trajectory entry.

``check()`` is the CI regression gate: the newest record's headline
metric must not exceed ``factor`` times the median of the earlier
records (latencies, overhead ratios), or -- with ``--higher-is-better``
(throughputs) -- must not fall below that median divided by ``factor``.
Run it as a script::

    python benchmarks/_trajectory.py check BENCH_net_gateway.json \
        submit_p99_s --factor 1.25
    python benchmarks/_trajectory.py check BENCH_net_gateway.json \
        throughput_jobs_per_s --factor 1.25 --higher-is-better
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: Bounded history: enough to see a trend, small enough to diff.
MAX_RECORDS = 50


def _current_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).parent,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def load(path: str | Path) -> dict:
    """Read a BENCH file, migrating the legacy flat-dict layout."""
    path = Path(path)
    if not path.exists():
        return {"benchmark": path.stem.replace("BENCH_", ""),
                "latest": {}, "trajectory": []}
    data = json.loads(path.read_text())
    if "trajectory" in data:
        return data
    # legacy: the file is one run's result dict; keep it as an
    # unattributed first record so the history starts somewhere
    return {
        "benchmark": path.stem.replace("BENCH_", ""),
        "latest": data,
        "trajectory": [{"commit": "unknown", "date": "unknown",
                        "headline": _legacy_headline(data)}],
    }


def _legacy_headline(results: dict) -> dict:
    """Best-effort headline for a pre-trajectory gateway results dict."""
    headline = {}
    if "throughput_jobs_per_s" in results:
        headline["throughput_jobs_per_s"] = results["throughput_jobs_per_s"]
    latency = results.get("submit_latency_s")
    if isinstance(latency, dict):
        for key in ("p50", "p99"):
            if key in latency:
                headline[f"submit_{key}_s"] = latency[key]
    return headline


def append(path: str | Path, headline: dict, *, latest: dict | None = None) -> dict:
    """Append one run's record and rewrite the BENCH file.

    ``headline`` is the small dict of comparable numbers; ``latest``
    (default: the headline itself) is the full result detail to keep
    for the newest run only.
    """
    path = Path(path)
    data = load(path)
    data["latest"] = latest if latest is not None else dict(headline)
    data["trajectory"].append({
        "commit": _current_commit(),
        "date": datetime.date.today().isoformat(),
        "headline": dict(headline),
    })
    data["trajectory"] = data["trajectory"][-MAX_RECORDS:]
    path.write_text(json.dumps(data, indent=2) + "\n")
    return data


def check(
    path: str | Path, metric: str, *, factor: float = 1.25, higher_is_better: bool = False
) -> tuple[bool, str]:
    """Gate the newest record against the history.

    Passes when the file has fewer than two records carrying ``metric``
    (nothing to compare), or when the newest value is at most ``factor``
    times the median of the earlier ones -- for a ``higher_is_better``
    metric, at least that median divided by ``factor``.
    """
    data = load(path)
    values = [
        record["headline"][metric]
        for record in data["trajectory"]
        if metric in record.get("headline", {})
    ]
    if len(values) < 2:
        return True, f"{metric}: {len(values)} record(s), nothing to compare"
    baseline = statistics.median(values[:-1])
    newest = values[-1]
    # the ratio is > 1 when the metric moved the wrong way
    over, under = (baseline, newest) if higher_is_better else (newest, baseline)
    ratio = over / under if under > 0 else float("inf")
    message = (
        f"{metric}: latest {newest:.4g} vs baseline median {baseline:.4g} "
        f"({'fell' if higher_is_better else 'rose'} x{ratio:.3f}, gate x{factor})"
    )
    return ratio <= factor, message


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    gate = sub.add_parser("check", help="fail when the newest record regressed")
    gate.add_argument("file", help="BENCH_*.json path")
    gate.add_argument("metric", help="headline key to compare")
    gate.add_argument("--factor", type=float, default=1.25,
                      help="allowed ratio to the baseline median (default 1.25)")
    gate.add_argument("--higher-is-better", action="store_true",
                      help="the metric is a throughput: fail when it fell, not rose")
    args = parser.parse_args(argv)
    ok, message = check(
        args.file, args.metric, factor=args.factor,
        higher_is_better=args.higher_is_better,
    )
    print(("OK " if ok else "REGRESSION ") + message)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
