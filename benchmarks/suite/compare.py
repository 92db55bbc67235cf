"""``--compare A.json B.json``: B against A under BENCHMARK.json's bounds.

One row per (workload, end-to-end metric):

* ``regressed``  -- B's median is worse than A's by more than the bound
  (worse = lower for a ``"better": "higher"`` metric, higher otherwise),
  or B's failed share rose at all;
* ``unresolved`` -- not regressed, but the min..max of either side's
  repetitions is wider than the bound, so "unchanged" cannot be told
  from "changed" (unless every B run reads better than every A run);
* ``ok``         -- neither.

Exit code 1 on any regressed row.
"""

from __future__ import annotations

import json
from pathlib import Path


def _worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (< 0: better)."""
    return (a - b) / a if better == "higher" else (b - a) / a


def compare_metric(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    worse = _worsening(a["median"], b["median"], better)
    if worse > bound:
        return "regressed", worse
    spread = max(
        (side["max"] - side["min"]) / side["median"] for side in (a, b)
    )
    if better == "higher":
        b_wins_every_run = min(b["values"]) > max(a["values"])
    else:
        b_wins_every_run = max(b["values"]) < min(a["values"])
    if spread > bound and not b_wins_every_run:
        return "unresolved", worse
    return "ok", worse


def compare_files(path_a: str, path_b: str, spec: dict) -> int:
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    counts = {"ok": 0, "regressed": 0, "unresolved": 0}
    print(f"{'workload':11s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a or workload not in b:
            continue
        for metric in spec["end_to_end"]:
            ma = a[workload]["metrics"][metric["name"]]
            mb = b[workload]["metrics"][metric["name"]]
            verdict, worse = compare_metric(ma, mb, metric["better"], metric["bound"])
            counts[verdict] += 1
            print(f"{workload:11s} {metric['name']:18s} {ma['median']:12.6g} "
                  f"{mb['median']:12.6g} {worse:+9.1%} {metric['bound']:6.0%}  {verdict}")
        share_a = a[workload]["failed"] / a[workload]["attempted"]
        share_b = b[workload]["failed"] / b[workload]["attempted"]
        verdict = "regressed" if share_b > share_a else "ok"
        counts[verdict] += 1
        print(f"{workload:11s} {'failed_share':18s} {share_a:12.6g} {share_b:12.6g} "
              f"{'':>9s} {'0%':>6s}  {verdict}")
    print(", ".join(f"{n} {verdict}" for verdict, n in counts.items()))
    return 1 if counts["regressed"] else 0
