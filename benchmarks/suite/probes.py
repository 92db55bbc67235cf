"""Single-threaded layer probes of the traced pass.

Each probe calls one public function of one layer many times on the
inputs the workloads use and reports the cost per call, so a layer has a
number of its own beside the end-to-end ones.  Layer = module name.
Probes are the same whatever workload the traced pass belongs to.
"""

from __future__ import annotations

import io
import json
import time
from pathlib import Path
from statistics import median

from harness import workdir
from workloads import (
    SMALL_LOAD_BYTES,
    SMALL_XML,
    STORE_SPEC,
    TOTAL_LOAD,
    SimGrid,
    StoreMix,
    SvcBurst,
    task_xml,
)

from repro.apst.daemon import APSTDaemon, DaemonConfig
from repro.apst.division import LoadTracker, UniformBytesDivision
from repro.apst.preflight import preflight_check
from repro.apst.xmlspec import build_division, parse_task, task_to_xml
from repro.core.base import SchedulerConfig
from repro.core.registry import PAPER_ALGORITHMS, make_scheduler
from repro.net.protocol import parse_frame, write_frame
from repro.obs import EngineProfiler, Observability
from repro.platform.presets import das2_cluster
from repro.service import MultiJobService
from repro.simulation import SimulationEngine, SimulationOptions, simulate_run
from repro.store import MemoryStore, SqliteStore
from repro.theory.models import report_replay_makespan

HEAVY_XML = task_xml(stepsize=1, algorithm="rumr", input_name="heavy.bin")


def per_call_us(call, calls: int, batches: int = 5) -> float:
    """Median over ``batches`` of the mean cost of ``calls`` calls, in us."""
    means = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        means.append((time.perf_counter() - start) / calls)
    return median(means) * 1e6


def _noop() -> None:
    pass


def probe_inputs(base: Path, n: int) -> dict[str, float]:
    """platform, apst.xmlspec, apst.preflight, apst.division, net.protocol."""
    task = parse_task(SMALL_XML)
    heavy = parse_task(HEAVY_XML)
    grid = das2_cluster(4, total_load=float(SMALL_LOAD_BYTES))
    frame = {"verb": "submit", "id": 1, "spec": SMALL_XML, "tenant": "default",
             "priority": 0, "weight": 1.0, "arrival": 0.0}
    line = json.dumps(frame).encode() + b"\n"

    def take_all() -> None:
        tracker = LoadTracker(UniformBytesDivision(base / "heavy.bin", stepsize=1))
        while not tracker.exhausted:
            tracker.take(100.0)

    return {
        "platform.build_us": per_call_us(lambda: das2_cluster(16), n),
        "apst.xmlspec.parse_us": per_call_us(lambda: parse_task(SMALL_XML), 5 * n),
        "apst.xmlspec.to_xml_us": per_call_us(lambda: task_to_xml(task), 5 * n),
        "apst.preflight.check_us": per_call_us(
            lambda: preflight_check(task, grid, base_dir=base), 5 * n
        ),
        "apst.division.build_us": per_call_us(
            lambda: build_division(heavy.divisibility, base), 5 * n
        ),
        "apst.division.take_us_per_chunk": per_call_us(take_all, n // 4) / 100,
        "net.protocol.parse_frame_us": per_call_us(lambda: parse_frame(line), 20 * n),
        "net.protocol.write_frame_us": per_call_us(
            lambda: write_frame(io.BytesIO(), frame), 20 * n
        ),
    }


def probe_daemon_and_service(base: Path, n: int) -> dict[str, float]:
    """apst.daemon and service on the small job, memory store, in process."""
    grid = das2_cluster(4, total_load=float(SMALL_LOAD_BYTES))
    config = DaemonConfig(base_dir=base, seed=1)
    daemon_submit, daemon_run, service_submit, service_run = [], [], [], []
    for _ in range(5):
        daemon = APSTDaemon(grid, config=config)
        t0 = time.perf_counter()
        for _ in range(n):
            daemon.submit(SMALL_XML)
        t1 = time.perf_counter()
        daemon.run_pending()
        t2 = time.perf_counter()
        daemon_submit.append((t1 - t0) / n)
        daemon_run.append((t2 - t1) / n)

        service = MultiJobService(APSTDaemon(grid, config=config), policy="fair-share")
        submit_s = run_s = 0.0
        bursts = max(1, n // SvcBurst.BURST)
        for _ in range(bursts):
            t0 = time.perf_counter()
            for index in range(SvcBurst.BURST):
                service.submit(SMALL_XML, tenant=f"tenant-{index % 4}", priority=index % 2)
            t1 = time.perf_counter()
            service.run()
            submit_s += t1 - t0
            run_s += time.perf_counter() - t1
        service_submit.append(submit_s / (bursts * SvcBurst.BURST))
        service_run.append(run_s / (bursts * SvcBurst.BURST))
    division = UniformBytesDivision(base / "load.bin", stepsize=200)
    bare_us = per_call_us(
        lambda: simulate_run(
            grid, make_scheduler("simple-1"), float(SMALL_LOAD_BYTES),
            division=division, seed=1,
        ),
        n,
    )
    submit_us, run_us = median(service_submit) * 1e6, median(service_run) * 1e6
    return {
        "apst.daemon.submit_us": median(daemon_submit) * 1e6,
        "apst.daemon.run_us_per_job": median(daemon_run) * 1e6,
        "service.submit_us": submit_us,
        "service.run_us_per_job": run_us,
        "service.overhead_us_per_job": submit_us + run_us - bare_us,
    }


def probe_simulation(n: int) -> dict[str, float]:
    """core, simulation, dispatch, theory, obs on DAS-2 16 and the sweep."""
    grid = das2_cluster(16)
    out: dict[str, float] = {}
    estimates = list(grid.workers)
    for name in ("umr", "rumr", "wf"):
        out[f"core.plan_us.{name}"] = per_call_us(
            lambda: make_scheduler(name).configure(
                SchedulerConfig(estimates=estimates, total_load=TOTAL_LOAD)
            ),
            max(1, n // 10),
        )

    def raw_events() -> float:
        engine = SimulationEngine()
        start = time.perf_counter()
        for index in range(10_000):
            engine.schedule(float(index), _noop)
        engine.run()
        return 10_000 / (time.perf_counter() - start)

    out["simulation.engine.raw_events_per_s"] = median(raw_events() for _ in range(5))

    worst_replay_error = 0.0
    for name in PAPER_ALGORITHMS:
        times = []
        for _ in range(max(3, n // 20)):
            start = time.perf_counter()
            report = simulate_run(
                grid, make_scheduler(name), TOTAL_LOAD, gamma=0.1, seed=1
            )
            times.append(time.perf_counter() - start)
        profiled = Observability(profiler=EngineProfiler())
        simulate_run(
            grid, make_scheduler(name), TOTAL_LOAD, gamma=0.1, seed=1,
            options=SimulationOptions(observability=profiled),
        )
        out[f"simulation.run_ms.{name}"] = median(times) * 1e3
        out[f"simulation.chunks_per_run.{name}"] = float(report.num_chunks)
        out[f"simulation.events_per_run.{name}"] = float(
            profiled.profiler.report().events_processed
        )
        exact = simulate_run(grid, make_scheduler(name), TOTAL_LOAD, seed=1)
        replay = report_replay_makespan(grid, exact)
        worst_replay_error = max(
            worst_replay_error, abs(replay - exact.makespan) / exact.makespan
        )
        if name == "umr":
            out["theory.replay_us"] = per_call_us(
                lambda: report_replay_makespan(grid, exact), n
            )
    out["theory.replay_max_rel_err"] = worst_replay_error

    # one sweep with the program's own EngineProfiler armed, one without:
    # the phase split inside dispatch + simulation, and what arming costs
    sweep = SimGrid(seed=1)
    sweep.setup()

    def sweep_seconds(observability) -> float:
        start = time.perf_counter()
        sweep.sweep(1, SimulationOptions(observability=observability))
        return time.perf_counter() - start

    armed_s, disabled_s = [], []
    for _ in range(3):
        disabled_s.append(sweep_seconds(None))
        observability = Observability.armed()
        armed_s.append(sweep_seconds(observability))
    phases = observability.profiler.report().phases
    for key, phase in (
        ("probe", "probe"), ("scheduler_plan", "scheduler.plan"),
        ("engine_run", "engine.run"), ("next_dispatch", "scheduler.next_dispatch"),
    ):
        out[f"dispatch.phase_share.{key}"] = phases[phase].seconds / armed_s[-1]
    out["obs.armed_ratio"] = min(armed_s) / min(disabled_s)
    return out


def probe_store(base: Path, n: int) -> dict[str, float]:
    """Both store backends, per operation, filling then draining ``rows`` rows."""
    rows = 10 * n
    out: dict[str, float] = {}

    def timed(call, count: int) -> float:
        start = time.perf_counter()
        call()
        return (time.perf_counter() - start) / count * 1e6

    for backend in ("memory", "sqlite"):
        path = base / "probe.db"
        store = MemoryStore() if backend == "memory" else SqliteStore(path)
        claimed: list = []

        def claim_all() -> None:
            while batch := store.claim("probe", lease_s=60.0, limit=StoreMix.BATCH):
                claimed.extend(batch)

        def transition_all() -> None:
            for job in claimed:
                store.transition(job.job_id, "running", expect=("queued",), owner="probe")
                store.transition(
                    job.job_id, "done", expect=("running",), owner="probe",
                    makespan=0.0, chunks=1,
                )

        try:
            prefix = f"store.{backend}"
            out[f"{prefix}.insert_us"] = timed(
                lambda: [
                    store.insert_job(spec_xml=STORE_SPEC, algorithm="umr")
                    for _ in range(rows)
                ],
                rows,
            )
            out[f"{prefix}.claim_us_per_job"] = timed(claim_all, rows)
            out[f"{prefix}.transition_us"] = timed(transition_all, 2 * rows)
            out[f"{prefix}.get_job_us"] = timed(
                lambda: [store.get_job(job.job_id) for job in claimed], rows
            )
            out[f"{prefix}.counts_us"] = per_call_us(store.counts, max(1, n // 10))
            out[f"{prefix}.list_queued_us"] = per_call_us(
                lambda: store.list_jobs("queued"), max(1, n // 10)
            )
            if backend == "sqlite":
                size = sum(f.stat().st_size for f in base.glob("probe.db*"))
                out["store.sqlite.bytes_per_job"] = size / rows
        finally:
            store.close()

    # two claimers on one file against one: what waiting on the write lock costs
    mix = StoreMix(seed=1)
    with mix:
        mix.setup()
        ratios = []
        for _ in range(3):
            one = mix.rounds(max(2, n // 7), claimers=1)
            two = mix.rounds(max(2, n // 7), claimers=2)
            ratios.append((two.ops / two.wall_s) / (one.ops / one.wall_s))
        out["store.sqlite.contention_ratio"] = median(ratios)
    return out


def run_probes(quick: bool) -> dict[str, float]:
    """Every probe, on a temp dir that holds the two input files."""
    n = 20 if quick else 200
    with workdir() as base:
        (base / "load.bin").write_bytes(bytes(SMALL_LOAD_BYTES))
        (base / "heavy.bin").write_bytes(bytes(int(TOTAL_LOAD)))
        out = probe_inputs(base, n)
        out.update(probe_daemon_and_service(base, n))
        out.update(probe_simulation(n))
        out.update(probe_store(base, n))
    return out
