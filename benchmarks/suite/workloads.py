"""The six workloads of the reference benchmark.

Every workload does its work in fixed-size *blocks*: a block is the same
number and mix of operations on every run of every commit, so two sides
of a comparison do identical work per block; a run measures as many
blocks as fit in ``--seconds``.  All loops are closed: each caller waits
for its reply before it sends the next request (that is how
``GatewayClient``, ``APSTClient`` and ``apst-dv submit --wait`` behave),
from one load-generating process with at most 2 threads / 2 connections.

The program under test only ever sees generated inputs; ``seed`` drives
simulator seeds (``sim_grid``), tenant order (``svc_burst``) and which
job ids the readers look up (``store_mix``).
"""

from __future__ import annotations

import hashlib
import random
import resource
import sqlite3
import threading
import time
from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from statistics import median

from harness import Block, NullRecorder, ServeProcess, workdir

from repro.apst.daemon import APSTDaemon, DaemonConfig, JobState
from repro.apst.xmlspec import platform_to_xml
from repro.core.registry import PAPER_ALGORITHMS, make_scheduler
from repro.errors import ReproError
from repro.net import GatewayClient, GatewayError
from repro.platform.presets import das2_cluster, mixed_grid
from repro.service import MultiJobService
from repro.simulation import simulate_run
from repro.store import TERMINAL_STATES, SqliteStore, StoreError, tenant_shard
from repro.theory.models import report_replay_makespan

#: sha256 prefix over the reference sweep's (platform, algorithm, gamma,
#: makespan to 12 significant digits, chunk count): a simulator speed-up
#: must leave every simulated statistic identical.
SIM_DIGEST = "40b0312272be92c0"


def task_xml(stepsize: int, algorithm: str, input_name: str = "load.bin") -> str:
    return (
        f'<task executable="bench" input="{input_name}">'
        f'<divisibility input="{input_name}" method="uniform" start="0" '
        f'steptype="bytes" stepsize="{stepsize}" algorithm="{algorithm}"/></task>'
    )


class Workload:
    """Setup, a fixed warm-up, then blocks; ``close`` on every exit path."""

    name = ""

    def __init__(self, seed: int, *, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        #: swapped for a real Recorder during the traced pass
        self.rec = NullRecorder()
        self._cleanup = ExitStack()

    def __enter__(self) -> "Workload":
        return self

    def __exit__(self, *exc) -> None:
        self._cleanup.close()

    def sized(self, count: int) -> int:
        """``--quick`` runs a tenth of every count."""
        return max(1, count // 10) if self.quick else count

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> tuple[int, int]:
        """Fixed warm-up work; returns (attempted, failed)."""
        raise NotImplementedError

    def block(self) -> Block:
        raise NotImplementedError

    def finish(self) -> tuple[int, int]:
        """End-of-run checks; returns (attempted, failed)."""
        return 0, 0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def trace_begin(self) -> None:
        """Called once, after warm-up, before the traced blocks."""

    def layer_metrics(self, blocks: list[Block]) -> dict[str, float]:
        """Per-layer numbers only this workload's traced blocks can give."""
        return {}


# -- sim_grid -------------------------------------------------------------------

GAMMAS = (0.0, 0.1)
TOTAL_LOAD = 10_000.0
#: the warm-up sweep is the same on every --seed, so the digest is too
REFERENCE_SIM_SEED = 1


class SimGrid(Workload):
    """The paper's figure grid: six algorithms x gamma x two platforms."""

    name = "sim_grid"
    SWEEPS_PER_BLOCK = 4

    def __init__(self, seed, *, quick=False, expected_digest: str = SIM_DIGEST) -> None:
        super().__init__(seed, quick=quick)
        self._expected_digest = expected_digest
        self._sweeps = 0

    def setup(self) -> None:
        self.grids = {"das2": das2_cluster(16), "mixed": mixed_grid()}

    def sweep(self, sim_seed: int, options=None) -> list[tuple]:
        """24 runs -> (platform, algorithm, gamma, report, seconds) each."""
        rec = self.rec
        runs = []
        for platform, grid in self.grids.items():
            for gamma in GAMMAS:
                for algorithm in PAPER_ALGORITHMS:
                    trace = rec.new_trace()
                    start = time.perf_counter()
                    with rec.span("bench.run", trace):
                        with rec.span("core.make_scheduler", trace):
                            scheduler = make_scheduler(algorithm)
                        with rec.span("simulation.simulate_run", trace):
                            report = simulate_run(
                                grid, scheduler, TOTAL_LOAD, gamma=gamma,
                                seed=sim_seed, options=options,
                            )
                    runs.append(
                        (platform, algorithm, gamma, report, time.perf_counter() - start)
                    )
        return runs

    def incorrect(self, runs: list[tuple]) -> int:
        """Runs that lose load or, at gamma = 0, disagree with the replay."""
        bad = 0
        for platform, _algorithm, gamma, report, _seconds in runs:
            units = sum(chunk.units for chunk in report.chunks)
            ok = abs(units - TOTAL_LOAD) <= 1e-9 * TOTAL_LOAD
            if ok and gamma == 0.0:
                replay = report_replay_makespan(self.grids[platform], report)
                ok = abs(replay - report.makespan) <= 1e-9 * report.makespan
            bad += not ok
        return bad

    @staticmethod
    def digest(runs: list[tuple]) -> str:
        lines = [
            f"{platform} {algorithm} {gamma} {report.makespan:.12g} {report.num_chunks}"
            for platform, algorithm, gamma, report, _seconds in runs
        ]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]

    def warmup(self) -> tuple[int, int]:
        runs = self.sweep(REFERENCE_SIM_SEED)
        self.reference_digest = self.digest(runs)
        if self.reference_digest != self._expected_digest:
            return len(runs), len(runs)
        return len(runs), self.incorrect(runs)

    def block(self) -> Block:
        runs = []
        cpu0, start = time.process_time(), time.perf_counter()
        for _ in range(self.sized(self.SWEEPS_PER_BLOCK)):
            self._sweeps += 1
            runs += self.sweep((self.seed << 20) + self._sweeps)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        failed = self.incorrect(runs)
        return Block(
            ops=len(runs) - failed, wall_s=wall, cpu_s=cpu,
            latencies_s=[run[4] for run in runs], attempted=len(runs), failed=failed,
        )


# -- svc_burst --------------------------------------------------------------------

SMALL_LOAD_BYTES = 400
SMALL_XML = task_xml(stepsize=200, algorithm="simple-1")


class SvcBurst(Workload):
    """Saturated in-process service path: bursts of submit() then run()."""

    name = "svc_burst"
    BURSTS_PER_BLOCK = 50
    BURST = 32
    TENANTS = 4
    #: a 2-chunk spec; 32 jobs sharing 4 workers hold one worker lease each
    EXPECTED_CHUNKS = 1

    def __init__(self, seed, *, quick=False, spec_xml: str = SMALL_XML) -> None:
        super().__init__(seed, quick=quick)
        self._spec = spec_xml
        self._rng = random.Random(seed)

    def setup(self) -> None:
        self.base_dir = self._cleanup.enter_context(workdir())
        (self.base_dir / "load.bin").write_bytes(bytes(SMALL_LOAD_BYTES))
        self.grid = das2_cluster(4, total_load=float(SMALL_LOAD_BYTES))

    def _bursts(self, count: int) -> Block:
        """A fresh daemon + service, ``count`` bursts, then the checks."""
        rec = self.rec
        daemon = APSTDaemon(
            self.grid, config=DaemonConfig(base_dir=self.base_dir, seed=1)
        )
        service = MultiJobService(daemon, policy="fair-share")
        tenants = [
            [f"tenant-{self._rng.randrange(self.TENANTS)}" for _ in range(self.BURST)]
            for _ in range(count)
        ]
        job_ids, latencies = [], []
        cpu0, start = time.process_time(), time.perf_counter()
        for burst in tenants:
            trace = rec.new_trace()
            burst_start = time.perf_counter()
            with rec.span("bench.burst", trace):
                for index, tenant in enumerate(burst):
                    try:
                        with rec.span("service.submit", trace):
                            job_ids.append(service.submit(
                                self._spec, tenant=tenant, priority=index % 2
                            ))
                    except ReproError:
                        pass  # refused: it never gets a job id, so it is not done
                with rec.span("service.run", trace):
                    service.run()
            latencies.append(time.perf_counter() - burst_start)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        done = 0
        for job_id in job_ids:
            job = daemon.job(job_id)
            done += (
                job.state is JobState.DONE
                and job.report is not None
                and job.report.num_chunks == self.EXPECTED_CHUNKS
            )
        attempted = count * self.BURST
        if daemon.stats()["total"] != len(job_ids):
            done = 0  # the store lost or invented jobs: nothing is trusted
        return Block(
            ops=done, wall_s=wall, cpu_s=cpu, latencies_s=latencies,
            attempted=attempted, failed=attempted - done,
        )

    def warmup(self) -> tuple[int, int]:
        block = self._bursts(4)
        return block.attempted, block.failed

    def block(self) -> Block:
        return self._bursts(self.sized(self.BURSTS_PER_BLOCK))


# -- gw_small / gw_heavy / gw_durable -------------------------------------------------

POLL_S = 0.001
JOB_TIMEOUT_S = 30.0
_TERMINAL = frozenset({"done", "failed", "cancelled"})


class _ClientOutcome:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.acks: list[float] = []
        self.waits: list[float] = []
        self.polls = 0
        self.submitted = 0
        self.done = 0
        self.fatal = False


class Gateway(Workload):
    """``serve`` as a subprocess, default GatewayConfig, 2 polling clients."""

    CLIENTS = 2
    WARMUP_JOBS_PER_CLIENT = 8

    def __init__(
        self, seed, *, quick=False, name: str, nodes: int, load_bytes: int,
        stepsize: int, algorithm: str, jobs_per_client: int,
        expected_chunks: frozenset, durable: bool = False,
    ) -> None:
        super().__init__(seed, quick=quick)
        self.name = name
        self._nodes = nodes
        self._load_bytes = load_bytes
        self.spec = task_xml(stepsize, algorithm)
        self._jobs_per_client = jobs_per_client
        self._expected_chunks = expected_chunks
        self._durable = durable
        self._submitted = 0
        self._outcomes: list[_ClientOutcome] = []

    def setup(self) -> None:
        self.base_dir = self._cleanup.enter_context(workdir())
        (self.base_dir / "load.bin").write_bytes(bytes(self._load_bytes))
        platform_xml = self.base_dir / "platform.xml"
        self.grid = das2_cluster(self._nodes, total_load=float(self._load_bytes))
        platform_xml.write_text(platform_to_xml(self.grid))
        store = self.base_dir / "jobs.db" if self._durable else None
        self.server = ServeProcess(self.base_dir, platform_xml, store)
        self._cleanup.callback(self.server.stop)
        self.clients = []
        for _ in range(self.CLIENTS):
            client = GatewayClient(
                self.server.host, self.server.port, timeout_s=10.0, max_retries=4
            )
            self._cleanup.callback(client.close)
            client.connect()
            self.clients.append(client)

    def _one_job(self, client: GatewayClient, out: _ClientOutcome) -> None:
        rec = self.rec
        trace = rec.new_trace()
        start = time.perf_counter()
        with rec.span("bench.job", trace):
            with rec.span("net.client.submit", trace):
                job_id = client.submit(self.spec)
            out.submitted += 1
            acked = time.perf_counter()
            while True:
                with rec.span("net.client.status", trace):
                    (job,) = client.status(job_id)
                out.polls += 1
                if job["state"] in _TERMINAL:
                    break
                if time.perf_counter() - start > JOB_TIMEOUT_S:
                    return  # counted as failed: it never reached a terminal state
                time.sleep(POLL_S)
        end = time.perf_counter()
        if job["state"] == "done" and job.get("chunks") in self._expected_chunks:
            out.done += 1
            out.latencies.append(end - start)
            out.acks.append(acked - start)
            out.waits.append(end - acked)

    def _client_jobs(self, client: GatewayClient, count: int, out: _ClientOutcome) -> None:
        for _ in range(count):
            try:
                self._one_job(client, out)
            except GatewayError as exc:
                if exc.code == "unreachable":
                    out.fatal = True  # the server is gone: the rest are refused
                    return

    def _drive(self, jobs_per_client: int) -> Block:
        outcomes = [_ClientOutcome() for _ in self.clients]
        threads = [
            threading.Thread(target=self._client_jobs, args=(client, jobs_per_client, out))
            for client, out in zip(self.clients, outcomes)
        ]
        cpu0, start = self.server.cpu_seconds(), time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        cpu = self.server.cpu_seconds() - cpu0
        self._outcomes += outcomes
        self._submitted += sum(out.submitted for out in outcomes)
        attempted = jobs_per_client * len(self.clients)
        done = sum(out.done for out in outcomes)
        return Block(
            ops=done, wall_s=wall, cpu_s=cpu,
            latencies_s=[s for out in outcomes for s in out.latencies],
            attempted=attempted, failed=attempted - done,
            fatal=any(out.fatal for out in outcomes),
        )

    def warmup(self) -> tuple[int, int]:
        block = self._drive(self.WARMUP_JOBS_PER_CLIENT)
        self._outcomes.clear()
        return block.attempted, block.failed

    def block(self) -> Block:
        return self._drive(self.sized(self._jobs_per_client))

    def server_stats(self) -> dict:
        return self.clients[0].server_stats()

    def finish(self) -> tuple[int, int]:
        """Every admitted job is accounted for in the server's own stats."""
        try:
            stats = self.server_stats()
        except GatewayError:
            return 1, 1
        return 1, int(stats["total"] != self._submitted or stats["done"] != self._submitted)

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    # -- traced pass only ---------------------------------------------------------
    def idle_rtt_us(self, verb: str, samples: int = 200) -> float:
        """p50 round trip of a read-only verb against the idle server."""
        client = self.clients[0]
        call = client.ping if verb == "ping" else (lambda: client.status(1))
        times = []
        for _ in range(samples):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        return median(times) * 1e6

    def trace_begin(self) -> None:
        self._outcomes.clear()
        self._stats_at_trace_begin = self.server_stats()
        self.ping_rtt_us = self.idle_rtt_us("ping")
        self.status_rtt_us = self.idle_rtt_us("status")

    def _in_process_job_ms(self, samples: int = 20) -> tuple[float, float, float]:
        """The same job without the gateway: p50 (submit, run, bare simulation) ms."""
        daemon = APSTDaemon(
            self.grid, config=DaemonConfig(base_dir=self.base_dir, seed=1)
        )
        service = MultiJobService(daemon, policy="fair-share")
        submits, runs, sims = [], [], []
        for _ in range(samples):
            t0 = time.perf_counter()
            job_id = service.submit(self.spec)
            t1 = time.perf_counter()
            service.run()
            t2 = time.perf_counter()
            prepared = daemon.prepare(job_id)
            t3 = time.perf_counter()
            simulate_run(
                self.grid, prepared.scheduler_factory(), prepared.division.total_units,
                division=prepared.division, seed=1,
            )
            sims.append(time.perf_counter() - t3)
            submits.append(t1 - t0)
            runs.append(t2 - t1)
        return median(submits) * 1e3, median(runs) * 1e3, median(sims) * 1e3

    def layer_metrics(self, blocks: list[Block]) -> dict[str, float]:
        before, after = self._stats_at_trace_begin, self.server_stats()
        outs = self._outcomes
        done = sum(out.done for out in outs)
        batches = after["batches"] - before["batches"]
        job_p50_ms = median([s for o in outs for s in o.latencies]) * 1e3
        submit_ms, run_ms, sim_ms = self._in_process_job_ms()
        ping_ms = self.ping_rtt_us / 1e3
        unattributed_ms = job_p50_ms - ping_ms - submit_ms - run_ms
        #: where the p50 job's time goes, as far as the outside can tell
        self.budget = [
            ("job p50 (submit -> terminal status)", job_p50_ms),
            ("  ping round trip, idle server", ping_ms),
            ("  service.submit of this spec, in process", submit_ms),
            ("  service.run of this job alone, in process", run_ms),
            ("    of which bare simulate_run", sim_ms),
            ("  unattributed (batch window, poll quantum, queueing)", unattributed_ms),
        ]
        return {
            "net.ping_rtt_us": self.ping_rtt_us,
            "net.status_rtt_us": self.status_rtt_us,
            "net.submit_ack_p50_ms": median([s for o in outs for s in o.acks]) * 1e3,
            "net.terminal_wait_p50_ms": median([s for o in outs for s in o.waits]) * 1e3,
            "net.polls_per_job": sum(o.polls for o in outs) / max(1, done),
            "net.jobs_per_batch": (after["done"] - before["done"]) / max(1, batches),
            "net.rejected": float(after["rejected"]),
            "net.server_idle_share": (
                1.0 - sum(b.cpu_s for b in blocks) / sum(b.wall_s for b in blocks)
            ),
            "net.unattributed_p50_ms": unattributed_ms,
        }


def gw_small(seed, *, quick=False, durable: bool = False) -> Gateway:
    return Gateway(
        seed, quick=quick, name="gw_durable" if durable else "gw_small", nodes=2,
        load_bytes=SMALL_LOAD_BYTES, stepsize=200, algorithm="simple-1",
        jobs_per_client=100,
        # the runner batches the two clients' jobs: one worker lease (1 chunk)
        # each when they share a batch, both workers (2 chunks) when alone
        expected_chunks=frozenset({1, 2}), durable=durable,
    )


def gw_durable(seed, *, quick=False) -> Gateway:
    return gw_small(seed, quick=quick, durable=True)


def gw_heavy(seed, *, quick=False) -> Gateway:
    return Gateway(
        seed, quick=quick, name="gw_heavy", nodes=16, load_bytes=int(TOTAL_LOAD),
        stepsize=1, algorithm="rumr", jobs_per_client=30,
        # RUMR over 10 000 units: 112 chunks on all 16 nodes, 40 on the 8
        # a job holds when two share a batch
        expected_chunks=frozenset({112, 40}),
    )


# -- store_mix ------------------------------------------------------------------------

STORE_SPEC = task_xml(stepsize=10, algorithm="umr")


def shard_tenants(shards: int) -> list[str]:
    """One tenant name per shard index, as a sharded deployment has."""
    found: dict[int, str] = {}
    candidate = 0
    while len(found) < shards:
        tenant = f"tenant-{candidate}"
        found.setdefault(tenant_shard(tenant, shards), tenant)
        candidate += 1
    return [found[index] for index in range(shards)]


class _ClaimerOutcome:
    def __init__(self) -> None:
        self.cycles = 0
        self.reads: list[float] = []


class StoreMix(Workload):
    """Two claimers on one SQLite file: contended writes beside reads."""

    name = "store_mix"
    ROUNDS_PER_BLOCK = 100
    BATCH = 16
    READS = 8
    CLAIMERS = 2

    def setup(self) -> None:
        self.base_dir = self._cleanup.enter_context(workdir())
        self._blocks = 0

    def _rounds(self, store, index: int, shards: int, rounds: int,
                out: _ClaimerOutcome) -> None:
        """``rounds`` x (16 inserts, claim, running/done per job, 10 reads)."""
        rec = self.rec
        owner = f"claimer-{index}"
        tenant = shard_tenants(shards)[index]
        rng = random.Random(f"{self.seed}/{self._blocks}/{index}")

        def timed_read(name: str, call) -> None:
            start = time.perf_counter()
            with rec.span(f"store.sqlite.{name}", trace):
                call()
            out.reads.append(time.perf_counter() - start)

        for _ in range(rounds):
            trace = rec.new_trace()
            with rec.span("bench.round", trace):
                job_ids = []
                for _ in range(self.BATCH):
                    with rec.span("store.sqlite.insert_job", trace):
                        job_ids.append(store.insert_job(
                            spec_xml=STORE_SPEC, algorithm="umr", tenant=tenant
                        ).job_id)
                with rec.span("store.sqlite.claim", trace):
                    claimed = store.claim(
                        owner, lease_s=60.0, limit=self.BATCH,
                        shard_index=index, shard_count=shards,
                    )
                for job in claimed:
                    with rec.span("store.sqlite.transition", trace):
                        store.transition(
                            job.job_id, "running", expect=("queued",), owner=owner
                        )
                    with rec.span("store.sqlite.transition", trace):
                        store.transition(
                            job.job_id, "done", expect=("running",), owner=owner,
                            makespan=0.0, chunks=1,
                        )
                out.cycles += len(claimed)
                for job_id in rng.sample(job_ids, self.READS):
                    timed_read("get_job", lambda: store.get_job(job_id))
                timed_read("counts", store.counts)
                timed_read("list_jobs", lambda: store.list_jobs("queued"))

    def _claimer(self, path: Path, index: int, shards: int, rounds: int,
                 out: _ClaimerOutcome) -> None:
        store = SqliteStore(path)
        try:
            self._rounds(store, index, shards, rounds, out)
        except (StoreError, sqlite3.Error):
            pass  # what it never finished is counted as failed by the caller
        finally:
            store.close()

    def rounds(self, rounds: int, claimers: int = CLAIMERS) -> Block:
        """A fresh database file, ``claimers`` threads, then the audit checks."""
        self._blocks += 1
        path = self.base_dir / f"block-{self._blocks}.db"
        SqliteStore(path).close()  # schema exists before the claimers race
        outcomes = [_ClaimerOutcome() for _ in range(claimers)]
        threads = [
            threading.Thread(
                target=self._claimer, args=(path, index, claimers, rounds, out)
            )
            for index, out in enumerate(outcomes)
        ]
        cpu0, start = time.process_time(), time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        audit = SqliteStore(path)
        try:
            self.db_bytes = sum(
                f.stat().st_size for f in self.base_dir.glob(f"{path.name}*")
            )
            done = audit.counts()["done"]
            claims = Counter(record.job_id for record in audit.claim_audit())
            terminal = Counter(
                record.job_id for record in audit.transitions()
                if record.to_state in TERMINAL_STATES
            )
        finally:
            audit.close()
        for leftover in self.base_dir.glob(f"{path.name}*"):
            leftover.unlink()
        exactly_once = sum(
            1 for job_id, count in claims.items()
            if count == 1 and terminal[job_id] == 1
        )
        cycles = claimers * rounds * self.BATCH
        reads = claimers * rounds * (self.READS + 2)
        correct_cycles = min(done, exactly_once, sum(out.cycles for out in outcomes))
        good_reads = sum(len(out.reads) for out in outcomes)
        return Block(
            ops=correct_cycles, wall_s=wall, cpu_s=cpu,
            latencies_s=[s for out in outcomes for s in out.reads],
            attempted=cycles + reads,
            failed=(cycles - correct_cycles) + (reads - good_reads),
        )

    def warmup(self) -> tuple[int, int]:
        block = self.rounds(10)
        return block.attempted, block.failed

    def block(self) -> Block:
        return self.rounds(self.sized(self.ROUNDS_PER_BLOCK))


WORKLOADS = {
    "sim_grid": SimGrid,
    "svc_burst": SvcBurst,
    "gw_small": gw_small,
    "gw_heavy": gw_heavy,
    "gw_durable": gw_durable,
    "store_mix": StoreMix,
}
