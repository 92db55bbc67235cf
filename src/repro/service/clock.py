"""The service clock: interleaving concurrent divisible-load jobs.

The single-job simulator (:class:`~repro.simulation.master.SimulatedMaster`)
runs one application to completion.  The service clock layers a second,
coarser discrete-event loop on top: its events are *service epochs* -- job
arrivals and job completions -- and between epochs every RUNNING job
advances on its own leased sub-grid.

At each epoch the :class:`~repro.service.arbiter.WorkerLeaseArbiter`
re-partitions the platform.  A job whose lease is unchanged keeps running
undisturbed.  A job whose lease changed is *preempted at chunk
granularity*: chunks that finished computing are banked, anything in
transfer or mid-computation is re-dispatched on the new lease (the next
segment re-divides the remaining load).  This is how capacity released by
a finishing job accelerates its surviving neighbours mid-flight.

Consistency guarantees, verified per job by ``ExecutionReport.validate``:
load is conserved across segments, chunk causality holds on the job
timeline, and a job's transfers never overlap.  A job that runs start to
finish in a single full-platform lease produces an ``ExecutionReport``
identical to the sequential daemon path -- the service degenerates to
``run_pending`` exactly.

Modelling note: concurrent jobs each ship chunks from their own staging
master, so the serialized-link constraint is per job, not global (a
multi-homed master -- one NIC per tenant slice).  Within a job the
paper's serialization is preserved.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..apst.daemon import APSTDaemon, DaemonConfig
from ..apst.division import DivisionMethod, UniformUnitsDivision
from ..errors import ServiceError
from ..obs import (
    JOB_ADMITTED,
    JOB_COMPLETED,
    JOB_PREEMPTED,
    LEASE_GRANTED,
    LEASE_REVOKED,
    OBS_DISABLED,
    Observability,
)
from ..platform.resources import Grid
from ..simulation.master import SimulationOptions
from ..simulation.trace import ChunkTrace, ExecutionReport
from .arbiter import LeaseRequest, WorkerLeaseArbiter
from .manager import JobManager, ServiceJobSpec
from .report import JobServiceRecord, ServiceReport

_EPS = 1e-9
#: Epoch-count safety bound (an epoch consumes an arrival or a completion).
MAX_EPOCHS = 1_000_000


@dataclass
class LeaseSegment:
    """One contiguous interval during which a job held a fixed lease.

    The service-run lease log is built from these; the Chrome-trace
    exporter renders them as per-worker ownership lanes.
    """

    job_id: int
    workers: tuple[int, ...]
    start: float
    end: float = -1.0

    @property
    def closed(self) -> bool:
        return self.end >= self.start


@dataclass
class _RunningJob:
    """Clock-internal dynamic state of one job holding a lease."""

    spec: ServiceJobSpec
    job_start: float
    remaining: float
    lease: tuple[int, ...] = ()
    segment_start: float = 0.0
    segment_total: float = 0.0
    segment_report: ExecutionReport | None = None
    #: index of the CURRENT segment; -1 before the first one starts
    segment_index: int = -1
    #: banked chunks (absolute service time, platform worker indices)
    kept: list[ChunkTrace] = field(default_factory=list)
    probe_time: float = 0.0
    annotations: dict = field(default_factory=dict)
    peak_workers: int = 0
    #: chunks that were in transfer/compute at a preemption and had to be
    #: re-dispatched on a later lease segment
    retransmits: int = 0
    #: the lease-log entry of the current segment (end still open)
    open_segment: LeaseSegment | None = None

    @property
    def projected_finish(self) -> float:
        assert self.segment_report is not None
        return self.segment_start + self.segment_report.makespan

    def remaining_at(self, now: float) -> float:
        """Uncompleted load estimate at service time ``now`` (no commit)."""
        assert self.segment_report is not None
        done = self.segment_report.completed_units_by(now - self.segment_start)
        return max(0.0, self.segment_total - done)


@dataclass
class ServiceOutcome:
    """Everything one service run produces."""

    reports: dict[int, ExecutionReport]
    service: ServiceReport
    #: chronological lease log (who held which workers, when)
    leases: list[LeaseSegment] = field(default_factory=list)
    #: jobs whose segment raised, by job id; they failed alone
    failures: dict[int, Exception] = field(default_factory=dict)


class ServiceClock:
    """Epoch-driven execution of a set of :class:`ServiceJobSpec` s."""

    def __init__(
        self,
        grid: Grid,
        *,
        policy: str = "fair-share",
        slots: int | None = None,
        arbiter: WorkerLeaseArbiter | None = None,
        manager: JobManager | None = None,
        run_segment: Callable[..., ExecutionReport] | None = None,
        observability: Observability | None = None,
    ) -> None:
        self._grid = grid
        self._obs = observability or OBS_DISABLED
        self._arbiter = arbiter or WorkerLeaseArbiter(
            len(grid), policy, slots=slots, observability=self._obs
        )
        if self._arbiter.num_workers != len(grid):
            raise ServiceError(
                f"arbiter covers {self._arbiter.num_workers} workers, "
                f"but the grid has {len(grid)}"
            )
        self._manager = manager or JobManager()
        if run_segment is None:
            # standalone use: a default simulation daemon's (pass a
            # configured daemon's ``run_segment`` for noise, retries, ...)
            run_segment = APSTDaemon(
                grid, config=DaemonConfig(observability=observability)
            ).run_segment
        self._run_segment = run_segment
        #: re-division granularity after a preemption (the options default)
        self._quantum = SimulationOptions.quantum
        self._identity = tuple(range(len(grid)))

    @property
    def policy(self) -> str:
        return self._arbiter.policy

    # -- main loop ----------------------------------------------------------
    def run(self, specs: Iterable[ServiceJobSpec]) -> ServiceOutcome:
        specs = list(specs)
        ids = [s.job_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ServiceError(f"duplicate job ids submitted to the service: {ids}")
        for spec in specs:
            self._manager.register(spec)

        pending = deque(sorted(specs, key=lambda s: (s.arrival, s.job_id)))
        queued: list[ServiceJobSpec] = []
        running: dict[int, _RunningJob] = {}
        start_order: list[int] = []
        #: the run's state is the outcome it returns, filled in as jobs end
        self._out = outcome = ServiceOutcome(
            reports={},
            service=ServiceReport(
                policy=self._arbiter.policy, num_workers=len(self._grid)
            ),
        )

        now = pending[0].arrival if pending else 0.0
        epochs = 0
        while pending or queued or running:
            epochs += 1
            if epochs > MAX_EPOCHS:
                raise ServiceError("service clock did not converge (epoch bound hit)")

            # 1. complete every job whose projection is due
            due = sorted(
                (jid for jid in start_order if running[jid].projected_finish <= now + _EPS),
                key=lambda jid: (running[jid].projected_finish, jid),
            )
            for jid in due:
                rj = running.pop(jid)
                start_order.remove(jid)
                self._complete(rj)

            # 2. admit arrivals that are due
            while pending and pending[0].arrival <= now + _EPS:
                queued.append(pending.popleft())

            # 3. arbitrate and apply lease changes
            queued_order = self._manager.admission_order(queued)
            desired = self._arbiter.assign(
                [self._request(running[jid], now) for jid in start_order],
                [LeaseRequest(job_id=s.job_id, remaining=s.total_load, weight=s.weight)
                 for s in queued_order],
            )
            failed_now = False
            for jid, lease in desired.items():
                if jid in running:
                    rj = running[jid]
                    if lease == rj.lease:
                        continue
                    self._truncate(rj, now)
                    if rj.remaining <= _EPS * max(1.0, rj.spec.total_load):
                        # possible only with trailing non-compute work
                        # (e.g. output transfers): everything computed,
                        # so the job is done at this epoch
                        running.pop(jid)
                        start_order.remove(jid)
                        self._finalize(rj, now)
                        continue
                else:
                    spec = next(s for s in queued if s.job_id == jid)
                    queued.remove(spec)
                    rj = _RunningJob(spec=spec, job_start=now, remaining=spec.total_load)
                    if self._obs.enabled:
                        self._obs.emit(
                            JOB_ADMITTED,
                            sim_time=now,
                            job_id=jid,
                            tenant=spec.tenant,
                            wait=now - spec.arrival,
                            workers=len(lease),
                        )
                    running[jid] = rj
                    start_order.append(jid)
                try:
                    self._start_segment(rj, lease, now)
                except Exception as exc:
                    # the job fails alone: its lease goes back to the pool
                    # and the survivors are re-arbitrated at this same epoch
                    outcome.failures[jid] = exc
                    failed_now = True
                    running.pop(jid)
                    start_order.remove(jid)
                    self._arbiter.release(jid)
            if failed_now:
                continue

            # 4. advance the clock to the next epoch
            candidates = [rj.projected_finish for rj in running.values()]
            if pending:
                candidates.append(pending[0].arrival)
            if not candidates:
                if queued:
                    raise ServiceError(
                        f"{len(queued)} job(s) starved: the arbiter granted "
                        "no leases and no further events are due"
                    )
                continue  # all sets empty: while-condition exits
            advanced = min(candidates)
            if advanced < now - _EPS:
                raise ServiceError(f"service time went backwards: {advanced} < {now}")
            now = max(now, advanced)

        return outcome

    # -- segment management -------------------------------------------------
    def _request(self, rj: _RunningJob, now: float) -> LeaseRequest:
        return LeaseRequest(
            job_id=rj.spec.job_id,
            remaining=rj.remaining_at(now),
            weight=rj.spec.weight,
        )

    def _start_segment(self, rj: _RunningJob, lease: tuple[int, ...], now: float) -> None:
        spec = rj.spec
        segment_index = rj.segment_index + 1
        sub_grid = self._grid if lease == self._identity else self._grid.subset(list(lease))
        quantum: float | None = None
        if segment_index == 0 and spec.division is not None:
            division: DivisionMethod | None = spec.division
        else:
            quantum = min(self._quantum, rj.remaining)
            division = UniformUnitsDivision(total=rj.remaining, step=quantum)
        if segment_index == 0:
            seed = spec.seed
        elif spec.seed is None:
            seed = None
        else:  # deterministic, distinct per (job, segment)
            seed = spec.seed + 101 * spec.job_id + segment_index
        report = self._run_segment(
            sub_grid,
            spec.scheduler_factory(),
            rj.remaining,
            division=division,
            probe_units=spec.probe_units,
            seed=seed,
            quantum=quantum,
            job_id=spec.job_id,
        )
        rj.lease = lease
        rj.segment_start = now
        rj.segment_total = rj.remaining
        rj.segment_report = report
        rj.segment_index = segment_index
        rj.peak_workers = max(rj.peak_workers, len(lease))
        segment = LeaseSegment(job_id=spec.job_id, workers=lease, start=now)
        rj.open_segment = segment
        self._out.leases.append(segment)
        if self._obs.enabled:
            self._obs.emit(
                LEASE_GRANTED,
                sim_time=now,
                job_id=spec.job_id,
                segment=segment_index,
                workers=list(lease),
            )

    def _absorb(
        self, rj: _RunningJob, chunks: list[ChunkTrace], occupancy_seconds: float
    ) -> None:
        """Bank a segment's finished chunks and settle its accounting."""
        assert rj.segment_report is not None
        rj.kept.extend(
            c.shifted(rj.segment_start, worker_index=rj.lease[c.worker_index])
            for c in chunks
        )
        self._out.service.busy_worker_seconds += sum(c.compute_time for c in chunks)
        rj.probe_time += rj.segment_report.probe_time
        rj.annotations.update(rj.segment_report.annotations)
        self._manager.charge(rj.spec.tenant, len(rj.lease) * occupancy_seconds)

    def _close_segment(self, rj: _RunningJob, now: float) -> None:
        """End the open lease-log entry (idempotent) and publish the revoke."""
        segment = rj.open_segment
        if segment is None:
            return
        segment.end = now
        rj.open_segment = None
        if self._obs.enabled:
            self._obs.emit(
                LEASE_REVOKED,
                sim_time=now,
                job_id=rj.spec.job_id,
                workers=list(segment.workers),
                duration=now - segment.start,
            )

    def _truncate(self, rj: _RunningJob, now: float) -> None:
        """Preempt the current segment at ``now`` (chunk granularity)."""
        assert rj.segment_report is not None
        elapsed = now - rj.segment_start
        kept = rj.segment_report.completed_by(elapsed)
        dispatched = sum(
            1 for c in rj.segment_report.chunks if c.send_start <= elapsed + _EPS
        )
        lost = max(0, dispatched - len(kept))
        rj.retransmits += lost
        self._absorb(rj, kept, elapsed)
        rj.remaining = max(0.0, rj.segment_total - sum(c.units for c in kept))
        self._close_segment(rj, now)
        if self._obs.enabled:
            self._obs.emit(
                JOB_PREEMPTED,
                sim_time=now,
                job_id=rj.spec.job_id,
                segment=rj.segment_index,
                kept_chunks=len(kept),
                retransmitted_chunks=lost,
                remaining=rj.remaining,
            )
            if self._obs.metrics is not None:
                self._obs.metrics.counter(
                    "repro_service_preemptions_total",
                    help="Chunk-granularity job preemptions in the service clock.",
                ).inc()

    def _complete(self, rj: _RunningJob) -> None:
        assert rj.segment_report is not None
        finish = rj.projected_finish
        self._absorb(rj, rj.segment_report.chunks, finish - rj.segment_start)
        rj.remaining = 0.0
        self._close_segment(rj, finish)
        self._finalize(rj, finish)

    def _finalize(self, rj: _RunningJob, finish: float) -> None:
        assert rj.segment_report is not None
        spec = rj.spec
        self._manager.complete(spec)
        self._arbiter.release(spec.job_id)
        if rj.segment_index == 0 and rj.lease == self._identity:
            # one full-platform segment: this IS the sequential daemon run,
            # and the job alone on the whole platform is its own baseline
            report = rj.segment_report
            dedicated = report.makespan
        else:
            ordered = sorted(rj.kept, key=lambda c: (c.send_start, c.chunk_id))
            report = ExecutionReport(
                algorithm=rj.segment_report.algorithm,
                total_load=spec.total_load,
                makespan=finish - rj.job_start,
                probe_time=rj.probe_time,
                chunks=[
                    c.shifted(-rj.job_start, chunk_id=i)
                    for i, c in enumerate(ordered)
                ],
                link_busy_time=sum(c.transfer_time for c in rj.kept),
                gamma_configured=rj.segment_report.gamma_configured,
                seed=spec.seed,
                annotations={
                    **rj.annotations,
                    "service_segments": rj.segment_index + 1,
                    "service_policy": self._arbiter.policy,
                    "service_retransmitted_chunks": rj.retransmits,
                },
            )
            report.validate()
            dedicated = self._dedicated_makespan(spec)
        self._out.reports[spec.job_id] = report
        self._out.service.records.append(JobServiceRecord(
            job_id=spec.job_id,
            tenant=spec.tenant,
            algorithm=report.algorithm,
            arrival=spec.arrival,
            start=rj.job_start,
            finish=finish,
            dedicated_makespan=dedicated,
            segments=rj.segment_index + 1,
            peak_workers=rj.peak_workers,
            retransmits=rj.retransmits,
        ))
        if self._obs.enabled:
            self._obs.emit(
                JOB_COMPLETED,
                sim_time=finish,
                job_id=spec.job_id,
                makespan=finish - rj.job_start,
                segments=rj.segment_index + 1,
                retransmits=rj.retransmits,
            )
            if self._obs.metrics is not None:
                self._obs.metrics.histogram(
                    "repro_service_job_wait_seconds",
                    help="Time jobs spent queued before their first lease.",
                ).observe(rj.job_start - spec.arrival)

    def _dedicated_makespan(self, spec: ServiceJobSpec) -> float:
        """The stretch baseline: the job alone on the full platform -- a
        counterfactual, so it runs un-observed (no events, no metrics)."""
        return self._run_segment(
            self._grid,
            spec.scheduler_factory(),
            spec.total_load,
            division=spec.division,
            probe_units=spec.probe_units,
            seed=spec.seed,
            observed=False,
        ).makespan
