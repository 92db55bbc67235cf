"""The APST-DV daemon: accepts task submissions and runs them.

APST runs as two processes, a daemon (deployment, monitoring, scheduling)
and a client (a console the user drives).  This module is the daemon side
of that split: it owns a platform description, accepts divisible-load task
specifications, instantiates the load division method and the DLS
algorithm the spec names, runs the application on a backend, and keeps the
detailed execution report per job.

Two backends exist:

* ``"simulation"`` -- the discrete-event substrate (default; substitutes
  for the paper's Grid testbed);
* any object implementing :class:`ExecutionBackend` -- notably
  :class:`repro.execution.LocalExecutionBackend` and
  :class:`repro.execution.ProcessExecutionBackend`, which really move
  chunk bytes and really compute.

Either way the scheduler-driving loop is the shared
:class:`~repro.dispatch.core.DispatchCore`; a backend merely supplies its
clock + transport + compute host (a
:class:`~repro.dispatch.protocols.DispatchSubstrate`), and the daemon's
observability handle instruments every backend identically.  There is one
way to run a job: :meth:`APSTDaemon.run_claimed` over
:meth:`APSTDaemon.run_segment`; ``run_pending`` and the multi-job service
differ only in the executor they hand the former.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import uuid
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Protocol

from ..core.base import Scheduler
from ..core.registry import make_scheduler
from ..errors import JobUnrecoverableError, SpecificationError
from ..dispatch.core import DispatchCore
from ..dispatch.protocols import DispatchSubstrate, RetryPolicy
from ..obs import (
    JOB_CANCELLED,
    JOB_COMPLETED,
    JOB_FAILED,
    JOB_PARKED,
    JOB_REPLAYED,
    JOB_SUBMITTED,
    OBS_DISABLED,
    Observability,
    parse_traceparent,
)
from ..platform.resources import Grid
from ..resilience import DeadLetterEntry, DeadLetterQueue, ResiliencePolicy
from ..simulation.master import SimulationOptions, build_substrate
from ..simulation.compute import UncertaintyModel
from ..simulation.trace import ExecutionReport
from ..store import (
    JobStore,
    MemoryStore,
    StoreConflictError,
    StoreError,
    StoredJob,
)
from .division import DivisionMethod
from .xmlspec import TaskSpec, build_division, parse_task, task_to_xml


class ExecutionBackend(Protocol):
    """A real execution mechanism: provide clock + transport + compute host.

    The daemon owns the scheduler-driving loop (the shared
    :class:`~repro.dispatch.core.DispatchCore`); a backend only supplies
    the substrate it runs on.
    """

    def substrate(
        self,
        grid: Grid,
        division: DivisionMethod,
        task: TaskSpec | None,
    ) -> DispatchSubstrate:
        ...


class JobState(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass
class Job:
    """One submitted divisible-load application run."""

    job_id: int
    task: TaskSpec
    algorithm: str
    state: JobState = JobState.QUEUED
    report: ExecutionReport | None = None
    error: str | None = None
    outputs: list[Path] = field(default_factory=list)
    #: pre-flight warnings recorded at run time (errors fail the job)
    warnings: list[str] = field(default_factory=list)
    #: distributed trace context the submitter propagated (W3C-style header)
    traceparent: str | None = None
    #: terminal summary from the durable store (set for jobs another
    #: daemon ran, whose ExecutionReport lives only in that process)
    makespan: float | None = None
    chunks: int | None = None


@dataclass
class PreparedJob:
    """A job validated and ready to execute: division built, probe sized.

    Produced by :meth:`APSTDaemon.prepare` inside
    :meth:`APSTDaemon.run_claimed`; consumed by its executors -- the
    sequential one and the multi-job service layer, which needs a fresh
    scheduler instance per lease segment (``scheduler_factory``).
    """

    job: Job
    division: DivisionMethod
    probe_units: float | None
    scheduler_factory: Callable[[], Scheduler]


@dataclass
class DaemonConfig:
    """Daemon-wide execution settings.

    ``history_path`` enables cross-run learning (paper Section 4.2's
    suggestion): every finished job's observed gamma is recorded there,
    and the ``rumr-learned`` algorithm consults it -- falling back to
    online RUMR until enough history exists.

    ``observability`` arms live telemetry: job lifecycle events, chunk
    metrics, wall-clock tracing, and engine profiling flow through the
    handle for every job this daemon runs.  ``None`` keeps the hot path
    observation-free.
    """

    base_dir: Path = Path(".")
    gamma: float = 0.0
    noise_autocorrelation: float = 0.0
    seed: int | None = None
    simulation_options: SimulationOptions | None = None
    history_path: Path | None = None
    observability: Observability | None = None
    #: per-chunk transport retry policy applied to every job's run
    retry: RetryPolicy | None = None
    #: resilience tier (speculation / escalation / quarantine) per run
    resilience: ResiliencePolicy | None = None

    def __post_init__(self) -> None:
        self.base_dir = Path(self.base_dir)
        if self.history_path is not None:
            self.history_path = Path(self.history_path)


class APSTDaemon:
    """The scheduling daemon.  See the module docstring.

    Examples
    --------
    >>> from repro.platform.presets import das2_cluster
    >>> daemon = APSTDaemon(das2_cluster(nodes=4))
    >>> xml = '''
    ... <task executable="app" input="load.bin">
    ...  <divisibility input="load.bin" method="uniform" start="0"
    ...                steptype="bytes" stepsize="10" algorithm="umr"/>
    ... </task>'''
    >>> # (requires load.bin on disk; see examples/quickstart.py)
    """

    #: default claim-lease length; a daemon that dies holds its running
    #: jobs for at most this long before a peer may steal them
    DEFAULT_LEASE_S = 30.0

    def __init__(
        self,
        platform: Grid,
        *,
        backend: ExecutionBackend | str = "simulation",
        config: DaemonConfig | None = None,
        store: JobStore | None = None,
        lease_s: float | None = None,
        shard_index: int = 0,
        shard_count: int = 1,
    ) -> None:
        self._platform = platform
        self._backend = backend
        self._config = config or DaemonConfig()
        self._obs = self._config.observability or OBS_DISABLED
        self._store: JobStore = store if store is not None else MemoryStore()
        # fresh per instance on purpose: a restarted daemon must look like
        # a *different* owner, so its predecessor's leases are stealable
        self._owner = f"daemon-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self._lease_s = self.DEFAULT_LEASE_S if lease_s is None else lease_s
        self._shard_index = shard_index
        self._shard_count = shard_count
        # set when a takeover steals leases from a peer: the peer is
        # presumed dead and this instance also covers its shard(s)
        self._covering_all = False
        #: runtime cache: live task objects + reports are not serializable
        self._jobs: dict[int, Job] = {}
        #: ids this instance currently holds a claim lease on
        self._claimed: set[int] = set()
        self._draining = False
        self._dlq = DeadLetterQueue(self._store)

    @property
    def platform(self) -> Grid:
        return self._platform

    @property
    def config(self) -> DaemonConfig:
        return self._config

    @property
    def observability(self) -> Observability:
        """The daemon's telemetry handle (the shared no-op when unset)."""
        return self._obs

    @property
    def backend(self) -> ExecutionBackend | str:
        return self._backend

    def set_backend(self, backend: ExecutionBackend | str) -> None:
        """Swap the execution backend for subsequent runs.

        Queued and finished jobs are untouched; only jobs executed after
        the swap use the new backend.  The network gateway uses this to
        move from simulation to remote socket workers once enough workers
        have registered to cover the platform.
        """
        self._backend = backend

    # -- durable store -------------------------------------------------------
    @property
    def store(self) -> JobStore:
        """The durable job store every state transition goes through."""
        return self._store

    @property
    def owner(self) -> str:
        """This daemon instance's claim-owner id (unique per process run)."""
        return self._owner

    @property
    def lease_s(self) -> float:
        return self._lease_s

    @lease_s.setter
    def lease_s(self, value: float) -> None:
        self._lease_s = value

    @property
    def shard_index(self) -> int:
        return self._shard_index

    @property
    def shard_count(self) -> int:
        return self._shard_count

    def set_shard(self, shard_index: int, shard_count: int) -> None:
        """Restrict this daemon's claims to one tenant-hash shard."""
        if not 0 <= shard_index < shard_count:
            raise SpecificationError(
                f"shard index {shard_index} out of range for {shard_count} shards"
            )
        self._shard_index = shard_index
        self._shard_count = shard_count
        self._covering_all = False

    def _claim_shard(self) -> tuple[int, int]:
        """Effective claim filter: the configured shard, or everything
        once a takeover proved a peer dead (its queued jobs would
        otherwise starve behind the shard partition)."""
        if self._covering_all:
            return 0, 1
        return self._shard_index, self._shard_count

    def _hydrate(self, record: StoredJob) -> Job:
        """Runtime Job for a store record this process never executed."""
        task = parse_task(record.spec_xml)
        return Job(
            job_id=record.job_id,
            task=task,
            algorithm=record.algorithm or task.divisibility.algorithm,
            state=JobState(record.state),
            error=record.error,
            traceparent=record.traceparent,
            makespan=record.makespan,
            chunks=record.chunks,
        )

    def _job_for_record(self, record: StoredJob) -> Job:
        job = self._jobs.get(record.job_id)
        if job is None:
            job = self._hydrate(record)
            self._jobs[job.job_id] = job
            return job
        # the store is authoritative for service-level state (a peer may
        # have stolen and finished this job); reports stay local
        job.state = JobState(record.state)
        if record.error is not None:
            job.error = record.error
        if record.makespan is not None:
            job.makespan = record.makespan
        if record.chunks is not None:
            job.chunks = record.chunks
        return job

    def stored(self, job_id: int) -> StoredJob:
        """The durable record behind a job id."""
        try:
            return self._store.get_job(job_id)
        except StoreError:
            raise SpecificationError(f"no job with id {job_id}") from None

    def _owner_for(self, job_id: int) -> str | None:
        """Owner to assert on a transition: ours iff we hold the claim."""
        return self._owner if job_id in self._claimed else None

    def _held_queued(self) -> Iterator[StoredJob]:
        """Jobs this instance holds a lease on but has not started yet."""
        for job_id in sorted(self._claimed):
            try:
                record = self._store.get_job(job_id)
            except StoreError:
                self._claimed.discard(job_id)
                continue
            if (
                record.state == JobState.QUEUED.value
                and record.owner == self._owner
            ):
                yield record

    def claim_pending(self, limit: int | None = None) -> list[Job]:
        """Atomically claim queued jobs in this daemon's shard.

        Jobs this instance already holds a lease on (stolen at recovery
        or takeover) but has not started yet are returned first, without
        a second claim-audit record.
        """
        jobs = [self._job_for_record(record) for record in self._held_queued()]
        shard_index, shard_count = self._claim_shard()
        claimed = self._store.claim(
            self._owner,
            lease_s=self._lease_s,
            limit=limit,
            shard_index=shard_index,
            shard_count=shard_count,
        )
        for record in claimed:
            self._claimed.add(record.job_id)
            jobs.append(self._job_for_record(record))
        return jobs

    def takeover(self) -> int:
        """Steal every expired lease left by a dead (or stalled) peer.

        RUNNING jobs whose lease lapsed are re-queued under this owner
        for re-dispatch; the claim audit records them as ``steal``.
        Returns how many leases were taken.

        A successful steal is taken as proof the peer is dead, so this
        instance also starts claiming outside its own shard: the dead
        shard's *queued* jobs carry no lease and would otherwise never
        be picked up.  If the peer was merely stalled and comes back,
        both daemons claim from the full queue -- claims stay atomic,
        only the partitioning benefit is lost until a restart.
        """
        stolen = self._store.steal_expired(self._owner, lease_s=self._lease_s)
        for record in stolen:
            self._claimed.add(record.job_id)
            self._job_for_record(record)
        if stolen and self._shard_count > 1:
            self._covering_all = True
        return len(stolen)

    def has_pending(self) -> bool:
        """Any work this daemon could run right now (held or claimable)?"""
        if next(self._held_queued(), None) is not None:
            return True
        shard_index, shard_count = self._claim_shard()
        return (
            self._store.claimable(
                shard_index=shard_index, shard_count=shard_count
            )
            > 0
        )

    def recover(self) -> dict[str, int]:
        """Startup recovery pass over a pre-existing (durable) store.

        Re-admits every QUEUED job into this instance's runtime table and
        takes over expired leases left by dead owners -- RUNNING jobs
        whose lease lapsed are re-queued for re-dispatch.  Returns counts
        for the log line (``requeued`` / ``stolen``).
        """
        stolen = self.takeover()
        requeued = 0
        for record in self._store.list_jobs(JobState.QUEUED.value):
            self._job_for_record(record)
            requeued += 1
        return {"requeued": requeued, "stolen": stolen}

    def _transition(self, job: Job, state: JobState, **fields) -> bool:
        """Move a job we claimed to ``state`` in the store (owner-checked).

        False -- changing nothing -- when a peer stole the job's lease:
        the thief runs it now, so nothing recorded here may count.
        """
        try:
            self._store.transition(
                job.job_id, state.value, owner=self._owner_for(job.job_id), **fields
            )
        except StoreConflictError:
            self._claimed.discard(job.job_id)
            self._job_for_record(self.stored(job.job_id))
            return False
        if state is not JobState.RUNNING:
            self._claimed.discard(job.job_id)
        job.state = state
        return True

    def mark_running(self, job: Job) -> bool:
        """Transition a job to RUNNING in the store; False if lost to a steal."""
        return self._transition(
            job, JobState.RUNNING, expect=(JobState.QUEUED.value,)
        )

    def record_failure(self, job: Job, exc: Exception) -> bool:
        """Mark a job FAILED; a :class:`JobUnrecoverableError` also parks it
        in the dead-letter queue with its failure chain.

        Returns False -- recording nothing -- when a peer stole the job.
        """
        error = f"{type(exc).__name__}: {exc}"
        if not self._transition(job, JobState.FAILED, error=error):
            return False
        job.error = error
        if isinstance(exc, JobUnrecoverableError):
            entry = self._dlq.park(
                job_id=job.job_id,
                algorithm=job.algorithm,
                task=job.task,
                failure_chain=exc.failure_chain + [error],
                spec_xml=task_to_xml(job.task),
            )
            if self._obs.enabled:
                self._obs.emit(
                    JOB_PARKED,
                    job_id=job.job_id,
                    entry_id=entry.entry_id,
                    algorithm=job.algorithm,
                    failures=len(entry.failure_chain),
                )
                self._count_job_event("parked")
        if self._obs.enabled:
            self._obs.emit(
                JOB_FAILED,
                job_id=job.job_id,
                algorithm=job.algorithm,
                error=job.error,
            )
            self._count_job_event("failed")
        return True

    def _count_job_event(self, outcome: str) -> None:
        if self._obs.metrics is not None:
            self._obs.metrics.counter(
                "repro_daemon_jobs_total",
                "Daemon job lifecycle transitions",
                labels={"outcome": outcome},
            ).inc()

    def submit(
        self,
        task: TaskSpec | str | Path,
        *,
        algorithm: str | None = None,
        traceparent: str | None = None,
        tenant: str = "default",
        priority: int = 0,
        weight: float = 1.0,
        arrival: float = 0.0,
    ) -> int:
        """Queue a task (XML string, file path, or parsed spec); returns job id.

        ``algorithm`` overrides the spec's ``algorithm=`` attribute, which
        is how the evaluation runs the same application "back-to-back"
        under every DLS algorithm.  ``traceparent`` carries the
        submitter's distributed trace context; when set (and the daemon
        is armed with a tracer), every span the job's run records links
        into that trace.
        """
        if self._draining:
            raise SpecificationError(
                "daemon is draining; new submissions are not accepted"
            )
        if not isinstance(task, TaskSpec):
            task = parse_task(task)
        name = algorithm or task.divisibility.algorithm
        record = self._store.insert_job(
            spec_xml=task_to_xml(task),
            algorithm=name,
            tenant=tenant,
            priority=priority,
            weight=weight,
            arrival=arrival,
            traceparent=traceparent,
        )
        job = Job(
            job_id=record.job_id, task=task, algorithm=name,
            traceparent=traceparent,
        )
        self._jobs[job.job_id] = job
        if self._obs.enabled:
            self._obs.emit(
                JOB_SUBMITTED,
                job_id=job.job_id,
                algorithm=name,
                executable=task.executable,
            )
            self._count_job_event("submitted")
        return job.job_id

    def run_pending(self, *, raise_on_error: bool = True) -> list[int]:
        """Run every queued job, one at a time; returns the ids executed.

        With ``raise_on_error=False`` a failing job is recorded as FAILED
        (state + ``error`` + lifecycle event) but does not abort the
        sweep -- the mode long-running fronts use, where one bad
        submission must not starve the jobs queued behind it.
        """
        executed = []
        for job in self.claim_pending():
            failures = self.run_claimed([job], self._run_alone)
            if failures and raise_on_error:
                raise failures[job.job_id]
            executed.append(job.job_id)
        return executed

    def run_claimed(
        self,
        jobs: list[Job],
        execute: Callable[[list[PreparedJob]], dict[int, ExecutionReport | Exception]],
    ) -> dict[int, Exception]:
        """Take claimed jobs that run *together* to their terminal states.

        The one ``mark_running`` -> ``prepare`` -> run -> ``record_result``
        / ``record_failure`` sequence: :meth:`run_pending` calls it with
        one job at a time, the multi-job service with everything it
        claimed.  ``execute`` turns the prepared jobs into a report or an
        exception each, by job id, so a failing job fails alone; if it
        raises, the whole group fails and the error propagates.  Returns
        the failures.
        """
        prepared: list[PreparedJob] = []
        results: dict[int, ExecutionReport | Exception] = {}
        for job in jobs:
            if not self.mark_running(job):
                continue  # lease stolen between claim and run; the thief runs it
            try:
                prepared.append(self.prepare(job.job_id))
            except Exception as exc:
                results[job.job_id] = exc
                self.record_failure(job, exc)
        try:
            results.update(execute(prepared))
        except Exception as exc:
            for entry in prepared:  # nothing may stay RUNNING
                self.record_failure(entry.job, exc)
            raise
        for entry in prepared:
            result = results[entry.job.job_id]
            if isinstance(result, ExecutionReport):
                self.record_result(entry.job, result)
            else:
                self.record_failure(entry.job, result)
        return {i: r for i, r in results.items() if isinstance(r, Exception)}

    def _run_alone(
        self, prepared: list[PreparedJob]
    ) -> dict[int, ExecutionReport | Exception]:
        """Executor of the sequential path: one segment on the whole platform."""
        results: dict[int, ExecutionReport | Exception] = {}
        for entry in prepared:
            try:
                results[entry.job.job_id] = self.run_segment(
                    self._platform,
                    entry.scheduler_factory(),
                    entry.division.total_units,
                    division=entry.division,
                    probe_units=entry.probe_units,
                    seed=self._config.seed,
                    job_id=entry.job.job_id,
                )
            except Exception as exc:
                results[entry.job.job_id] = exc
        return results

    def job(self, job_id: int) -> Job:
        return self._job_for_record(self.stored(job_id))

    def jobs(self) -> list[Job]:
        return [self._job_for_record(record) for record in self._store.list_jobs()]

    def cancel(self, job_id: int) -> Job:
        """Cancel a QUEUED job.  Running or finished jobs cannot be cancelled."""
        job = self.job(job_id)
        if job.state is not JobState.QUEUED:
            raise SpecificationError(
                f"cannot cancel job {job_id}: it is {job.state.value} "
                "(only queued jobs can be cancelled)"
            )
        try:
            self._store.transition(
                job_id,
                JobState.CANCELLED.value,
                expect=(JobState.QUEUED.value,),
            )
        except StoreConflictError:
            record = self.stored(job_id)
            raise SpecificationError(
                f"cannot cancel job {job_id}: it is {record.state} "
                "(only queued jobs can be cancelled)"
            ) from None
        job.state = JobState.CANCELLED
        if self._obs.enabled:
            self._obs.emit(JOB_CANCELLED, job_id=job.job_id, algorithm=job.algorithm)
            self._count_job_event("cancelled")
        return job

    def stop_accepting(self) -> None:
        """Refuse new submissions from now on (the drain half-step)."""
        self._draining = True

    def drain(self) -> list[int]:
        """Run everything queued, then stop accepting new submissions."""
        self.stop_accepting()
        return self.run_pending()

    @property
    def draining(self) -> bool:
        return self._draining

    def stats(self) -> dict[str, int]:
        """Job counts per state, plus totals (the ``stats`` lifecycle verb).

        Counts come from the store, so on a shared SQLite file they cover
        the whole deployment, not just the jobs this daemon executed.
        """
        counts = dict(self._store.counts())
        counts["total"] = sum(counts.values())
        counts["draining"] = int(self._draining)
        return counts

    # -- dead-letter queue ---------------------------------------------------
    @property
    def dlq(self) -> DeadLetterQueue:
        """Jobs whose chunks could not complete on any live worker."""
        return self._dlq

    def dlq_entries(self) -> list[DeadLetterEntry]:
        return self._dlq.entries()

    def dlq_replay(self, entry_id: int) -> int:
        """Resubmit a parked job verbatim; returns the new job id.

        The entry stays in the queue with ``replayed_as`` recording the
        new job, so an operator can see what happened to it; ``purge``
        clears the queue once nothing in it is needed.
        """
        entry = self._dlq.get(entry_id)
        task = entry.task
        if not isinstance(task, TaskSpec) and entry.spec_xml:
            # parked by a previous daemon incarnation: the live task
            # object died with it, but the spec XML survived in the store
            task = parse_task(entry.spec_xml)
        if not isinstance(task, TaskSpec):
            raise SpecificationError(
                f"DLQ entry {entry_id} carries no replayable task"
            )
        new_id = self.submit(task, algorithm=entry.algorithm)
        self._dlq.mark_replayed(entry_id, new_id)
        if self._obs.enabled:
            self._obs.emit(
                JOB_REPLAYED,
                job_id=new_id,
                entry_id=entry_id,
                original_job_id=entry.job_id,
                algorithm=entry.algorithm,
            )
            self._count_job_event("replayed")
        return new_id

    def dlq_purge(self) -> int:
        """Drop every parked entry; returns how many were removed."""
        return self._dlq.purge()

    def report(self, job_id: int) -> ExecutionReport:
        job = self.job(job_id)
        if job.report is None:
            raise SpecificationError(
                f"job {job_id} has no report (state: {job.state.value}"
                + (f", error: {job.error}" if job.error else "")
                + ")"
            )
        return job.report

    # -- internals ----------------------------------------------------------
    @staticmethod
    def application_key(task: TaskSpec) -> str:
        """History key: the executable plus its divisible input."""
        return f"{task.executable}:{task.divisibility.input}"

    def _make_scheduler(self, job: Job, division: DivisionMethod) -> Scheduler:
        if job.algorithm == "auto":
            from .advisor import recommend_algorithm
            from .history import ApplicationHistory

            learned = None
            if self._config.history_path is not None:
                history = ApplicationHistory.load(self._config.history_path)
                learned = history.learned_gamma(self.application_key(job.task))
            gamma = learned if learned is not None else (
                self._config.gamma if self._config.gamma > 0 else None
            )
            recommendation = recommend_algorithm(
                self._platform,
                division.total_units,
                gamma=gamma,
                autocorrelation=self._config.noise_autocorrelation,
            )
            note = f"[info] auto-selected algorithm: {recommendation.rationale}"
            if note not in job.warnings:  # called once per lease segment
                job.warnings.append(note)
            return recommendation.build()
        if job.algorithm == "rumr-learned":
            from ..core.rumr import RUMR, rumr_with_known_gamma
            from .history import ApplicationHistory

            if self._config.history_path is None:
                raise SpecificationError(
                    "algorithm 'rumr-learned' requires DaemonConfig.history_path"
                )
            history = ApplicationHistory.load(self._config.history_path)
            learned = history.learned_gamma(self.application_key(job.task))
            if learned is None:
                return RUMR()  # no history yet: online discovery
            return rumr_with_known_gamma(learned)
        return make_scheduler(job.algorithm)

    def _record_history(self, job: Job) -> None:
        if self._config.history_path is None or job.report is None:
            return
        from .history import ApplicationHistory

        history = ApplicationHistory.load(self._config.history_path)
        history.record(self.application_key(job.task), job.report)
        history.save(self._config.history_path)

    def prepare(self, job_id: int) -> PreparedJob:
        """Pre-flight a job and build its division, without running it.

        A step of :meth:`run_claimed`; the service clock then drives the
        returned ``scheduler_factory`` once per lease segment.
        """
        job = self.job(job_id)
        self._preflight(job, division=None)
        division = build_division(job.task.divisibility, self._config.base_dir)
        self._preflight(job, division=division)
        probe_units = self._probe_units(job.task, division)
        return PreparedJob(
            job=job,
            division=division,
            probe_units=probe_units,
            scheduler_factory=lambda: self._make_scheduler(job, division),
        )

    def record_result(self, job: Job, report: ExecutionReport) -> bool:
        """Install a job's report and mark it DONE (history learning included).

        Returns False -- discarding the result -- when a peer stole the
        job: recording here would be a double completion.
        """
        if not self._transition(
            job, JobState.DONE, makespan=report.makespan, chunks=report.num_chunks
        ):
            return False
        job.report = report
        job.makespan = report.makespan
        job.chunks = report.num_chunks
        self._record_history(job)
        if self._obs.enabled:
            self._obs.emit(
                JOB_COMPLETED,
                job_id=job.job_id,
                algorithm=report.algorithm,
                makespan=report.makespan,
                chunks=report.num_chunks,
            )
            self._count_job_event("done")
        return True

    def _preflight(self, job: Job, division: DivisionMethod | None) -> None:
        """Run pre-flight checks; errors abort the job, warnings accumulate."""
        from .preflight import preflight_check

        if job.algorithm in ("rumr-learned", "auto"):
            return  # resolved dynamically; registry lookup would reject them
        task = TaskSpec(
            executable=job.task.executable,
            arguments=job.task.arguments,
            input=job.task.input,
            output=job.task.output,
            divisibility=dataclasses.replace(
                job.task.divisibility, algorithm=job.algorithm
            ),
        )
        findings = preflight_check(
            task, self._platform, base_dir=self._config.base_dir,
            division=division,
        )
        errors = [f for f in findings if f.severity == "error"]
        for f in findings:
            if f.severity == "warning" and str(f) not in job.warnings:
                job.warnings.append(str(f))
        if errors:
            raise SpecificationError(
                "pre-flight check failed: " + "; ".join(str(f) for f in errors)
            )

    def _probe_units(self, task: TaskSpec, division: DivisionMethod) -> float | None:
        """Probe size from the spec (probe_load, or the probe file's size)."""
        d = task.divisibility
        if d.probe_load is not None:
            return float(d.probe_load)
        if d.probe is not None:
            probe_path = self._config.base_dir / d.probe
            if probe_path.is_file():
                return float(probe_path.stat().st_size)
        return None

    def run_segment(
        self,
        grid: Grid,
        scheduler: Scheduler,
        total_units: float,
        *,
        division: DivisionMethod | None = None,
        probe_units: float | None = None,
        seed: int | None = None,
        quantum: float | None = None,
        job_id: int | None = None,
        observed: bool = True,
    ) -> ExecutionReport:
        """One dispatched run on ``grid`` under the daemon's configuration:
        the only place a run's options are merged and a ``DispatchCore`` built.

        The sequential path runs a job as one segment on the whole
        platform; the service clock calls this once per lease segment, on
        a sub-grid, with the job's remaining load.  ``job_id`` names the
        job: its result files land in ``job.outputs`` and, with a tracer
        armed, the run is a ``job.run`` span under the submitter's trace.
        ``observed=False`` is a counterfactual run (the dedicated-makespan
        baseline): no events, metrics or spans.
        """
        config = self._config
        base = config.simulation_options
        options = dataclasses.replace(base) if base is not None else SimulationOptions()
        if options.probe_units is None:
            options.probe_units = probe_units
        if config.retry is not None:
            options.retry = config.retry
        if config.resilience is not None:
            options.resilience = config.resilience
        if quantum is not None:
            options.quantum = quantum
        if not observed:
            options.observability = None
        elif self._obs.enabled and options.observability is None:
            options.observability = self._obs
        job = self._jobs.get(job_id) if observed else None
        tracer = self._obs.tracer
        context = parse_traceparent(job.traceparent) if job and tracer else None
        with contextlib.ExitStack() as scope:
            if context is not None:
                # job.run parents to the gateway's submit span; every nested
                # span (probe, engine.run, per-chunk dispatch, and across
                # the wire the workers' spans) links under it
                scope.enter_context(tracer.activate(context))
                scope.enter_context(tracer.span(
                    "job.run", category="daemon",
                    job_id=job.job_id, algorithm=job.algorithm,
                ))
            if self._backend == "simulation":
                noise = UncertaintyModel(
                    gamma=config.gamma, autocorrelation=config.noise_autocorrelation
                )
                substrate = build_substrate(
                    grid, uncertainty=noise, seed=seed, options=options
                )
            else:
                task = job.task if job is not None else None
                substrate = self._backend.substrate(grid, division, task)
            core = DispatchCore(
                grid, scheduler, total_units,
                substrate=substrate, division=division, options=options,
            )
            report = core.run()
        if job is not None:
            job.outputs = core.outputs_in_offset_order()
        return report
