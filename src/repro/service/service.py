"""The multi-job service facade: daemon jobs through the service clock.

:class:`MultiJobService` is the deployment-shaped entry point: it accepts
the same XML task submissions as :class:`~repro.apst.daemon.APSTDaemon`
(plus service metadata -- tenant, priority, weight, arrival), then runs
everything queued *concurrently* under a worker-lease policy instead of
sequentially.  It is not a second way to run a job: it hands the daemon's
:meth:`~repro.apst.daemon.APSTDaemon.run_claimed` sequence an executor --
the service clock granting leases over the daemon's one segment runner.
"""

from __future__ import annotations

from pathlib import Path

from ..apst.daemon import APSTDaemon, Job, PreparedJob
from ..apst.xmlspec import TaskSpec
from ..errors import ServiceError
from ..simulation.trace import ExecutionReport
from .arbiter import WorkerLeaseArbiter
from .clock import ServiceClock, ServiceOutcome
from .manager import JobManager, ServiceJobSpec


class MultiJobService:
    """Concurrent execution of daemon jobs over a shared platform."""

    def __init__(
        self,
        daemon: APSTDaemon,
        *,
        policy: str = "fair-share",
        slots: int | None = None,
    ) -> None:
        self._daemon = daemon
        # built eagerly so a bad policy/slots fails at construction
        self._arbiter = WorkerLeaseArbiter(
            len(daemon.platform), policy, slots=slots,
            observability=daemon.observability,
        )
        # one store for the deployment: tenant accounts live in the
        # daemon's job store, so the lease clock, the gateway's verbs and
        # a peer daemon all see the same durable state
        self._manager = JobManager(store=daemon.store)
        self._last_outcome: ServiceOutcome | None = None

    @property
    def policy(self) -> str:
        return self._arbiter.policy

    @property
    def daemon(self) -> APSTDaemon:
        return self._daemon

    @property
    def manager(self) -> JobManager:
        return self._manager

    @property
    def last_outcome(self) -> ServiceOutcome | None:
        return self._last_outcome

    # -- lifecycle verbs -----------------------------------------------------
    def submit(
        self,
        task: TaskSpec | str | Path,
        *,
        algorithm: str | None = None,
        tenant: str = "default",
        priority: int = 0,
        weight: float = 1.0,
        arrival: float = 0.0,
        traceparent: str | None = None,
    ) -> int:
        """Queue a task with service metadata; returns the daemon job id."""
        if not tenant:
            raise ServiceError("tenant must be non-empty")
        if weight <= 0:
            raise ServiceError(f"weight must be positive, got {weight}")
        if arrival < 0:
            raise ServiceError(f"arrival must be non-negative, got {arrival}")
        # service metadata rides on the durable job record, so a restarted
        # daemon (or a peer sharing the store) admits with the same
        # tenant/priority/weight ordering
        return self._daemon.submit(
            task,
            algorithm=algorithm,
            tenant=tenant,
            priority=priority,
            weight=weight,
            arrival=arrival,
            traceparent=traceparent,
        )

    def cancel(self, job_id: int) -> Job:
        """Cancel a QUEUED job (delegates to the daemon's state machine)."""
        return self._daemon.cancel(job_id)

    def stats(self) -> dict[str, int]:
        return self._daemon.stats()

    def drain(self) -> ServiceOutcome:
        """Run everything queued, then refuse further submissions."""
        self._daemon.stop_accepting()
        return self.run()

    # -- execution -----------------------------------------------------------
    def run(self) -> ServiceOutcome:
        """Run every queued job concurrently under the lease policy.

        Jobs are *claimed* from the store first (owner + lease), so two
        daemons sharing a SQLite store partition the queue without ever
        double-running a job.  A job whose segment raises fails alone
        (``outcome.failures``); its batch-mates run on.
        """
        self._daemon.run_claimed(self._daemon.claim_pending(), self._run_leased)
        return self._last_outcome

    def _run_leased(
        self, prepared: list[PreparedJob]
    ) -> dict[int, ExecutionReport | Exception]:
        daemon = self._daemon
        arbiter = self._arbiter
        if daemon.backend != "simulation":
            # a segment that really ran cannot be truncated after the fact:
            # jobs hold the whole platform one at a time, in admission order
            arbiter = WorkerLeaseArbiter(
                len(daemon.platform), "fifo", observability=daemon.observability
            )
        specs = []
        for entry in prepared:
            # service metadata comes back off the durable record
            record = daemon.stored(entry.job.job_id)
            specs.append(
                ServiceJobSpec(
                    job_id=record.job_id,
                    scheduler_factory=entry.scheduler_factory,
                    total_load=entry.division.total_units,
                    arrival=record.arrival,
                    tenant=record.tenant,
                    priority=record.priority,
                    weight=record.weight,
                    division=entry.division,
                    probe_units=entry.probe_units,
                    seed=daemon.config.seed,
                )
            )
        clock = ServiceClock(
            daemon.platform,
            arbiter=arbiter,
            manager=self._manager,
            run_segment=daemon.run_segment,
            observability=daemon.observability,
        )
        self._last_outcome = outcome = clock.run(specs)
        return {**outcome.reports, **outcome.failures}
