"""Admission control for the multi-job scheduling service.

The single-job APST-DV daemon runs whatever is queued, in submission
order.  A shared Grid installation serves many users at once, so the
service layer adds an *admission queue* with three ordering inputs:

* **priority** -- higher-priority jobs are admitted first;
* **per-tenant fair share** -- among equal priorities, the tenant that
  has consumed the least service (in worker-seconds of lease occupancy)
  goes first, so one user submitting a burst of jobs cannot starve the
  others;
* **arrival order** -- the final, deterministic tie-break.

The :class:`JobManager` owns this queue plus the per-tenant accounting;
the :class:`~repro.service.clock.ServiceClock` charges it whenever a
lease segment ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..apst.division import DivisionMethod
from ..core.base import Scheduler
from ..errors import ServiceError
from ..store import JobStore, MemoryStore, TenantUsage


@dataclass
class ServiceJobSpec:
    """Everything the service clock needs to run one job.

    ``division`` (optional) is used for the first lease segment only; a
    segment started after a preemption re-divides the remaining load on a
    uniform grid of ``quantum`` units, because the undispatched byte
    ranges are no longer a contiguous prefix of the original input.
    """

    job_id: int
    scheduler_factory: Callable[[], Scheduler]
    total_load: float
    arrival: float = 0.0
    tenant: str = "default"
    priority: int = 0
    weight: float = 1.0
    division: DivisionMethod | None = None
    probe_units: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.total_load <= 0:
            raise ServiceError(
                f"job {self.job_id}: total_load must be positive, got {self.total_load}"
            )
        if self.weight <= 0:
            raise ServiceError(
                f"job {self.job_id}: weight must be positive, got {self.weight}"
            )
        if self.arrival < 0:
            raise ServiceError(
                f"job {self.job_id}: arrival must be non-negative, got {self.arrival}"
            )
        if not self.tenant:
            raise ServiceError(f"job {self.job_id}: tenant must be non-empty")


#: Per-tenant service consumption, used for fair-share admission.  The
#: record itself lives in the job store (so two daemons sharing a SQLite
#: store charge the same accounts); this is the store's snapshot type.
TenantAccount = TenantUsage


@dataclass
class JobManager:
    """Admission queue ordering plus per-tenant fair-share accounting.

    The manager is a pure scheduling *policy*: it owns no job or account
    state of its own.  Tenant accounts live in the job store (pass the
    daemon's store to share accounting across daemons and survive
    restarts; the default private :class:`~repro.store.MemoryStore`
    keeps the old in-process behavior).
    Unrecoverable jobs are parked by the daemon
    (:meth:`~repro.apst.daemon.APSTDaemon.record_failure`), the one place
    a job fails, whatever route ran it.
    """

    store: JobStore = field(default_factory=MemoryStore)

    def account(self, tenant: str) -> TenantAccount:
        """Snapshot of ``tenant``'s accumulated usage (zeroes if unknown)."""
        return self.store.tenant_usage(tenant)

    def accounts(self) -> list[TenantAccount]:
        return self.store.tenant_usages()

    def register(self, spec: ServiceJobSpec) -> None:
        self.store.tenant_charge(spec.tenant, submitted=1)

    def charge(self, tenant: str, worker_seconds: float) -> None:
        """Charge lease occupancy (workers held x seconds held) to a tenant."""
        if worker_seconds < 0:
            raise ServiceError(
                f"cannot charge negative worker-seconds ({worker_seconds})"
            )
        self.store.tenant_charge(tenant, worker_seconds=worker_seconds)

    def complete(self, spec: ServiceJobSpec) -> None:
        self.store.tenant_charge(spec.tenant, completed=1)

    def usage(self, tenant: str) -> float:
        return self.store.tenant_usage(tenant).worker_seconds

    def admission_order(self, queued: Sequence[ServiceJobSpec]) -> list[ServiceJobSpec]:
        """Deterministic admission order of the currently queued jobs.

        Priority (descending), then least-served tenant, then arrival,
        then job id.  Tenant usage is snapshotted at sort time, so as a
        heavy tenant accumulates worker-seconds its later jobs drop
        behind lighter tenants of equal priority.
        """
        return sorted(
            queued,
            key=lambda s: (-s.priority, self.usage(s.tenant), s.arrival, s.job_id),
        )
