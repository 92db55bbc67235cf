"""Multi-job scheduling service: concurrent divisible-load jobs.

The paper's APST-DV daemon runs one application at a time.  This package
turns it into a shared *service*: an admission queue with priorities and
per-tenant fair share (:mod:`~repro.service.manager`), a worker-lease
arbiter partitioning the Grid among concurrent jobs
(:mod:`~repro.service.arbiter`), an epoch-driven clock interleaving the
per-job simulations (:mod:`~repro.service.clock`), service-level metrics
(:mod:`~repro.service.report`), and a daemon-backed facade
(:mod:`~repro.service.service`).
"""

from .arbiter import POLICIES, LeaseRequest, WorkerLeaseArbiter
from .clock import LeaseSegment, ServiceClock, ServiceOutcome
from .manager import JobManager, ServiceJobSpec, TenantAccount
from .report import JobServiceRecord, ServiceReport
from .service import MultiJobService

__all__ = [
    "POLICIES",
    "JobManager",
    "JobServiceRecord",
    "LeaseRequest",
    "LeaseSegment",
    "MultiJobService",
    "ServiceClock",
    "ServiceJobSpec",
    "ServiceOutcome",
    "ServiceReport",
    "TenantAccount",
    "WorkerLeaseArbiter",
]
