"""Scheduler protocol shared by every DLS algorithm in APST-DV.

The APST-DV daemon is event-driven: whenever the serialized master link is
free, it asks the active scheduling algorithm for the *next dispatch* (a
worker and a chunk size); whenever a chunk arrives at a worker or finishes
computing, it notifies the algorithm.  All five algorithm families of the
paper (SIMPLE-n, UMR, Weighted Factoring, RUMR, Fixed-RUMR) -- plus our
extension algorithms -- implement this one interface, so the simulation
backend and the real local-execution backend drive them identically.

Conventions
-----------
* Load is measured in abstract units; ``total_load`` is the full load ``W``.
* ``configure()`` receives per-worker *resource estimates* (from probing, or
  the true platform in perfect-information mode).  SIMPLE-n ignores them,
  matching the paper ("No probing is used").
* The driver quantizes every requested chunk to the application's valid
  cut-off points (Section 3.4 of the paper) and tells the algorithm the
  size actually dispatched via ``notify_dispatched``; algorithms must
  tolerate small deviations from what they asked for.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from .._util import check_positive
from ..errors import SchedulingError
from ..platform.resources import WorkerSpec


@dataclass(frozen=True)
class DispatchRequest:
    """A scheduling decision: send ``units`` of load to worker ``worker_index``.

    ``round_index`` and ``phase`` are labels carried into the execution
    report (the paper's report distinguishes UMR rounds from Factoring
    rounds, which is how the late-phase-switch bug was found).
    """

    worker_index: int
    units: float
    round_index: int = 0
    phase: str = "default"

    def __post_init__(self) -> None:
        if self.worker_index < 0:
            raise SchedulingError(f"invalid worker index {self.worker_index}")
        if self.units <= 0:
            raise SchedulingError(f"dispatch must carry positive load, got {self.units}")


@dataclass(slots=True)
class ChunkInfo:
    """Driver-side record of a dispatched chunk, as seen by schedulers."""

    chunk_id: int
    worker_index: int
    units: float
    round_index: int
    phase: str


@dataclass
class WorkerState:
    """Dynamic view of one worker, maintained by the driver.

    Schedulers read this to make greedy decisions (e.g. Weighted Factoring
    dispatches to workers whose outstanding backlog is low).
    """

    index: int
    name: str
    #: chunks transferred (or in transfer) but not yet finished computing
    outstanding: int = 0
    #: units in the outstanding backlog
    outstanding_units: float = 0.0
    completed_chunks: int = 0
    completed_units: float = 0.0
    #: sum of observed compute times (excludes queue/transfer time)
    busy_time: float = 0.0

    @property
    def observed_rate(self) -> float | None:
        """Units/second actually delivered so far (None before first chunk).

        Includes the per-chunk computation start-up cost, which is exactly
        what an application-level observer (APST-DV) can measure.
        """
        if self.busy_time <= 0 or self.completed_units <= 0:
            return None
        return self.completed_units / self.busy_time


@dataclass
class SchedulerConfig:
    """Everything an algorithm may need at configuration time."""

    estimates: list[WorkerSpec]
    total_load: float
    #: smallest dispatchable chunk / division granularity, in units
    quantum: float = 1.0

    def __post_init__(self) -> None:
        if not self.estimates:
            raise SchedulingError("scheduler configured with zero workers")
        check_positive("total_load", self.total_load, SchedulingError)
        check_positive("quantum", self.quantum, SchedulingError)
        if self.total_load < self.quantum:
            raise SchedulingError(
                f"total load {self.total_load} below division quantum {self.quantum}"
            )

    @property
    def num_workers(self) -> int:
        return len(self.estimates)

    @property
    def total_speed(self) -> float:
        return sum(w.speed for w in self.estimates)


class Scheduler(ABC):
    """Base class of every DLS algorithm.

    Lifecycle::

        s = SomeScheduler(...)
        s.configure(config)              # once, after probing
        while not driver done:
            req = s.next_dispatch(now, workers)   # when link is free
            ...driver quantizes, transfers...
            s.notify_dispatched(chunk)
            ...on arrival...     s.notify_arrival(chunk, now)
            ...on completion...  s.notify_completion(chunk, now, predicted, actual)
    """

    #: registry name; subclasses override (e.g. "umr", "wf", "simple-5")
    name: str = "abstract"
    #: whether the daemon should run a probe round first (paper Section 3.5)
    uses_probing: bool = True

    def __init__(self) -> None:
        self._config: SchedulerConfig | None = None
        self._dispatched_units = 0.0

    # -- configuration -----------------------------------------------------
    def configure(self, config: SchedulerConfig) -> None:
        """Receive resource estimates and the total load; builds the plan."""
        self._config = config
        self._dispatched_units = 0.0
        self._plan(config)

    @property
    def config(self) -> SchedulerConfig:
        if self._config is None:
            raise SchedulingError(f"{type(self).__name__} used before configure()")
        return self._config

    @property
    def configured(self) -> bool:
        return self._config is not None

    @property
    def dispatched_units(self) -> float:
        """Units handed to the driver so far (maintained by notify_dispatched)."""
        return self._dispatched_units

    @property
    def remaining_units(self) -> float:
        return max(0.0, self.config.total_load - self._dispatched_units)

    # -- hooks for subclasses ----------------------------------------------
    @abstractmethod
    def _plan(self, config: SchedulerConfig) -> None:
        """Build internal dispatch state from the configuration."""

    @abstractmethod
    def next_dispatch(self, now: float, workers: list[WorkerState]) -> DispatchRequest | None:
        """Next chunk to send, or None if nothing should be sent right now.

        Called whenever the master link is free.  Returning None does not
        end the run; the driver will ask again after the next event.
        """

    def notify_dispatched(self, chunk: ChunkInfo) -> None:
        """The driver committed ``chunk`` (possibly re-quantized) to the link."""
        self._dispatched_units += chunk.units

    def notify_arrival(self, chunk: ChunkInfo, now: float) -> None:
        """Chunk fully received by its worker (default: ignore)."""

    def notify_completion(
        self, chunk: ChunkInfo, now: float, predicted_time: float, actual_time: float
    ) -> None:
        """Chunk finished computing (default: ignore).

        ``predicted_time`` is the estimate-based compute time, ``actual_time``
        the observed one; adaptive algorithms (Weighted Factoring, online
        RUMR) refine their models from the ratio.
        """

    # -- shared helpers ------------------------------------------------------
    def annotations(self) -> dict:
        """Algorithm-specific facts to embed in the execution report."""
        return {}

    def speed_weights(self, estimates: list[WorkerSpec]) -> list[float]:
        """Normalized speed weights w_i = S_i / sum(S) (weighted factoring)."""
        total = sum(w.speed for w in estimates)
        if total <= 0:
            raise SchedulingError("total estimated speed must be positive")
        return [w.speed / total for w in estimates]

    def done_dispatching(self) -> bool:
        """True when the whole load has been handed to the driver."""
        return self.remaining_units <= 1e-9 * max(1.0, self.config.total_load)
