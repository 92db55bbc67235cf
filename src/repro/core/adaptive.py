"""Adaptive UMR: the paper's stated future work, implemented.

Section 6: "We will also implement an adaptive version of RUMR that
updates its view of the platform after each sub-task completes."  This
module provides that algorithm for the UMR phase: after every completed
chunk it refines the per-worker speed estimate (EWMA on observed rates)
and, at each *round boundary of the dispatch queue*, re-plans the
remaining rounds with the refreshed estimates.

Re-planning is restricted to load that has not started transmitting --
the same physical constraint that bites online RUMR -- so adaptation helps
most in the early and middle rounds.  The ablation bench compares it
against stock UMR under probe error and uncertainty.
"""

from __future__ import annotations

from collections import deque

from ..errors import InfeasibleScheduleError
from ..platform.resources import WorkerSpec
from .base import ChunkInfo, DispatchRequest, Scheduler, SchedulerConfig, WorkerState
from .factoring import ADAPTATION_GAIN
from .umr import UMR, compute_umr_plan, proportional_one_round


#: Re-planning is only worthwhile when the platform view actually moved:
#: a fresh UMR plan restarts the chunk-size ramp, which costs overlap, so
#: below this relative speed deviation the current plan is kept.
REPLAN_SPEED_THRESHOLD = 0.05


class AdaptiveUMR(Scheduler):
    """UMR with per-completion speed refinement and round-boundary re-planning."""

    name = "adaptive-umr"
    uses_probing = True

    def __init__(
        self,
        *,
        adaptation_gain: float = ADAPTATION_GAIN,
        max_rounds: int = 128,
        replan_threshold: float = REPLAN_SPEED_THRESHOLD,
    ) -> None:
        super().__init__()
        self._gain = adaptation_gain
        self._max_rounds = max_rounds
        self._replan_threshold = replan_threshold
        self._queue: deque[DispatchRequest] = deque()
        self._speeds: list[float] = []
        self._rounds_started: set[int] = set()
        self._round_offset = 0
        self._replans = 0
        self._completions_since_replan = 0

    def _plan(self, config: SchedulerConfig) -> None:
        self._speeds = [w.speed for w in config.estimates]
        self._planned_speeds = list(self._speeds)
        self._rounds_started = set()
        self._round_offset = 0
        self._replans = 0
        self._completions_since_replan = 0
        self._queue = self._build_plan(config.total_load, config)

    def _current_estimates(self) -> list[WorkerSpec]:
        return [
            WorkerSpec(
                name=w.name,
                speed=self._speeds[i],
                bandwidth=w.bandwidth,
                comm_latency=w.comm_latency,
                comp_latency=w.comp_latency,
                cluster=w.cluster,
            )
            for i, w in enumerate(self.config.estimates)
        ]

    def _build_plan(self, load: float, config: SchedulerConfig) -> deque[DispatchRequest]:
        estimates = (
            self._current_estimates() if self._speeds else list(config.estimates)
        )
        try:
            plan = compute_umr_plan(
                estimates, load, quantum=config.quantum, max_rounds=self._max_rounds
            )
        except InfeasibleScheduleError:
            plan = proportional_one_round(estimates, load)
        queue = UMR._build_queue(plan, phase="adaptive-umr")
        if self._round_offset:
            queue = deque(
                DispatchRequest(
                    worker_index=r.worker_index,
                    units=r.units,
                    round_index=r.round_index + self._round_offset,
                    phase=r.phase,
                )
                for r in queue
            )
        return queue

    def next_dispatch(self, now: float, workers: list[WorkerState]) -> DispatchRequest | None:
        while self._queue:
            request = self._queue[0]
            remaining = self.remaining_units
            if remaining <= 0:
                self._queue.clear()
                return None
            self._queue.popleft()
            units = min(request.units, remaining)
            if units <= 0:
                continue
            self._rounds_started.add(request.round_index)
            return DispatchRequest(
                worker_index=request.worker_index,
                units=units,
                round_index=request.round_index,
                phase=request.phase,
            )
        remaining = self.remaining_units
        if remaining > 0 and not self.done_dispatching():
            fastest = max(range(len(self._speeds)), key=lambda i: self._speeds[i])
            return DispatchRequest(
                worker_index=fastest,
                units=remaining,
                round_index=self._round_offset + 1,
                phase="adaptive-umr",
            )
        return None

    def notify_completion(
        self, chunk: ChunkInfo, now: float, predicted_time: float, actual_time: float
    ) -> None:
        latency = self.config.estimates[chunk.worker_index].comp_latency
        effective = actual_time - latency
        if effective > 0 and chunk.units > 0:
            observed = chunk.units / effective
            self._speeds[chunk.worker_index] = (
                (1.0 - self._gain) * self._speeds[chunk.worker_index]
                + self._gain * observed
            )
        self._completions_since_replan += 1
        if self._completions_since_replan >= len(self._speeds):
            self._completions_since_replan = 0
            self._maybe_replan()

    def _maybe_replan(self) -> None:
        """Re-plan the rounds that have not started transmitting."""
        deviation = max(
            abs(s - p) / p for s, p in zip(self._speeds, self._planned_speeds)
        )
        if deviation < self._replan_threshold:
            return
        future = [r for r in self._queue if r.round_index not in self._rounds_started]
        if not future:
            return
        load = sum(r.units for r in future)
        if load < self.config.quantum * len(self._speeds):
            return
        keep = [r for r in self._queue if r.round_index in self._rounds_started]
        self._round_offset = 1 + max(
            (r.round_index for r in keep),
            default=max(self._rounds_started, default=-1),
        )
        self._queue = deque(keep)
        self._queue.extend(self._build_plan(load, self.config))
        self._planned_speeds = list(self._speeds)
        self._replans += 1

    def annotations(self) -> dict:
        return {"adaptive_umr_replans": self._replans}
