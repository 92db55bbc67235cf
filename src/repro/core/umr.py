"""UMR: Uniform Multi-Round scheduling [Yang & Casanova, IPDPS 2003].

UMR dispatches the load in rounds whose sizes grow geometrically so that
the master finishes sending round *j+1* exactly when the workers finish
computing round *j* -- maximal communication/computation overlap under
affine costs on a serialized master link.  Its advances over earlier
multi-round algorithms (paper Section 3.6): affine communication *and*
computation costs, a near-optimal number of rounds, and heterogeneous
platforms.

Model and derivation
--------------------
Worker *i* computes a chunk of ``a`` units in ``cLat_i + a / S_i`` and the
master link is occupied for ``nLat_i + a / B_i`` to send it.  In round *j*
every worker computes for the same duration ``T_j`` (the "uniform" in UMR),
so worker *i*'s chunk is ``a_{j,i} = S_i (T_j - cLat_i)``.  Requiring the
dispatch of round *j+1* to fill exactly the computation of round *j*::

    sum_i (nLat_i + a_{j+1,i} / B_i) = T_j

yields the linear recurrence ``T_{j+1} = (T_j - A) / rho`` with::

    rho = sum_i S_i / B_i
    A   = sum_i (nLat_i - S_i cLat_i / B_i)

i.e. geometric growth with ratio ``q = 1/rho`` around the fixed point
``mu = A / (1 - rho)``.  Load conservation fixes ``T_0`` for any round
count ``M`` (closed-form geometric sum), and the predicted makespan is::

    makespan(M) ~= D_0(M) + sum_j T_j = D_0(M) + (W + M * C) / sum_i S_i

with ``D_0`` the serialized dispatch time of round 0 and
``C = sum_i S_i cLat_i``; more rounds shrink the un-overlapped first
dispatch but pay more start-up cost.  We select ``M`` by direct search
over the integers, which matches the original paper's "near-optimal
number of rounds" without its continuous relaxation machinery.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from ..errors import InfeasibleScheduleError, SchedulingError
from ..platform.resources import WorkerSpec
from .base import DispatchRequest, Scheduler, SchedulerConfig, WorkerState

#: Largest round count the optimizer will consider.
MAX_ROUNDS = 128

#: Relative makespan tolerance for preferring fewer rounds among near ties.
ROUND_TIE_TOLERANCE = 1e-3


@dataclass(frozen=True)
class UMRPlanStats:
    """Diagnostics of a computed UMR plan."""

    num_rounds: int
    t0: float
    predicted_makespan: float
    first_dispatch: float
    fixed_point: float
    growth_ratio: float


@dataclass
class UMRPlan:
    """A concrete multi-round plan: ``rounds[j][i]`` = units for worker i."""

    rounds: list[list[float]]
    stats: UMRPlanStats

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_units(self) -> float:
        return sum(sum(r) for r in self.rounds)

    def round_totals(self) -> list[float]:
        return [sum(r) for r in self.rounds]


def compute_umr_plan(
    estimates: list[WorkerSpec],
    total_load: float,
    *,
    quantum: float = 1.0,
    max_rounds: int = MAX_ROUNDS,
) -> UMRPlan:
    """Build the UMR round plan for a heterogeneous platform.

    Raises
    ------
    InfeasibleScheduleError
        If no round count admits non-negative chunks (the caller falls
        back to a one-round proportional split).
    """
    if not estimates:
        raise SchedulingError("UMR needs at least one worker")
    if total_load <= 0:
        raise SchedulingError("UMR needs positive load")

    speeds = [w.speed for w in estimates]
    stot = sum(speeds)
    rho = sum(w.speed / w.bandwidth for w in estimates)
    big_c = sum(w.speed * w.comp_latency for w in estimates)
    big_a = sum(w.comm_latency - w.speed * w.comp_latency / w.bandwidth for w in estimates)
    mu = big_a / (1.0 - rho) if rho != 1.0 else math.inf
    q = 1.0 / rho

    # Smallest feasible per-round compute time: every worker's chunk must be
    # at least one quantum.
    t_min = max(w.comp_latency + quantum / w.speed for w in estimates)
    t_floor = t_min - 1e-9

    best: tuple[float, int, float] | None = None  # (makespan, M, T_0)
    for m in range(1, max_rounds + 1):
        sum_t = (total_load + m * big_c) / stot
        t0 = _solve_t0(sum_t, m, q, mu, big_a, rho)
        if t0 is None:
            continue
        # Walk T_0..T_{M-1} by the recurrence (explicit iteration, not the
        # closed form T_j = mu + (T_0 - mu) q^j used for the solve, which
        # would need q**j blowup checks), summing left to right.  A round
        # shorter than the floor rejects the candidate, so the walk stops
        # at the first one.  (rho == 1 needs no special case: dividing by
        # 1.0 is exact.)
        t = series_sum = t0
        for _ in range(m - 1):
            if t < t_floor:
                break
            t = (t - big_a) / rho
            series_sum += t
        if t < t_floor:
            continue
        # Numeric degeneracy guard: for large M the closed-form T_0 can sit
        # within float epsilon of the fixed point, in which case the
        # iterated series no longer satisfies load conservation at all.
        realized = stot * series_sum - m * big_c
        if abs(realized - total_load) > 1e-3 * total_load:
            continue
        d0 = sum(
            w.comm_latency + w.speed * (t0 - w.comp_latency) / w.bandwidth
            for w in estimates
        )
        makespan = d0 + sum_t
        if best is None or makespan < best[0] * (1.0 - ROUND_TIE_TOLERANCE):
            best = (makespan, m, t0)

    if best is None:
        raise InfeasibleScheduleError(
            f"no feasible UMR round count for load {total_load} "
            f"(t_min={t_min:.3f}s)"
        )

    makespan, m, t0 = best
    rounds = []
    t = t0
    for _ in range(m):
        rounds.append([w.speed * (t - w.comp_latency) for w in estimates])
        t = (t - big_a) / rho
    _normalize_total(rounds, total_load)
    d0 = sum(
        w.comm_latency + w.speed * (t0 - w.comp_latency) / w.bandwidth
        for w in estimates
    )
    return UMRPlan(
        rounds=rounds,
        stats=UMRPlanStats(
            num_rounds=m,
            t0=t0,
            predicted_makespan=makespan,
            first_dispatch=d0,
            fixed_point=mu,
            growth_ratio=q,
        ),
    )


def _solve_t0(
    sum_t: float, m: int, q: float, mu: float, a: float, rho: float
) -> float | None:
    """T_0 from load conservation: sum of the T_j series equals ``sum_t``."""
    if rho == 1.0:
        # arithmetic series: T_j = T_0 - j*A
        t0 = (sum_t + a * m * (m - 1) / 2.0) / m
        return t0 if math.isfinite(t0) and t0 > 0 else None
    if abs(q - 1.0) < 1e-12:
        t0 = sum_t / m
        return t0 if t0 > 0 else None
    try:
        geom = (q**m - 1.0) / (q - 1.0)
    except OverflowError:
        return None
    if not math.isfinite(geom) or geom <= 0:
        return None
    t0 = mu + (sum_t - m * mu) / geom
    return t0 if math.isfinite(t0) and t0 > 0 else None


def _normalize_total(rounds: list[list[float]], total_load: float) -> None:
    """Clamp negatives and rescale so the plan carries exactly the load."""
    for r in rounds:
        for i, a in enumerate(r):
            if a < 0:
                r[i] = 0.0
    planned = sum(sum(r) for r in rounds)
    if planned <= 0:
        raise InfeasibleScheduleError("UMR plan degenerated to zero load")
    scale = total_load / planned
    for r in rounds:
        for i in range(len(r)):
            r[i] *= scale


def proportional_one_round(
    estimates: list[WorkerSpec], total_load: float
) -> UMRPlan:
    """Fallback: a single round with chunks proportional to worker speed."""
    stot = sum(w.speed for w in estimates)
    chunks = [total_load * w.speed / stot for w in estimates]
    d0 = sum(w.comm_latency + c / w.bandwidth for w, c in zip(estimates, chunks))
    t = max(w.comp_latency + c / w.speed for w, c in zip(estimates, chunks))
    return UMRPlan(
        rounds=[chunks],
        stats=UMRPlanStats(
            num_rounds=1,
            t0=t,
            predicted_makespan=d0 + t,
            first_dispatch=d0,
            fixed_point=math.nan,
            growth_ratio=math.nan,
        ),
    )


class UMR(Scheduler):
    """UMR scheduler: precomputed round plan, greedily streamed to the link.

    The plan is dispatched round-major in worker order whenever the master
    link is free -- which lets transfers run *ahead* of computation exactly
    as a greedy real master does.  UMR performs no online adaptation
    (paper Section 3.6: "SIMPLE-n and UMR do not perform such adaptation").
    """

    name = "umr"
    uses_probing = True

    def __init__(self, *, max_rounds: int = MAX_ROUNDS) -> None:
        super().__init__()
        self._max_rounds = max_rounds
        self._plan_obj: UMRPlan | None = None
        self._queue: deque[DispatchRequest] = deque()
        self._fallback = False

    @property
    def plan(self) -> UMRPlan:
        if self._plan_obj is None:
            raise SchedulingError("UMR not configured")
        return self._plan_obj

    def _plan(self, config: SchedulerConfig) -> None:
        try:
            plan = compute_umr_plan(
                config.estimates,
                config.total_load,
                quantum=config.quantum,
                max_rounds=self._max_rounds,
            )
            self._fallback = False
        except InfeasibleScheduleError:
            plan = proportional_one_round(config.estimates, config.total_load)
            self._fallback = True
        self._plan_obj = plan
        self._queue = self._build_queue(plan, phase="umr")

    @staticmethod
    def _build_queue(
        plan: UMRPlan, *, phase: str, quantum_floor: float = 0.0
    ) -> deque[DispatchRequest]:
        queue: deque[DispatchRequest] = deque()
        for j, round_chunks in enumerate(plan.rounds):
            for i, units in enumerate(round_chunks):
                if units <= quantum_floor:
                    continue
                queue.append(
                    DispatchRequest(
                        worker_index=i, units=units, round_index=j, phase=phase
                    )
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
            return DispatchRequest(
                worker_index=request.worker_index,
                units=units,
                round_index=request.round_index,
                phase=request.phase,
            )
        remaining = self.remaining_units
        if remaining > 0 and not self.done_dispatching():
            # quantization slack: append to the fastest worker's tail
            fastest = max(
                range(len(self.config.estimates)),
                key=lambda i: self.config.estimates[i].speed,
            )
            return DispatchRequest(
                worker_index=fastest,
                units=remaining,
                round_index=self.plan.num_rounds,
                phase="umr",
            )
        return None

    def annotations(self) -> dict:
        plan = self._plan_obj
        if plan is None:
            return {}
        return {
            "umr_rounds": plan.num_rounds,
            "umr_t0": round(plan.stats.t0, 3),
            "umr_growth_ratio": round(plan.stats.growth_ratio, 3),
            "umr_predicted_makespan": round(plan.stats.predicted_makespan, 1),
            "umr_fallback_one_round": self._fallback,
        }
