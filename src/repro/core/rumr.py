"""RUMR and Fixed-RUMR: robust two-phase scheduling [Yang & Casanova, HPDC'03].

RUMR splits execution into two phases: a **UMR phase** that grows chunk
sizes for maximal communication/computation overlap, then a **Weighted
Factoring phase** that shrinks chunks to absorb uncertainty at the end of
the run.  The original algorithm assumes the uncertainty level ``gamma``
is known in advance and pre-computes the switch point.

APST-DV has no advance knowledge of gamma, so this implementation --
mirroring the paper's prototype -- *discovers* gamma online: after each
chunk completion it pools the within-worker coefficient of variation of
(observed / predicted) compute times and commits to the Factoring phase
once the estimate is statistically significant.  Two structural facts make
this reproduce the paper's central negative result:

1. the master link dispatches the UMR plan greedily, running *ahead* of
   computation, and chunk sizes grow geometrically -- so the final (very
   large) round starts transmitting long before the run ends;
2. the switch can only claim **whole rounds that have not started
   transmitting** (a chunk on the wire cannot be recalled).

At moderate uncertainty (gamma = 10%) the significance test resolves only
after the final round is on the wire, so "Factoring is in fact never used"
and RUMR degenerates to UMR.  At high uncertainty (20%, the case study)
the estimate resolves within the first rounds and the switch succeeds in
every run.  At gamma = 0 nothing triggers and RUMR *is* UMR, as the paper
notes.  The execution report records the outcome (``rumr_switched`` /
``rumr_switch_too_late``), just as the authors used APST-DV's detailed
report to diagnose the problem.

**Fixed-RUMR** sidesteps detection entirely: it always schedules a fixed
fraction (80% in the paper) of the load in the UMR phase.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from ..errors import InfeasibleScheduleError, SchedulingError
from ..platform.resources import WorkerSpec
from .base import ChunkInfo, DispatchRequest, Scheduler, SchedulerConfig, WorkerState
from .factoring import ADAPTATION_GAIN, WeightedFactoring
from .umr import UMR, UMRPlan, compute_umr_plan, proportional_one_round

#: Minimum gamma worth switching for: below this, UMR alone wins (the RUMR
#: paper shows Factoring's overlap loss outweighs its robustness gain for
#: low uncertainty).  Note this sits just below the paper's "moderate"
#: uncertainty level (10%): detection at gamma ~= 10% therefore converges
#: slowly -- which is precisely the regime where the paper observed the
#: switch resolving only after the final round was on the wire.
GAMMA_SWITCH_THRESHOLD = 0.095

#: One-sided confidence multiplier for the gamma lower confidence bound.
GAMMA_CONFIDENCE_Z = 1.645

#: Desired Factoring-phase fraction as a function of the estimated gamma.
PHASE2_SCALE = 2.5
PHASE2_MAX_FRACTION = 0.5

#: The switch only proceeds if the reclaimable (undispatched whole-round)
#: load covers at least this share of the desired Factoring-phase load.
MIN_USEFUL_SWITCH = 0.5


@dataclass
class GammaEstimator:
    """Online estimate of compute-time uncertainty from chunk residuals.

    Residuals are (actual / predicted) chunk compute times.  Pooling the
    coefficient of variation *within each worker* removes the constant
    per-worker bias that single-sample probing leaves in the predictions,
    isolating the run-to-run uncertainty RUMR actually cares about.
    """

    samples: dict[int, list[float]] = field(default_factory=dict)
    #: worker -> (n, sum, squared-deviation sum) of its residuals, kept in
    #: step with ``samples`` so a completion re-sums one worker, not all
    _parts: dict[int, tuple[int, float, float]] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        for worker_index, residuals in self.samples.items():
            self._parts[worker_index] = self._summarize(residuals)

    @staticmethod
    def _summarize(residuals: list[float]) -> tuple[int, float, float]:
        n = len(residuals)
        total = sum(residuals)
        if n < 2:
            return n, total, 0.0
        mean = total / n
        return n, total, sum((r - mean) ** 2 for r in residuals)

    def add(self, worker_index: int, residual: float) -> None:
        if residual <= 0 or not math.isfinite(residual):
            return
        residuals = self.samples.setdefault(worker_index, [])
        residuals.append(residual)
        self._parts[worker_index] = self._summarize(residuals)

    @property
    def total_samples(self) -> int:
        return sum(n for n, _, _ in self._parts.values())

    @property
    def effective_samples(self) -> int:
        """Degrees of freedom of the pooled within-worker variance."""
        return sum(max(0, n - 1) for n, _, _ in self._parts.values()) + 1

    def pooled_cov(self) -> float:
        """Pooled within-worker coefficient of variation of residuals."""
        sq_sum = 0.0
        dof = 0
        total = 0.0
        count = 0
        for n, worker_total, worker_sq_sum in self._parts.values():
            total += worker_total
            count += n
            if n < 2:
                continue
            sq_sum += worker_sq_sum
            dof += n - 1
        if dof < 1 or count == 0:
            return 0.0
        grand_mean = total / count
        if grand_mean <= 0:
            return 0.0
        return math.sqrt(sq_sum / dof) / grand_mean

    def lower_confidence_bound(self, z: float = GAMMA_CONFIDENCE_Z) -> float:
        """One-sided lower confidence bound on the CoV estimate."""
        cov = self.pooled_cov()
        dof = self.effective_samples - 1
        if dof < 1:
            return 0.0
        return cov * max(0.0, 1.0 - z / math.sqrt(2.0 * dof))


class RUMR(Scheduler):
    """RUMR with online gamma discovery (``fixed_phase2_fraction=None``)
    or the Fixed-RUMR variant (e.g. ``fixed_phase2_fraction=0.2``).

    Parameters
    ----------
    fixed_phase2_fraction:
        If set, skip gamma detection and always schedule this fraction of
        the load in the Factoring phase (the paper's Fixed-RUMR uses 0.2,
        i.e. "always schedules 80% of the load in the first phase").
    gamma_threshold / confidence_z:
        Online detection: switch once the lower confidence bound of the
        estimated gamma exceeds ``gamma_threshold``.
    """

    uses_probing = True

    def __init__(
        self,
        *,
        fixed_phase2_fraction: float | None = None,
        gamma_threshold: float = GAMMA_SWITCH_THRESHOLD,
        confidence_z: float = GAMMA_CONFIDENCE_Z,
        phase2_scale: float = PHASE2_SCALE,
        phase2_max_fraction: float = PHASE2_MAX_FRACTION,
        min_useful_switch: float = MIN_USEFUL_SWITCH,
        adaptation_gain: float = ADAPTATION_GAIN,
        max_rounds: int = 128,
    ) -> None:
        super().__init__()
        if fixed_phase2_fraction is not None and not 0.0 < fixed_phase2_fraction < 1.0:
            raise SchedulingError(
                f"fixed phase-2 fraction must be in (0,1), got {fixed_phase2_fraction}"
            )
        self._fixed_fraction = fixed_phase2_fraction
        self.name = "fixed-rumr" if fixed_phase2_fraction is not None else "rumr"
        self._gamma_threshold = gamma_threshold
        self._z = confidence_z
        self._phase2_scale = phase2_scale
        self._phase2_max = phase2_max_fraction
        self._min_useful = min_useful_switch
        self._gain = adaptation_gain
        self._max_rounds = max_rounds

        self._umr_plan: UMRPlan | None = None
        self._umr_queue: deque[DispatchRequest] = deque()
        self._rounds_started: set[int] = set()
        self._wf: WeightedFactoring | None = None
        self._speeds: list[float] = []
        self._estimator = GammaEstimator()
        self._switched = False
        self._switch_time: float | None = None
        self._switch_too_late = False
        self._detection_time: float | None = None
        self._phase2_load = 0.0
        self._undispatched_at_detection: float | None = None
        self._samples_at_detection = 0

    # -- planning -------------------------------------------------------------
    def _plan(self, config: SchedulerConfig) -> None:
        self._speeds = [w.speed for w in config.estimates]
        self._estimator = GammaEstimator()
        self._rounds_started = set()
        self._wf = None
        self._switched = False
        self._switch_time = None
        self._switch_too_late = False
        self._detection_time = None
        self._phase2_load = 0.0
        self._undispatched_at_detection = None

        if self._fixed_fraction is not None:
            umr_load = config.total_load * (1.0 - self._fixed_fraction)
            self._phase2_load = config.total_load - umr_load
        else:
            umr_load = config.total_load
        try:
            plan = compute_umr_plan(
                config.estimates,
                umr_load,
                quantum=config.quantum,
                max_rounds=self._max_rounds,
            )
        except InfeasibleScheduleError:
            plan = proportional_one_round(config.estimates, umr_load)
        self._umr_plan = plan
        self._umr_queue = UMR._build_queue(plan, phase="rumr-umr")

    # -- dispatch ------------------------------------------------------------
    def next_dispatch(self, now: float, workers: list[WorkerState]) -> DispatchRequest | None:
        remaining = self.remaining_units
        if remaining <= 0:
            return None
        while self._umr_queue:
            request = self._umr_queue[0]
            if remaining <= self._phase2_reserved():
                # everything left belongs to the Factoring phase
                self._umr_queue.clear()
                break
            self._umr_queue.popleft()
            units = min(request.units, remaining - self._phase2_reserved())
            if units <= 0:
                continue
            self._rounds_started.add(request.round_index)
            return DispatchRequest(
                worker_index=request.worker_index,
                units=units,
                round_index=request.round_index,
                phase=request.phase,
            )
        # UMR queue exhausted.  If online RUMR never switched, it degenerates
        # to pure UMR (the paper's gamma = 0 observation): hand any
        # quantization sliver to the fastest worker rather than opening a
        # Factoring phase for it.
        if (
            remaining > 0
            and self._fixed_fraction is None
            and not self._switched
            and self._wf is None
        ):
            estimates = self.config.estimates
            fastest = max(
                range(len(estimates)), key=lambda i: estimates[i].speed
            )
            rounds = self._umr_plan.num_rounds if self._umr_plan else 0
            return DispatchRequest(
                worker_index=fastest,
                units=remaining,
                round_index=rounds,
                phase="rumr-umr",
            )
        # Enter (or continue) the Factoring phase.
        if remaining > 0:
            wf = self._ensure_phase2(now)
            inner = wf.next_dispatch(now, workers)
            if inner is None:
                return None
            offset = self._umr_plan.num_rounds if self._umr_plan else 0
            return DispatchRequest(
                worker_index=inner.worker_index,
                units=inner.units,
                round_index=offset + inner.round_index,
                phase="rumr-factoring",
            )
        return None

    def _phase2_reserved(self) -> float:
        """Load reserved for the Factoring phase (0 until a switch exists)."""
        if self._fixed_fraction is not None or self._switched:
            return 0.0 if self._wf_started() else self._phase2_load
        return 0.0

    def _wf_started(self) -> bool:
        return self._wf is not None

    def _ensure_phase2(self, now: float) -> WeightedFactoring:
        if self._wf is None:
            estimates = [
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
            wf = WeightedFactoring(adaptation_gain=self._gain)
            wf.configure(
                SchedulerConfig(
                    estimates=estimates,
                    total_load=max(self.remaining_units, self.config.quantum),
                    quantum=self.config.quantum,
                )
            )
            self._wf = wf
            if self._switch_time is None:
                self._switch_time = now
        return self._wf

    # -- notifications ----------------------------------------------------------
    def notify_dispatched(self, chunk: ChunkInfo) -> None:
        super().notify_dispatched(chunk)
        if self._wf is not None and chunk.phase == "rumr-factoring":
            self._wf.notify_dispatched(chunk)

    def notify_completion(
        self, chunk: ChunkInfo, now: float, predicted_time: float, actual_time: float
    ) -> None:
        # online speed refinement (feeds the eventual Factoring phase)
        latency = self.config.estimates[chunk.worker_index].comp_latency
        effective = actual_time - latency
        if effective > 0 and chunk.units > 0:
            observed = chunk.units / effective
            self._speeds[chunk.worker_index] = (
                (1.0 - self._gain) * self._speeds[chunk.worker_index]
                + self._gain * observed
            )
        if self._wf is not None and chunk.phase == "rumr-factoring":
            self._wf.notify_completion(chunk, now, predicted_time, actual_time)
        if predicted_time > 0:
            self._estimator.add(chunk.worker_index, actual_time / predicted_time)
        if self._fixed_fraction is None and not self._switched:
            self._maybe_switch(now)

    # -- the online switch -------------------------------------------------------
    def _maybe_switch(self, now: float) -> None:
        gamma_lcb = self._estimator.lower_confidence_bound(self._z)
        if gamma_lcb <= self._gamma_threshold:
            return
        if self._detection_time is None:
            self._detection_time = now
            self._undispatched_at_detection = sum(r.units for r in self._umr_queue)
            self._samples_at_detection = self._estimator.total_samples
        gamma_hat = self._estimator.pooled_cov()
        desired = min(self._phase2_max, self._phase2_scale * gamma_hat)
        desired_load = desired * self.config.total_load

        # Only whole rounds that have not started transmitting can be
        # reclaimed -- a chunk on the wire cannot be recalled.
        reclaimable = [
            req for req in self._umr_queue if req.round_index not in self._rounds_started
        ]
        reclaim_load = sum(req.units for req in reclaimable)
        if reclaim_load >= self._min_useful * desired_load:
            self._umr_queue = deque(
                req for req in self._umr_queue if req.round_index in self._rounds_started
            )
            self._switched = True
            self._switch_time = now
            self._phase2_load = reclaim_load
        else:
            # too late: the large final round is already on the wire
            self._switch_too_late = True

    def annotations(self) -> dict:
        out = {
            "rumr_mode": "fixed" if self._fixed_fraction is not None else "online",
            "rumr_switched": self._switched or self._fixed_fraction is not None,
            "rumr_switch_too_late": self._switch_too_late and not self._switched,
            "rumr_gamma_estimate": round(self._estimator.pooled_cov(), 4),
            "rumr_phase2_load": round(self._phase2_load, 2),
        }
        if self._fixed_fraction is not None:
            out["rumr_fixed_fraction"] = self._fixed_fraction
        if self._detection_time is not None:
            out["rumr_detection_time"] = round(self._detection_time, 1)
            out["rumr_undispatched_at_detection"] = round(
                self._undispatched_at_detection or 0.0, 1
            )
            out["rumr_samples_at_detection"] = self._samples_at_detection
        if self._switch_time is not None:
            out["rumr_switch_time"] = round(self._switch_time, 1)
        if self._umr_plan is not None:
            out["rumr_umr_rounds"] = self._umr_plan.num_rounds
        return out


def fixed_rumr(fraction: float = 0.2, **kwargs) -> RUMR:
    """The paper's Fixed-RUMR: always ``1 - fraction`` of the load via UMR.

    ``fraction`` is the Factoring-phase share (0.2 = "always schedules 80%
    of the load in the first phase").
    """
    return RUMR(fixed_phase2_fraction=fraction, **kwargs)


#: Below this learned gamma, the Factoring phase is not worth opening and
#: known-gamma RUMR degenerates to pure UMR (the original RUMR behaviour).
MIN_KNOWN_GAMMA_FRACTION = 0.02


def rumr_with_known_gamma(
    gamma: float,
    *,
    phase2_scale: float = PHASE2_SCALE,
    phase2_max_fraction: float = PHASE2_MAX_FRACTION,
    **kwargs,
):
    """Original RUMR [38]: gamma known in advance, switch point pre-planned.

    The Factoring-phase share is ``min(max_fraction, scale * gamma)`` --
    the same sizing rule the online variant applies at detection time,
    but committed before execution, so the switch can never come too
    late.  This is the algorithm the paper says could be recovered by
    learning gamma "from past application executions"; the APST-DV daemon
    does exactly that via :mod:`repro.apst.history` and the
    ``rumr-learned`` algorithm name.

    Returns a stock :class:`~repro.core.umr.UMR` when the known gamma is
    too small for a Factoring phase to pay off.
    """
    if gamma < 0:
        raise SchedulingError(f"gamma must be >= 0, got {gamma}")
    fraction = min(phase2_max_fraction, phase2_scale * gamma)
    if fraction < MIN_KNOWN_GAMMA_FRACTION:
        from .umr import UMR

        scheduler = UMR()
        scheduler.name = "rumr-known"
        return scheduler
    scheduler = RUMR(
        fixed_phase2_fraction=fraction,
        phase2_scale=phase2_scale,
        phase2_max_fraction=phase2_max_fraction,
        **kwargs,
    )
    scheduler.name = "rumr-known"
    return scheduler
