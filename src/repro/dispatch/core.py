"""The backend-agnostic dispatch core: one master loop for every backend.

APST-DV's daemon drives a DLS algorithm over *some* execution mechanism
-- the paper's deployments use Ssh/Scp/Globus, our reproduction uses a
discrete-event simulation, a thread pool, or worker processes -- and the
whole point of the architecture (paper Section 3) is that the scheduler
cannot tell which.  :class:`DispatchCore` is that loop, written once:

1. optionally run a probe round (Section 3.5) to estimate resources;
2. hand the estimates and total load to the DLS algorithm;
3. whenever the serialized master link is free, ask the algorithm for
   the next dispatch, snap the requested size to a valid cut-off point
   via the load's division method, and ship the chunk;
4. deliver arrival/completion notifications back to the algorithm
   (which adaptive algorithms use to refine their resource view);
5. apply the per-chunk retry/retransmit policy to failures;
6. optionally ship output data back over the same link;
7. assemble the detailed :class:`~repro.simulation.trace.ExecutionReport`.

What differs per backend arrives as a
:class:`~repro.dispatch.protocols.DispatchSubstrate` (clock, transport,
compute host, probe cost source), of which there are exactly two
implementations: the simulated one in :mod:`repro.simulation.master` and
the wall-clock kit in :mod:`repro.execution.substrate`, which the thread,
process and socket backends share (each supplies only a worker channel).

Observability (``chunk.dispatched`` / ``chunk.completed`` /
``probe.finished`` events, chunk metrics, probe/plan/run spans) is
emitted here, so every backend is instrumented identically and pays the
same near-zero cost when the shared :data:`~repro.obs.OBS_DISABLED`
handle is in effect.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from ..apst.division import ChunkExtent, DivisionMethod, LoadTracker, UniformUnitsDivision
from ..apst.probing import (
    ProbeResult,
    default_probe_units,
    perfect_information,
    run_probe_phase,
)
from ..core.base import ChunkInfo, DispatchRequest, Scheduler, SchedulerConfig, WorkerState
from ..errors import (
    ExecutionError,
    JobUnrecoverableError,
    SchedulingError,
    SimulationError,
)
from ..obs import (
    CHUNK_COMPLETED,
    CHUNK_DISPATCHED,
    CHUNK_ESCALATED,
    CHUNK_RETRANSMITTED,
    CHUNK_SPECULATED,
    CHUNK_SPECULATION_LOST,
    CHUNK_SPECULATION_WON,
    OBS_DISABLED,
    PROBE_FINISHED,
    ROUND_STARTED,
    WORKER_QUARANTINED,
    Observability,
)
from ..platform.resources import Grid, WorkerSpec
from ..resilience import ResiliencePolicy, StragglerDetector
from ..simulation.trace import ChunkTrace, ExecutionReport
from .protocols import DispatchSubstrate, RetryPolicy

#: Safety bound on simulation events; generous for every paper workload.
MAX_EVENTS = 5_000_000

#: Consecutive idle scheduler polls (with nothing in flight) before the
#: driver declares a stall on hosts where wall time advances on its own.
_MAX_IDLE_TICKS = 1000


@dataclass
class DispatchOptions:
    """Knobs of one dispatched run, meaningful on every backend.

    Parameters
    ----------
    include_probe_time:
        Count the probe round in the reported makespan.  Defaults to
        False: the paper's figures compare application makespans with
        probing as a separate preparatory step (its SIMPLE-n baselines do
        not probe at all, yet UMR still wins by only ~5% over SIMPLE-5 --
        impossible if minutes of probing were billed to UMR).  The probe
        duration is always recorded in the report either way.
    perfect_estimates:
        Skip probing and hand the algorithm the true platform parameters
        (ablation mode).  Shorthand for ``estimate_source="oracle"``.
    estimate_source:
        Where resource estimates come from: ``"probe"`` (application-level
        probing, APST-DV's choice), ``"oracle"`` (the truth, zero cost),
        ``"monitor"`` (an NWS/Ganglia-like monitoring service: zero cost,
        persistent application-translation error -- the paper's Section
        3.5 alternative), or ``"manual"`` (zero cost, caller-supplied
        ``manual_estimates`` -- deliberately-wrong estimates for the
        resilience benches).
    manual_estimates:
        Per-worker specs handed to the scheduler verbatim when
        ``estimate_source="manual"``; must match the grid's worker count.
    monitoring:
        Error model for ``estimate_source="monitor"``.
    probe_units:
        Probe chunk size; None picks :func:`default_probe_units`.
    output_factor:
        Units of output shipped back per unit of input (0 = ignore
        outputs, as in the paper's synthetic experiments; the MPEG-4 case
        study produces compressed output, ~0.1).  Applied only on
        transports that can ship outputs over the link.
    quantum:
        Division granularity when the workload does not carry its own
        division method.
    max_events:
        Safety bound on event-driven hosts (livelock detection).
    observability:
        Optional :class:`~repro.obs.Observability` handle; when set, the
        run emits chunk/round/probe events, records metrics, and feeds
        the engine profiler.  ``None`` (the default) is a strict no-op.
    retry:
        Per-chunk failure policy.  The default (one attempt) fails the
        run on the first chunk failure; a larger ``max_attempts``
        retransmits failed chunks over the serialized link.
    resilience:
        The resilience tier (:class:`~repro.resilience.ResiliencePolicy`).
        ``straggler`` enables speculative re-dispatch of chunks stuck on
        slow workers; ``escalation`` re-dispatches a chunk on a different
        worker once transport retries are exhausted, quarantines workers
        that keep failing, and tolerates probe-phase crashes.  ``None``
        (the default) keeps the pre-resilience behavior: the first
        unretryable failure aborts the run.
    """

    include_probe_time: bool = False
    perfect_estimates: bool = False
    estimate_source: str = "probe"
    monitoring: object | None = None
    manual_estimates: list[WorkerSpec] | None = None
    probe_units: float | None = None
    output_factor: float = 0.0
    quantum: float = 1.0
    max_events: int = MAX_EVENTS
    observability: Observability | None = None
    retry: RetryPolicy = RetryPolicy()
    resilience: ResiliencePolicy | None = None


class DispatchCore:
    """One application run of ``scheduler`` on ``grid`` over a substrate.

    The core owns every backend-independent concern of the master loop;
    the substrate's transport and compute host call back into it
    (:meth:`chunk_arrived`, :meth:`chunk_completed`, :meth:`chunk_failed`,
    :meth:`output_done`) as chunks move through the system.
    """

    def __init__(
        self,
        grid: Grid,
        scheduler: Scheduler,
        total_load: float,
        *,
        substrate: DispatchSubstrate,
        division: DivisionMethod | None = None,
        options: DispatchOptions | None = None,
    ) -> None:
        self._grid = grid
        self._scheduler = scheduler
        self._options = options or DispatchOptions()
        self._division = division or UniformUnitsDivision(
            total=total_load, step=self._options.quantum
        )
        if abs(self._division.total_units - total_load) > 1e-9 * max(1.0, total_load):
            raise SimulationError(
                f"division covers {self._division.total_units} units, "
                f"but total_load is {total_load}"
            )
        self._total_load = float(total_load)
        self._substrate = substrate
        self._clock = substrate.clock
        self._transport = substrate.transport
        self._host = substrate.host
        self._obs = self._options.observability or OBS_DISABLED
        # Cached for the per-chunk hot path: one indirection, no kwargs repack.
        self._bus = self._obs.bus
        self._tracker = LoadTracker(self._division)
        self._states = [
            WorkerState(index=i, name=w.name) for i, w in enumerate(grid.workers)
        ]
        self._estimates: list[WorkerSpec] = []
        self._chunk_counter = 0
        self._chunks: list[ChunkTrace] = []
        self._extents: dict[int, ChunkExtent] = {}
        self._attempts: dict[int, int] = {}
        self._retry_queue: deque[ChunkTrace] = deque()
        self._retransmits = 0
        self._results: dict[int, Path] = {}
        self._outstanding = 0
        self._pending_outputs = 0
        self._probe_time = 0.0
        self._finished = False
        self._max_round = -1
        self._plan_seconds = 0.0
        self._plan_calls = 0
        # Resilience tier: straggler speculation, escalation, quarantine.
        self._resilience = self._options.resilience or ResiliencePolicy()
        self._detector: StragglerDetector | None = None
        #: original chunk_id -> its in-flight speculative twin
        self._twins: dict[int, ChunkTrace] = {}
        #: twin chunk_id -> the original chunk_id it races
        self._twin_origin: dict[int, int] = {}
        #: losing copies: late completion/failure callbacks are discarded
        self._abandoned: set[int] = set()
        #: chunk_id -> the ChunkInfo built at dispatch, handed to the
        #: scheduler again on arrival and completion
        self._infos: dict[int, ChunkInfo] = {}
        #: chunk_id -> the ChunkInfo the scheduler was told at dispatch
        #: time (escalated/adopted chunks complete on a different worker)
        self._notify_as: dict[int, ChunkInfo] = {}
        self._speculations = 0
        self._spec_wins = 0
        self._spec_losses = 0
        self._escalations: dict[int, int] = {}
        self._escalated_chunks = 0
        self._quarantined: set[int] = set()
        self._failure_chain: list[str] = []
        #: timestamp-free resilience decisions, for cross-backend parity
        self._decisions: list[tuple] = []
        # Distributed tracing: one open span per in-flight chunk, created
        # only when a trace context is active on the tracer (remote runs
        # under the gateway); plain armed runs pay nothing extra.
        self._chunk_spans: dict[int, object] = {}
        metrics = self._obs.metrics
        if metrics is not None:
            self._m_dispatched = metrics.counter(
                "repro_chunks_dispatched_total",
                "Chunks pushed onto the serialized master link",
            )
            self._m_completed = metrics.counter(
                "repro_chunks_completed_total", "Chunk computations finished"
            )
            self._m_units = metrics.counter(
                "repro_units_dispatched_total", "Load units dispatched"
            )
            self._m_rounds = metrics.counter(
                "repro_rounds_started_total", "Scheduling rounds entered"
            )
            self._m_retransmitted = metrics.counter(
                "repro_chunks_retransmitted_total",
                "Chunks re-shipped after a worker-side failure",
            )
            self._m_queue = metrics.histogram(
                "repro_chunk_queue_seconds",
                "Modeled seconds chunks waited on the worker before computing",
            )
            self._m_compute = metrics.histogram(
                "repro_chunk_compute_seconds",
                "Modeled seconds chunks spent computing",
            )
            self._m_speculated = metrics.counter(
                "repro_resilience_speculations_total",
                "Speculative twin chunks dispatched for suspected stragglers",
            )
            self._m_spec_won = metrics.counter(
                "repro_resilience_speculation_wins_total",
                "Speculative twins that finished before their original",
            )
            self._m_spec_lost = metrics.counter(
                "repro_resilience_speculation_losses_total",
                "Speculative twins cancelled (original finished first or twin failed)",
            )
            self._m_escalated = metrics.counter(
                "repro_resilience_escalations_total",
                "Chunks re-dispatched on a different worker after retry exhaustion",
            )
            self._m_quarantined = metrics.counter(
                "repro_resilience_quarantined_total",
                "Workers excluded from dispatch for the rest of the run",
            )
        else:
            self._m_dispatched = None
            self._m_completed = None
            self._m_units = None
            self._m_rounds = None
            self._m_retransmitted = None
            self._m_queue = None
            self._m_compute = None
            self._m_speculated = None
            self._m_spec_won = None
            self._m_spec_lost = None
            self._m_escalated = None
            self._m_quarantined = None
        substrate.bind(self)

    # -- public API ---------------------------------------------------------
    def run(self) -> ExecutionReport:
        """Execute the full run and return its execution report."""
        if self._finished:
            raise SimulationError(f"{type(self).__name__}.run() called twice")
        self._host.start()
        try:
            with self._obs.span("probe", algorithm=self._scheduler.name):
                self._probe()
            with self._obs.span("scheduler.plan", algorithm=self._scheduler.name):
                self._configure_scheduler()
            main_start = self._clock.now()
            with self._obs.span("engine.run", algorithm=self._scheduler.name):
                self._drive()
            makespan = self._clock.now() - main_start
        finally:
            self._host.stop()
        profiler = self._obs.profiler
        if profiler is not None and self._plan_calls:
            profiler.add_phase_time(
                "scheduler.next_dispatch", self._plan_seconds, self._plan_calls
            )
        if self._options.include_probe_time:
            makespan += self._probe_time
        annotations = {**self._scheduler.annotations(), **self._substrate.annotations}
        if self._retransmits:
            annotations["retransmitted_chunks"] = self._retransmits
        if self._decisions:
            annotations["resilience_log"] = [list(d) for d in self._decisions]
        if self._speculations:
            annotations["speculated_chunks"] = self._speculations
            annotations["speculation_wins"] = self._spec_wins
            annotations["speculation_losses"] = self._spec_losses
        if self._escalated_chunks:
            annotations["escalated_chunks"] = self._escalated_chunks
        if self._quarantined:
            annotations["quarantined_workers"] = sorted(self._quarantined)
        report = ExecutionReport(
            algorithm=self._scheduler.name,
            total_load=self._total_load,
            makespan=makespan,
            probe_time=self._probe_time,
            chunks=self._chunks,
            link_busy_time=self._transport.busy_time,
            gamma_configured=self._substrate.gamma_configured,
            seed=self._substrate.seed,
            annotations=annotations,
        )
        report.validate()
        self._finished = True
        return report

    def outputs_in_offset_order(self) -> list[Path]:
        """Result files of the run, ordered by chunk offset in the load."""
        ordered = sorted(self._chunks, key=lambda c: c.offset)
        return [self._results[c.chunk_id] for c in ordered if c.chunk_id in self._results]

    @property
    def resilience_log(self) -> list[tuple]:
        """Timestamp-free resilience decisions, in the order they were made.

        Tuples: ``("speculate"|"speculation_won"|"speculation_lost"|
        "adopt"|"escalate"|"redirect", chunk_id, from_worker, to_worker)``,
        ``("quarantine", worker)``, ``("probe_failure", worker)``.  The
        failure-injection parity harness pins this sequence identical
        across all four backends.
        """
        return list(self._decisions)

    @property
    def failure_chain(self) -> list[str]:
        """Per-step failure diagnostics accumulated so far (newest last)."""
        return list(self._failure_chain)

    @property
    def quarantined_workers(self) -> set[int]:
        return set(self._quarantined)

    # -- distributed tracing --------------------------------------------------
    def _open_chunk_span(self, chunk: ChunkTrace) -> None:
        tracer = self._obs.tracer
        if tracer is None or tracer.context is None:
            return
        self._chunk_spans[chunk.chunk_id] = tracer.start_span(
            "chunk.dispatch",
            category="dispatch",
            chunk_id=chunk.chunk_id,
            worker=chunk.worker_name,
            units=chunk.units,
            lane=chunk.worker_index + 1,
        )

    def _finish_chunk_span(self, chunk: ChunkTrace, **extra_args) -> None:
        open_span = self._chunk_spans.pop(chunk.chunk_id, None)
        if open_span is not None:
            self._obs.tracer.finish(open_span, **extra_args)

    def trace_parent_for(self, chunk_id: int) -> str | None:
        """Traceparent header naming the chunk's dispatch span as parent.

        Network transports attach it to the chunk request so the remote
        worker's ``chunk.process`` span links to this process's
        ``chunk.dispatch`` span.  None when no trace context is active.
        """
        open_span = self._chunk_spans.get(chunk_id)
        return open_span.traceparent if open_span is not None else None

    # -- phases -------------------------------------------------------------
    def _probe(self) -> None:
        source = self._options.estimate_source
        if self._options.perfect_estimates:
            source = "oracle"
        if source not in ("probe", "oracle", "monitor", "manual"):
            raise SimulationError(f"unknown estimate_source {source!r}")
        if source == "oracle":
            result = perfect_information(list(self._grid.workers))
        elif source == "manual":
            manual = self._options.manual_estimates
            if manual is None or len(manual) != len(self._grid.workers):
                raise SimulationError(
                    "estimate_source='manual' needs options.manual_estimates "
                    "with one WorkerSpec per grid worker"
                )
            result = ProbeResult(
                estimates=list(manual), duration=0.0, probe_units=0.0
            )
        elif source == "monitor":
            from ..apst.monitoring import MonitoringConfig, MonitoringService

            config = self._options.monitoring
            if config is not None and not isinstance(config, MonitoringConfig):
                raise SimulationError(
                    "options.monitoring must be a MonitoringConfig"
                )
            service = MonitoringService(
                list(self._grid.workers), config, seed=self._substrate.seed
            )
            result = service.estimates()
        elif self._scheduler.uses_probing:
            probe_units = self._options.probe_units
            if probe_units is None:
                probe_units = default_probe_units(self._total_load)
            result = run_probe_phase(
                list(self._grid.workers),
                self._substrate.probe_costs,
                probe_units,
                obs=self._obs,
                tolerate=self._resilience.escalation_enabled,
            )
        else:
            # SIMPLE-n: no probing; the algorithm only needs worker count,
            # but the config interface wants specs -- hand it unit dummies.
            result = perfect_information(list(self._grid.workers))
            result = type(result)(estimates=result.estimates, duration=0.0, probe_units=0.0)
        self._estimates = result.estimates
        self._probe_time = result.duration
        for index in result.failed:
            self._failure_chain.append(
                f"probe failed on worker {self._grid.workers[index].name}"
            )
            self._decisions.append(("probe_failure", index))
            self._quarantine(index, reason="probe failure")
        if result.failed and len(self._quarantined) >= len(self._states):
            raise JobUnrecoverableError(
                "every worker failed its probe",
                failure_chain=self._failure_chain,
            )
        if self._resilience.straggler_enabled:
            self._detector = StragglerDetector(
                self._resilience.straggler, self._estimates
            )
        if self._obs.enabled:
            self._obs.emit(
                PROBE_FINISHED,
                sim_time=0.0,
                source=source,
                duration=result.duration,
                probe_units=result.probe_units,
                workers=len(self._estimates),
            )

    def _configure_scheduler(self) -> None:
        self._scheduler.configure(
            SchedulerConfig(
                estimates=self._estimates,
                total_load=self._total_load,
                quantum=self._options.quantum,
            )
        )

    # -- the drive loop -----------------------------------------------------
    def _drive(self) -> None:
        """Feed the link while the algorithm has work; wait for progress.

        On event-driven hosts "waiting" means stepping the simulation
        engine; on real hosts it means blocking on worker completions.
        Either way, dispatch decisions happen between progress steps, so
        the scheduler observes the identical sequence of states on every
        backend.
        """
        host = self._host
        transport = self._transport
        tracker = self._tracker
        retry_queue = self._retry_queue
        idle_ticks = 0
        while True:
            host.poll()
            # Read once per iteration: nothing below changes either
            # without dispatching, and every dispatch restarts the loop.
            busy = transport.busy
            exhausted = tracker.exhausted
            if (
                exhausted
                and self._outstanding == 0
                and not retry_queue
                and not busy
                and self._pending_outputs == 0
            ):
                return
            if not busy:
                if retry_queue:
                    self._resend(retry_queue.popleft())
                    idle_ticks = 0
                    continue
                if not exhausted:
                    request = self._next_dispatch()
                    if request is not None:
                        self._dispatch(request)
                        idle_ticks = 0
                        continue
                if self._detector is not None and self._maybe_speculate():
                    idle_ticks = 0
                    continue
            if self._outstanding > 0 or busy or self._pending_outputs > 0:
                if self._detector is not None and self._speculation_pending():
                    # A chunk may cross its straggler threshold while we
                    # wait; on hosts where wall time advances on its own,
                    # nap briefly and re-check instead of blocking until
                    # a completion that may never come.
                    if host.idle_tick():
                        idle_ticks = 0
                        continue
                    # Event-driven host with a drained queue: the stuck
                    # chunk will never complete on its own -- speculate
                    # regardless of the modeled elapsed time.
                    if not host.wait():
                        if self._maybe_speculate(force=True):
                            idle_ticks = 0
                            continue
                        raise SimulationError(
                            "dispatch core has in-flight work but no further "
                            "progress is possible (event queue drained)"
                        )
                    idle_ticks = 0
                    continue
                if not host.wait():
                    raise SimulationError(
                        "dispatch core has in-flight work but no further "
                        "progress is possible (event queue drained)"
                    )
                idle_ticks = 0
                continue
            # The scheduler declined with nothing in flight: on hosts where
            # time advances on its own, give it a moment; otherwise (and
            # after too many moments) this is a stall.
            idle_ticks += 1
            if idle_ticks > _MAX_IDLE_TICKS or not host.idle_tick():
                raise SchedulingError(
                    f"{self._scheduler.name} stalled with "
                    f"{self._tracker.remaining:.3f} units undispatched "
                    f"(dispatched {self._tracker.consumed:.3f} of {self._total_load})"
                )

    def _next_dispatch(self) -> DispatchRequest | None:
        # The scheduler gets the live state list, not a copy: schedulers
        # read it (no in-tree one mutates it) and the length never changes.
        if self._obs.profiler is None:
            return self._scheduler.next_dispatch(self._clock.now(), self._states)
        # Accumulate locally; flushed to the profiler once per run()
        # so the hot loop pays two clock reads and a float add.
        plan_start = perf_counter()  # repro: allow[sim-time] -- profiler: wall-clock cost of planning itself
        request = self._scheduler.next_dispatch(self._clock.now(), self._states)
        self._plan_seconds += perf_counter() - plan_start  # repro: allow[sim-time] -- profiler: wall-clock cost of planning itself
        self._plan_calls += 1
        return request

    def _dispatch(self, request: DispatchRequest) -> None:
        if not 0 <= request.worker_index < len(self._states):
            raise SchedulingError(
                f"{self._scheduler.name} dispatched to invalid worker "
                f"{request.worker_index}"
            )
        if request.worker_index in self._quarantined:
            target = self._escalation_target(exclude=request.worker_index)
            if target is None:
                raise JobUnrecoverableError(
                    f"no live workers remain to take a chunk addressed to "
                    f"quarantined worker {request.worker_index}",
                    failure_chain=self._failure_chain,
                )
            self._decisions.append(
                ("redirect", self._chunk_counter, request.worker_index, target)
            )
            request = replace(request, worker_index=target)
        worker = request.worker_index
        extent = self._tracker.take(request.units)
        units = extent.units
        now = self._clock.now()
        cid = self._chunk_counter
        state = self._states[worker]
        chunk = ChunkTrace(
            chunk_id=cid,
            worker_index=worker,
            worker_name=state.name,
            units=units,
            offset=extent.offset,
            round_index=request.round_index,
            phase=request.phase,
            send_start=now,
            predicted_compute=self._estimates[worker].compute_time(units),
        )
        self._chunk_counter += 1
        self._chunks.append(chunk)
        self._extents[cid] = extent
        self._attempts[cid] = 1
        if self._obs.enabled:
            if request.round_index > self._max_round:
                self._max_round = request.round_index
                if self._bus is not None:
                    self._bus.emit(
                        ROUND_STARTED,
                        sim_time=now,
                        round=request.round_index,
                        phase=request.phase,
                        algorithm=self._scheduler.name,
                    )
                if self._m_rounds is not None:
                    self._m_rounds.inc()
            if self._bus is not None:
                self._bus.emit(
                    CHUNK_DISPATCHED,
                    sim_time=now,
                    chunk_id=chunk.chunk_id,
                    worker=chunk.worker_name,
                    worker_index=chunk.worker_index,
                    units=chunk.units,
                    round=chunk.round_index,
                    phase=chunk.phase,
                )
            if self._m_dispatched is not None:
                self._m_dispatched.inc()
                self._m_units.inc(chunk.units)
        state.outstanding += 1
        state.outstanding_units += units
        self._outstanding += 1
        if self._obs.tracer is not None:
            self._open_chunk_span(chunk)
        info = self._infos[cid] = self._info(chunk)
        self._scheduler.notify_dispatched(info)
        self._transport.send(chunk, extent)

    def _resend(self, chunk: ChunkTrace) -> None:
        """Ship a failed chunk again (driver-internal: no scheduler notice)."""
        state = self._states[chunk.worker_index]
        state.outstanding += 1
        state.outstanding_units += chunk.units
        self._outstanding += 1
        chunk.send_start = self._clock.now()
        self._open_chunk_span(chunk)
        self._transport.send(chunk, self._extents[chunk.chunk_id])

    # -- substrate callbacks ------------------------------------------------
    def chunk_arrived(self, chunk: ChunkTrace, payload: object) -> None:
        """The transport finished shipping ``chunk``; hand it to its worker."""
        if (
            self._attempts[chunk.chunk_id] == 1
            and chunk.chunk_id not in self._twin_origin
            and chunk.chunk_id not in self._notify_as
        ):
            # Twins and escalated re-dispatches are driver-internal: the
            # scheduler already saw this chunk arrive once.
            self._scheduler.notify_arrival(
                self._infos[chunk.chunk_id], self._clock.now()
            )
        self._host.enqueue(chunk, payload)

    def chunk_completed(self, chunk: ChunkTrace, result_path: Path | None = None) -> None:
        """The host finished computing ``chunk`` (timestamps already set)."""
        cid = chunk.chunk_id
        if cid in self._abandoned:
            # The losing copy of a speculation race; its bookkeeping was
            # already released when the race was decided.
            self._abandoned.discard(cid)
            return
        origin_id = self._twin_origin.pop(cid, None)
        if origin_id is not None:
            self._speculation_won(chunk, origin_id)
        else:
            twin = self._twins.pop(cid, None)
            if twin is not None:
                self._speculation_lost(chunk, twin)
        compute_time = chunk.compute_time
        state = self._states[chunk.worker_index]
        state.outstanding -= 1
        state.outstanding_units -= chunk.units
        state.completed_chunks += 1
        state.completed_units += chunk.units
        state.busy_time += compute_time
        self._outstanding -= 1
        if result_path is not None:
            self._results[cid] = result_path
        if self._chunk_spans:
            self._finish_chunk_span(chunk, compute_time=compute_time)
        now = self._clock.now()
        if self._obs.enabled:
            if self._bus is not None:
                self._bus.emit(
                    CHUNK_COMPLETED,
                    sim_time=now,
                    chunk_id=cid,
                    worker=chunk.worker_name,
                    worker_index=chunk.worker_index,
                    units=chunk.units,
                    queue_time=chunk.queue_time,
                    compute_time=compute_time,
                )
            if self._m_completed is not None:
                self._m_completed.inc()
                self._m_queue.observe(chunk.queue_time)
                self._m_compute.observe(compute_time)
        if self._detector is not None:
            self._detector.observe(chunk.worker_index, chunk.units, compute_time)
        self._scheduler.notify_completion(
            self._notify_as.pop(cid, None) or self._infos[cid],
            now,
            predicted_time=chunk.predicted_compute,
            actual_time=compute_time,
        )
        if self._options.output_factor > 0 and self._transport.supports_outputs:
            self._pending_outputs += 1
            self._transport.send_output(
                chunk, chunk.units * self._options.output_factor
            )

    def chunk_failed(self, chunk: ChunkTrace, message: str) -> None:
        """The host failed to compute ``chunk``; retry or abort per policy.

        Retransmission is invisible to the scheduling algorithm (it saw
        one dispatch and will see one completion); the driver re-ships
        the same extent over the serialized link and the report counts
        the extra shipment under ``retransmitted_chunks``.

        With an escalation policy, a chunk whose retries are exhausted is
        re-dispatched on a different live worker instead of failing the
        run, and workers that keep causing escalations are quarantined.
        """
        cid = chunk.chunk_id
        if cid in self._abandoned:
            self._abandoned.discard(cid)
            return
        origin_id = self._twin_origin.pop(cid, None)
        if origin_id is not None:
            self._twin_failed(chunk, origin_id, message)
            return
        twin = self._twins.pop(cid, None)
        if twin is not None:
            self._adopt_twin(chunk, twin, message)
            return
        self._finish_chunk_span(chunk, error=message)
        attempts = self._attempts.get(cid, 1)
        if attempts >= self._options.retry.max_attempts:
            if self._resilience.escalation_enabled:
                self._escalate(chunk, message)
                return
            raise ExecutionError(message)
        self._attempts[chunk.chunk_id] = attempts + 1
        self._retransmits += 1
        state = self._states[chunk.worker_index]
        state.outstanding -= 1
        state.outstanding_units -= chunk.units
        self._outstanding -= 1
        chunk.send_start = chunk.send_end = -1.0
        chunk.compute_start = chunk.compute_end = -1.0
        if self._obs.enabled:
            if self._bus is not None:
                self._bus.emit(
                    CHUNK_RETRANSMITTED,
                    sim_time=self._clock.now(),
                    chunk_id=chunk.chunk_id,
                    worker=chunk.worker_name,
                    worker_index=chunk.worker_index,
                    units=chunk.units,
                    attempt=attempts + 1,
                    reason=message,
                )
            if self._m_retransmitted is not None:
                self._m_retransmitted.inc()
        self._retry_queue.append(chunk)

    def output_done(self) -> None:
        """The transport finished shipping one output back to the master."""
        self._pending_outputs -= 1

    # -- straggler speculation ----------------------------------------------
    def _speculation_allowed(self) -> bool:
        return (
            self._detector is not None
            and self._speculations < self._detector.policy.max_speculations
        )

    def _speculation_candidates(self) -> list[ChunkTrace]:
        """In-flight, arrived originals that have not been twinned yet."""
        out = []
        for chunk in self._chunks:
            cid = chunk.chunk_id
            if (
                chunk.send_end >= 0
                and not chunk.completed
                and cid not in self._abandoned
                and cid not in self._twins
                and cid not in self._twin_origin
            ):
                out.append(chunk)
        return out

    def _speculation_pending(self) -> bool:
        """Could a speculation still fire for some in-flight chunk?"""
        return self._speculation_allowed() and bool(self._speculation_candidates())

    def _maybe_speculate(self, *, force: bool = False) -> bool:
        """Clone the worst straggling chunk onto the fastest idle worker.

        ``force`` skips the elapsed-time threshold; the drive loop uses
        it on event-driven hosts whose queue drained with work still in
        flight (the stuck chunk provably never completes on its own).
        Returns True when a twin was dispatched.
        """
        if not self._speculation_allowed() or self._transport.busy:
            return False
        candidates = self._speculation_candidates()
        if not force:
            now = self._clock.now()
            candidates = [c for c in candidates if self._backlog_straggling(c, now)]
        if not candidates:
            return False
        # the chunk that has waited longest is in the most trouble
        original = min(candidates, key=lambda c: (c.send_end, c.chunk_id))
        target = self._speculation_target(exclude=original.worker_index)
        if target is None:
            return False
        self._speculate(original, target)
        return True

    def _backlog_straggling(self, chunk: ChunkTrace, now: float) -> bool:
        """Queue-aware straggler check for one arrived, incomplete chunk.

        The expectation covers the worker's whole FIFO backlog up to and
        including the chunk -- a chunk queued behind others legitimately
        waits for all of them, so a deep queue must not read as a stall.
        Service of the backlog cannot have started before its earliest
        arrival, nor before the worker finished its previous chunk.
        """
        worker = chunk.worker_index
        key = (chunk.send_end, chunk.chunk_id)
        expected = 0.0
        backlog_start = chunk.send_end
        busy_until = 0.0
        for other in self._chunks:
            if other.worker_index != worker or other.chunk_id in self._abandoned:
                continue
            if other.send_end < 0:
                continue  # still on the link (or reset for re-dispatch)
            if other.completed:
                busy_until = max(busy_until, other.compute_end)
            elif (other.send_end, other.chunk_id) <= key:
                expected += self._detector.expected_compute(worker, other.units)
                backlog_start = min(backlog_start, other.send_end)
        waited = now - max(backlog_start, busy_until)
        return self._detector.exceeds(expected, waited)

    def _speculation_target(self, *, exclude: int) -> int | None:
        """Fastest idle live worker (by probe estimate; ties -> lowest index)."""
        best = None
        best_unit = float("inf")
        for state in self._states:
            index = state.index
            if (
                index == exclude
                or index in self._quarantined
                or state.outstanding > 0
            ):
                continue
            unit = self._estimates[index].unit_compute_time()
            if unit < best_unit:
                best = index
                best_unit = unit
        return best

    def _speculate(self, original: ChunkTrace, target: int) -> None:
        """Dispatch a twin of ``original`` on ``target``; first finish wins."""
        now = self._clock.now()
        twin = ChunkTrace(
            chunk_id=self._chunk_counter,
            worker_index=target,
            worker_name=self._grid.workers[target].name,
            units=original.units,
            offset=original.offset,
            round_index=original.round_index,
            phase=original.phase,
            send_start=now,
            predicted_compute=self._estimates[target].compute_time(original.units),
        )
        self._chunk_counter += 1
        self._twins[original.chunk_id] = twin
        self._twin_origin[twin.chunk_id] = original.chunk_id
        self._extents[twin.chunk_id] = self._extents[original.chunk_id]
        self._attempts[twin.chunk_id] = 1
        self._speculations += 1
        self._decisions.append(
            ("speculate", original.chunk_id, original.worker_index, target)
        )
        if self._obs.enabled:
            if self._bus is not None:
                self._bus.emit(
                    CHUNK_SPECULATED,
                    sim_time=now,
                    chunk_id=original.chunk_id,
                    twin_chunk_id=twin.chunk_id,
                    from_worker=original.worker_name,
                    to_worker=twin.worker_name,
                    units=twin.units,
                )
            if self._m_speculated is not None:
                self._m_speculated.inc()
        state = self._states[target]
        state.outstanding += 1
        state.outstanding_units += twin.units
        self._outstanding += 1
        self._open_chunk_span(twin)
        self._transport.send(twin, self._extents[twin.chunk_id])

    def _speculation_won(self, twin: ChunkTrace, origin_id: int) -> None:
        """The twin finished first: abandon the original, keep the twin."""
        original = self._find_chunk(origin_id)
        del self._twins[origin_id]
        self._release(original)
        self._abandoned.add(origin_id)
        self._finish_chunk_span(original, error="superseded by speculative twin")
        # the report keeps the copy that actually produced the result
        self._chunks[self._chunks.index(original)] = twin
        # the scheduler saw the original dispatched; close that story
        self._notify_as[twin.chunk_id] = self._info(original)
        self._spec_wins += 1
        self._decisions.append(
            ("speculation_won", origin_id, original.worker_index, twin.worker_index)
        )
        if self._obs.enabled:
            if self._bus is not None:
                self._bus.emit(
                    CHUNK_SPECULATION_WON,
                    sim_time=self._clock.now(),
                    chunk_id=origin_id,
                    twin_chunk_id=twin.chunk_id,
                    from_worker=original.worker_name,
                    to_worker=twin.worker_name,
                )
            if self._m_spec_won is not None:
                self._m_spec_won.inc()

    def _speculation_lost(self, original: ChunkTrace, twin: ChunkTrace) -> None:
        """The original finished first: cancel its in-flight twin."""
        del self._twin_origin[twin.chunk_id]
        self._release(twin)
        self._abandoned.add(twin.chunk_id)
        self._finish_chunk_span(twin, error="original completed first")
        self._spec_losses += 1
        self._decisions.append(
            (
                "speculation_lost",
                original.chunk_id,
                original.worker_index,
                twin.worker_index,
            )
        )
        if self._obs.enabled:
            if self._bus is not None:
                self._bus.emit(
                    CHUNK_SPECULATION_LOST,
                    sim_time=self._clock.now(),
                    chunk_id=original.chunk_id,
                    twin_chunk_id=twin.chunk_id,
                    from_worker=original.worker_name,
                    to_worker=twin.worker_name,
                    reason="original completed first",
                )
            if self._m_spec_lost is not None:
                self._m_spec_lost.inc()

    def _twin_failed(self, twin: ChunkTrace, origin_id: int, message: str) -> None:
        """The speculative copy died; the original keeps running."""
        original = self._find_chunk(origin_id)
        del self._twins[origin_id]
        self._release(twin)
        self._finish_chunk_span(twin, error=message)
        self._failure_chain.append(
            f"speculative copy of chunk {origin_id} failed on "
            f"{twin.worker_name}: {message}"
        )
        self._spec_losses += 1
        self._decisions.append(
            ("speculation_lost", origin_id, original.worker_index, twin.worker_index)
        )
        if self._obs.enabled:
            if self._bus is not None:
                self._bus.emit(
                    CHUNK_SPECULATION_LOST,
                    sim_time=self._clock.now(),
                    chunk_id=origin_id,
                    twin_chunk_id=twin.chunk_id,
                    from_worker=original.worker_name,
                    to_worker=twin.worker_name,
                    reason=message,
                )
            if self._m_spec_lost is not None:
                self._m_spec_lost.inc()

    def _adopt_twin(self, original: ChunkTrace, twin: ChunkTrace, message: str) -> None:
        """The original failed while its twin still runs: the twin is now
        the only copy, inheriting the original's scheduler-facing story."""
        del self._twin_origin[twin.chunk_id]
        self._release(original)
        self._finish_chunk_span(original, error=message)
        self._chunks[self._chunks.index(original)] = twin
        self._notify_as[twin.chunk_id] = self._info(original)
        self._failure_chain.append(
            f"chunk {original.chunk_id} failed on {original.worker_name} "
            f"with a speculative copy in flight: {message}"
        )
        self._decisions.append(
            ("adopt", original.chunk_id, original.worker_index, twin.worker_index)
        )

    # -- escalation and quarantine ------------------------------------------
    def _escalate(self, chunk: ChunkTrace, message: str) -> None:
        """Transport retries are spent: re-dispatch on a different worker."""
        failing = chunk.worker_index
        self._failure_chain.append(
            f"chunk {chunk.chunk_id} exhausted "
            f"{self._options.retry.max_attempts} attempt(s) on "
            f"{chunk.worker_name}: {message}"
        )
        self._release(chunk)
        count = self._escalations.get(failing, 0) + 1
        self._escalations[failing] = count
        escalation = self._resilience.escalation
        if count >= escalation.quarantine_after:
            self._quarantine(failing, reason=f"{count} escalations")
        target = self._escalation_target(exclude=failing)
        if target is None:
            raise JobUnrecoverableError(
                f"chunk {chunk.chunk_id} cannot complete on any live worker: "
                f"{message}",
                failure_chain=self._failure_chain,
            )
        self._escalated_chunks += 1
        self._decisions.append(("escalate", chunk.chunk_id, failing, target))
        if self._obs.enabled:
            if self._bus is not None:
                self._bus.emit(
                    CHUNK_ESCALATED,
                    sim_time=self._clock.now(),
                    chunk_id=chunk.chunk_id,
                    from_worker=chunk.worker_name,
                    to_worker=self._grid.workers[target].name,
                    units=chunk.units,
                    reason=message,
                )
            if self._m_escalated is not None:
                self._m_escalated.inc()
        # keep the scheduler's story on the original worker
        self._notify_as.setdefault(chunk.chunk_id, self._info(chunk))
        chunk.worker_index = target
        chunk.worker_name = self._grid.workers[target].name
        chunk.predicted_compute = self._estimates[target].compute_time(chunk.units)
        chunk.send_start = chunk.send_end = -1.0
        chunk.compute_start = chunk.compute_end = -1.0
        self._attempts[chunk.chunk_id] = 1
        self._retry_queue.append(chunk)

    def _escalation_target(self, *, exclude: int) -> int | None:
        """Fastest live worker other than ``exclude`` (ties -> lowest index).

        Ranked by the static probe estimates, not the EWMA, so the choice
        is identical on every backend under oracle estimates.
        """
        best = None
        best_unit = float("inf")
        for state in self._states:
            index = state.index
            if index == exclude or index in self._quarantined:
                continue
            unit = self._estimates[index].unit_compute_time()
            if unit < best_unit:
                best = index
                best_unit = unit
        return best

    def _quarantine(self, worker: int, *, reason: str) -> None:
        if worker in self._quarantined:
            return
        self._quarantined.add(worker)
        self._failure_chain.append(
            f"worker {self._grid.workers[worker].name} quarantined: {reason}"
        )
        self._decisions.append(("quarantine", worker))
        if self._obs.enabled:
            if self._bus is not None:
                self._bus.emit(
                    WORKER_QUARANTINED,
                    sim_time=self._clock.now(),
                    worker=self._grid.workers[worker].name,
                    worker_index=worker,
                    reason=reason,
                )
            if self._m_quarantined is not None:
                self._m_quarantined.inc()

    def _release(self, chunk: ChunkTrace) -> None:
        """Return a chunk's claim on its worker and the in-flight count."""
        state = self._states[chunk.worker_index]
        state.outstanding -= 1
        state.outstanding_units -= chunk.units
        self._outstanding -= 1

    def _find_chunk(self, chunk_id: int) -> ChunkTrace:
        for chunk in self._chunks:
            if chunk.chunk_id == chunk_id:
                return chunk
        raise SimulationError(f"no chunk with id {chunk_id} in the trace")

    # -- bookkeeping --------------------------------------------------------
    @staticmethod
    def _info(chunk: ChunkTrace) -> ChunkInfo:
        return ChunkInfo(
            chunk_id=chunk.chunk_id,
            worker_index=chunk.worker_index,
            units=chunk.units,
            round_index=chunk.round_index,
            phase=chunk.phase,
        )
