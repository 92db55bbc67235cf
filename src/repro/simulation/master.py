"""The simulated APST-DV master: the simulation backend's dispatch adapter.

The scheduler-driving loop itself -- probe phase, division snapping,
serialized-link arbitration, retry policy, observability, report
assembly -- lives once in :class:`~repro.dispatch.core.DispatchCore` and
is shared with the real execution backends.  This module contributes the
simulation substrate:

* the clock is the discrete-event engine's simulated ``now``;
* the transport is the modeled :class:`~repro.simulation.network.SerializedLink`;
* the compute host schedules modeled compute durations (drawn from the
  :class:`~repro.simulation.compute.ComputeModel`) as engine events, and
  "waiting" means stepping the engine one event at a time.

The run ends when the load is exhausted and every chunk has computed; the
result is an :class:`~repro.simulation.trace.ExecutionReport`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

from ..apst.division import ChunkExtent, DivisionMethod
from ..dispatch.core import MAX_EVENTS, DispatchCore, DispatchOptions
from ..dispatch.protocols import DispatchSubstrate
from ..errors import SimulationError
from ..platform.resources import Grid
from .compute import DETERMINISTIC, ComputeModel, UncertaintyModel
from .engine import SimulationEngine
from .network import SerializedLink, TransferRecord
from .trace import ChunkTrace, ExecutionReport

__all__ = [
    "MAX_EVENTS",
    "SimulatedMaster",
    "SimulationOptions",
    "build_substrate",
    "simulate_run",
]


@dataclass
class SimulationOptions(DispatchOptions):
    """Knobs of a simulated run.

    The simulation backend exposes exactly the backend-agnostic options;
    see :class:`~repro.dispatch.core.DispatchOptions` for the field
    documentation.  The alias is kept as the simulation-facing name (and
    for history files that pickle it).
    """


class _SimClock:
    """The driver's clock is the discrete-event engine's clock."""

    __slots__ = ("_engine",)

    def __init__(self, engine: SimulationEngine) -> None:
        self._engine = engine

    def now(self) -> float:
        return self._engine.now


class _SimTransport:
    """Chunk shipment over the modeled serialized master link."""

    supports_outputs = True

    def __init__(self, link: SerializedLink) -> None:
        self._link = link
        self._core: DispatchCore | None = None

    def bind(self, core: DispatchCore) -> None:
        self._core = core

    @property
    def busy(self) -> bool:
        return self._link.busy

    @property
    def busy_time(self) -> float:
        return self._link.busy_time

    def send(self, chunk: ChunkTrace, extent: ChunkExtent) -> None:
        self._link.submit(chunk.worker_index, extent.units, self._arrived, tag=chunk)

    def send_output(self, chunk: ChunkTrace, units: float) -> None:
        self._link.submit(
            chunk.worker_index, units, self._output_done, tag=("output", chunk.chunk_id)
        )

    def _arrived(self, record: TransferRecord) -> None:
        chunk = record.tag
        assert isinstance(chunk, ChunkTrace)
        chunk.send_end = record.end_time
        self._core.chunk_arrived(chunk, None)

    def _output_done(self, record: TransferRecord) -> None:
        self._core.output_done()


@dataclass
class _WorkerRuntime:
    """Host-internal dynamic state of one simulated worker."""

    queue: deque[ChunkTrace] = field(default_factory=deque)
    computing: ChunkTrace | None = None


class _SimHost:
    """Simulated per-worker computation: engine events, stepped waiting."""

    time_advances_when_idle = False

    def __init__(
        self,
        engine: SimulationEngine,
        model: ComputeModel,
        num_workers: int,
        *,
        max_events: int = MAX_EVENTS,
        profiler=None,
    ) -> None:
        self._engine = engine
        self._model = model
        self._workers = [_WorkerRuntime() for _ in range(num_workers)]
        self._max_events = max_events
        self._profiler = profiler
        self._executed = 0
        self._run_start: float | None = None
        self._core: DispatchCore | None = None

    def bind(self, core: DispatchCore) -> None:
        self._core = core

    def start(self) -> None:
        pass

    def stop(self) -> None:
        if self._profiler is not None and self._run_start is not None:
            self._profiler.note_run(self._executed, perf_counter() - self._run_start)  # repro: allow[sim-time] -- profiler measures wall events/s, not modeled time

    def enqueue(self, chunk: ChunkTrace, payload: object) -> None:
        runtime = self._workers[chunk.worker_index]
        runtime.queue.append(chunk)
        if runtime.computing is None:
            self._start_compute(runtime)

    def poll(self) -> None:
        pass

    def wait(self) -> bool:
        if self._run_start is None:
            self._run_start = perf_counter()  # repro: allow[sim-time] -- profiler measures wall events/s, not modeled time
        if not self._engine.step():
            return False
        self._executed += 1
        if self._executed > self._max_events:
            raise SimulationError(
                f"simulation exceeded max_events={self._max_events}; likely livelock"
            )
        return True

    def idle_tick(self) -> bool:
        return False  # simulated time only moves through events

    def _start_compute(self, runtime: _WorkerRuntime) -> None:
        chunk = runtime.queue.popleft()
        runtime.computing = chunk
        chunk.compute_start = self._engine.now
        duration = self._model.realized_compute_time(
            chunk.worker_index, chunk.units, offset=chunk.offset
        )
        self._engine.schedule(duration, self._completed, runtime, chunk)

    def _completed(self, runtime: _WorkerRuntime, chunk: ChunkTrace) -> None:
        chunk.compute_end = self._engine.now
        runtime.computing = None
        self._core.chunk_completed(chunk)
        if runtime.queue:
            self._start_compute(runtime)


def build_substrate(
    grid: Grid,
    *,
    uncertainty: UncertaintyModel = DETERMINISTIC,
    seed: int | None = None,
    options: SimulationOptions | None = None,
    cost_profile=None,
) -> DispatchSubstrate:
    """Fresh single-use simulation substrate for one run on ``grid``.

    The same adapter :class:`SimulatedMaster` uses internally, exposed so
    harnesses (e.g. the failure-injection parity scenarios) can wrap the
    substrate's host or probe costs before handing it to a
    :class:`~repro.dispatch.core.DispatchCore` -- mirroring the
    ``substrate()`` methods of the real execution backends.
    """
    opts = options or SimulationOptions()
    obs = opts.observability
    engine = SimulationEngine(profiler=obs.profiler if obs is not None else None)
    model = ComputeModel(
        grid.workers, uncertainty, seed=seed, cost_profile=cost_profile
    )
    link = SerializedLink(engine, model)
    return DispatchSubstrate(
        clock=_SimClock(engine),
        transport=_SimTransport(link),
        host=_SimHost(
            engine,
            model,
            len(grid.workers),
            max_events=opts.max_events,
            profiler=obs.profiler if obs is not None else None,
        ),
        probe_costs=model,
        gamma_configured=uncertainty.gamma,
        seed=seed,
    )


class SimulatedMaster:
    """One simulated application run: grid + scheduler + load.

    A thin adapter: builds the simulation substrate (engine, compute
    model, serialized link) and delegates the whole loop to
    :class:`~repro.dispatch.core.DispatchCore`.  Use :func:`simulate_run`
    for the common case.
    """

    def __init__(
        self,
        grid: Grid,
        scheduler,
        total_load: float,
        *,
        division: DivisionMethod | None = None,
        uncertainty: UncertaintyModel = DETERMINISTIC,
        seed: int | None = None,
        options: SimulationOptions | None = None,
        cost_profile=None,
    ) -> None:
        opts = options or SimulationOptions()
        substrate = build_substrate(
            grid,
            uncertainty=uncertainty,
            seed=seed,
            options=opts,
            cost_profile=cost_profile,
        )
        self._core = DispatchCore(
            grid,
            scheduler,
            total_load,
            substrate=substrate,
            division=division,
            options=opts,
        )

    def run(self) -> ExecutionReport:
        """Execute the full run and return its execution report."""
        return self._core.run()


def simulate_run(
    grid: Grid,
    scheduler,
    total_load: float,
    *,
    division: DivisionMethod | None = None,
    gamma: float = 0.0,
    comm_gamma: float = 0.0,
    autocorrelation: float = 0.0,
    seed: int | None = None,
    options: SimulationOptions | None = None,
    cost_profile=None,
) -> ExecutionReport:
    """Convenience wrapper: one run of ``scheduler`` on ``grid``.

    Examples
    --------
    >>> from repro.platform.presets import das2_cluster
    >>> from repro.core.simple import SimpleN
    >>> grid = das2_cluster(nodes=4)
    >>> report = simulate_run(grid, SimpleN(1), total_load=1000.0, seed=0)
    >>> report.num_chunks
    4
    """
    master = SimulatedMaster(
        grid,
        scheduler,
        total_load,
        division=division,
        uncertainty=UncertaintyModel(
            gamma=gamma, comm_gamma=comm_gamma, autocorrelation=autocorrelation
        ),
        seed=seed,
        options=options,
        cost_profile=cost_profile,
    )
    return master.run()
