"""Protocols of the backend-agnostic dispatch core.

The paper's central engineering claim (Section 3) is that APST-DV hides
the execution mechanism -- simulation vs. real Ssh/Scp/Globus transports
-- behind one scheduler-driving daemon loop.  This module captures what
actually differs between our execution mechanisms, as three small
protocols:

* :class:`Clock` -- where "now" comes from: the discrete-event engine's
  simulated clock, or scaled wall time;
* :class:`Transport` -- how a chunk occupies the serialized master
  link: a modeled transfer on the simulated link, or the master thread
  extracting the real bytes and sleeping the scaled transfer time;
* :class:`ComputeHost` -- where chunk computation happens: simulated
  worker event queues, or real workers (threads, OS processes, socket
  endpoints) behind one completion-queue host.

Each has one simulated implementation (:mod:`repro.simulation.master`)
and one wall-clock implementation (:mod:`repro.execution.substrate`);
what differs between the real backends -- delivering a request to
worker *i* and reading its reply -- is that kit's ``WorkerChannel``.

Everything else -- the probe phase, scheduler driving, division
snapping, serialized-link arbitration, retry/retransmit policy,
observability emission, and report assembly -- lives once, in
:class:`~repro.dispatch.core.DispatchCore`.  A backend contributes a
:class:`DispatchSubstrate` bundling its three protocol implementations.

Callback contract: the core binds itself into the transport and host
(``bind(core)``); they call back into the driver port --
``core.chunk_arrived``, ``core.chunk_completed``, ``core.chunk_failed``,
``core.output_done`` -- either inline (blocking transports) or from a
later event/poll (event-driven and threaded backends).  All callbacks
must run on the master thread; threaded hosts queue completions
internally and deliver them from ``poll()`` / ``wait()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from ..apst.division import ChunkExtent
from ..apst.probing import ProbeCostSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulation.trace import ChunkTrace
    from .core import DispatchCore


@runtime_checkable
class Clock(Protocol):
    """Source of the driver's notion of time, in modeled seconds."""

    def now(self) -> float:
        ...


class Transport(Protocol):
    """Serialized master-link shipment of one chunk to one worker.

    Implementations must call ``core.chunk_arrived(chunk, payload)``
    exactly once per ``send`` when the payload has fully arrived -- a
    blocking transport calls it before ``send`` returns; an event-driven
    one schedules it.  ``payload`` is transport-specific and opaque to
    the core (``None`` in simulation, the chunk bytes on real backends);
    it is forwarded verbatim to ``ComputeHost.enqueue``.
    """

    #: True if the transport can ship output data back over the link
    #: (the simulated backend; the real backends keep results on disk).
    supports_outputs: bool

    def bind(self, core: "DispatchCore") -> None:
        ...

    @property
    def busy(self) -> bool:
        """True while the serialized link is occupied (or has queued work)."""
        ...

    @property
    def busy_time(self) -> float:
        """Total modeled seconds the link spent transferring."""
        ...

    def send(self, chunk: "ChunkTrace", extent: ChunkExtent) -> None:
        ...

    def send_output(self, chunk: "ChunkTrace", units: float) -> None:
        """Ship output data back (only when ``supports_outputs``)."""
        ...


class ComputeHost(Protocol):
    """Per-worker computation substrate.

    The host owns chunk compute timestamps (``compute_start`` /
    ``compute_end`` on the :class:`ChunkTrace`) and must deliver exactly
    one of ``core.chunk_completed(chunk, result_path=...)`` or
    ``core.chunk_failed(chunk, message)`` per enqueued chunk, always
    from the master thread (i.e. from within ``poll()`` or ``wait()``
    for threaded/process hosts, or from a simulated event for the
    event-driven host).
    """

    #: True when wall time advances on its own (real backends), so the
    #: driver may sleep-and-retry an idle scheduler; False when time only
    #: moves through events (simulation), where the same situation is a
    #: permanent stall.
    time_advances_when_idle: bool

    def bind(self, core: "DispatchCore") -> None:
        ...

    def start(self) -> None:
        """Bring up workers (threads/processes); no-op for simulation."""
        ...

    def stop(self) -> None:
        """Tear down workers; must be safe on every error path."""
        ...

    def enqueue(self, chunk: "ChunkTrace", payload: object) -> None:
        """Hand an arrived chunk to its worker for computation."""
        ...

    def poll(self) -> None:
        """Deliver any ready completions to the core without blocking."""
        ...

    def wait(self) -> bool:
        """Block (or step the event engine) until something progresses.

        Returns False when no progress is possible (the event queue is
        empty); raises :class:`~repro.errors.ExecutionError` on timeout.
        """
        ...

    def idle_tick(self) -> bool:
        """Let a little time pass while the scheduler declines to dispatch.

        Returns False when time cannot pass (event-driven hosts), which
        the core treats as a scheduler stall.
        """
        ...


@dataclass(frozen=True)
class RetryPolicy:
    """Per-chunk failure handling, owned by the dispatch core.

    ``max_attempts`` counts total shipments of one chunk: 1 (default)
    fails the run on the first chunk failure -- the behavior every
    backend had before the policy existed; ``n > 1`` retransmits the
    chunk over the serialized link up to ``n - 1`` times before giving
    up.  Retransmissions are driver-internal: the scheduling algorithm
    sees one dispatch and one (late) completion, the report counts the
    extra shipments under ``retransmitted_chunks``.

    Retries are the *same-worker* recovery layer.  What happens when
    they run out is governed by the resilience tier
    (:class:`~repro.resilience.ResiliencePolicy` via
    ``DispatchOptions.resilience``): cross-worker escalation,
    quarantine, straggler speculation, and — at the service layer — the
    job dead-letter queue.  See ``docs/resilience.md``.
    """

    max_attempts: int = 1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


@dataclass
class DispatchSubstrate:
    """Everything a backend contributes to a :class:`DispatchCore` run.

    This is the narrowed execution-backend interface: provide a clock, a
    transport, a compute host, and a probe cost source; the core does
    the rest.  ``annotations`` are merged into the execution report
    (e.g. ``{"backend": "local-execution"}``); ``gamma_configured`` and
    ``seed`` flow into the report header.
    """

    clock: Clock
    transport: Transport
    host: ComputeHost
    probe_costs: ProbeCostSource
    annotations: dict[str, object] = field(default_factory=dict)
    gamma_configured: float = 0.0
    seed: int | None = None

    def bind(self, core: "DispatchCore") -> None:
        self.transport.bind(core)
        self.host.bind(core)
