"""The wall-clock substrate kit: one transport, one host, one probe source.

The paper deploys chunks to remote workers over Ssh/Scp/Globus and hides
those mechanisms from the scheduler (Section 3); the thread, process and
socket backends are this repository's stand-ins.  They differ in exactly
one thing -- how a request reaches worker *i* and how its reply comes
back -- so that is all a backend supplies, as a :class:`WorkerChannel`.
Everything else the :class:`~repro.dispatch.core.DispatchCore` needs
from a real-execution substrate is written once, here:

* :class:`ScaledWallClock` -- modeled time is scaled wall time
  (``time_scale`` wall seconds per modeled second, so a 6000-second
  modeled run finishes in seconds);
* :class:`ScaledLinkTransport` -- the master thread *serially*
  "transfers" chunks: it extracts the chunk payload via the division
  method and holds the link (sleeps) for the modeled transfer duration.
  Transfer cost is therefore *slept, not measured* -- any data-plane
  work must start by making this one ``send`` move real bytes;
* :class:`ChannelHost` -- the completion queue and in-flight map behind
  the :class:`~repro.dispatch.protocols.ComputeHost` protocol.  Workers
  *really compute* on the chunk bytes, padded up to the modeled duration
  when the real computation is faster (:func:`process_padded`, the one
  worker-side routine all three channels run), so observed times carry
  genuine hardware noise on top of the model;
* :class:`MeasuredProbeCosts` -- the probe round *measures* those scaled
  transfers and real computations, so estimates carry genuine
  measurement noise;
* :func:`run` -- the body of every backend's ``execute()``.

All reported times are in modeled seconds, directly comparable to the
simulation backend.  This module lives in ``execution/`` rather than
``dispatch/`` because it is wall-clock by nature and ``dispatch/`` is
under the sim-time purity lint.
"""

from __future__ import annotations

import json
import queue
import subprocess
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Protocol, Union

from ..apst.division import ChunkExtent, DivisionMethod
from ..dispatch.core import DispatchCore, DispatchOptions
from ..dispatch.protocols import DispatchSubstrate
from ..errors import ExecutionError
from ..platform.resources import Grid
from ..simulation.trace import ChunkTrace, ExecutionReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .local import AppProcessor

#: ``chunk_id`` of probe-round requests (never a real chunk's id).
PROBE_CHUNK_ID = -1

#: What a channel posts: a normalised reply dict (see
#: :class:`WorkerChannel`), or a zero-argument callable the host resolves
#: on the master thread into one -- or into None to withdraw it.
Reply = Union[dict, Callable[[], "dict | None"]]


class ScaledWallClock:
    """Modeled time derived from the wall clock: (elapsed wall) / scale."""

    __slots__ = ("scale", "_t0")

    def __init__(self, scale: float) -> None:
        #: wall seconds per modeled second
        self.scale = scale
        self._t0 = time.perf_counter()

    def now(self) -> float:
        """Current modeled time in seconds."""
        return (time.perf_counter() - self._t0) / self.scale

    def sleep_model(self, model_seconds: float) -> None:
        """Hold the calling thread for a modeled duration."""
        if model_seconds > 0:
            time.sleep(model_seconds * self.scale)


def payload_for(
    division: DivisionMethod, extent: ChunkExtent, payload_cap: int
) -> bytes:
    """Chunk bytes for an extent: real division payload, or synthetic."""
    payload_obj = division.extract(extent) if extent.units > 0 else None
    if payload_obj is not None:
        return payload_obj.read_bytes()
    # abstract load: synthesize a placeholder payload (capped)
    return bytes(min(int(extent.units), payload_cap))


def process_padded(
    app: "AppProcessor", data: bytes, units: float | None, min_wall_time: float
) -> tuple[bytes, float]:
    """Worker side of one request: really compute, pad, report wall time.

    ``min_wall_time`` (wall seconds) lets the master enforce the modeled
    computation cost: real processing is padded up to it, so reply
    arrival times are meaningful to the scheduler.  Returns the result
    bytes and the actual (padded) wall duration.
    """
    start = time.perf_counter()
    result = app.process(data, units=units)
    pad = min_wall_time - (time.perf_counter() - start)
    if pad > 0:
        time.sleep(pad)
    return result, time.perf_counter() - start


def await_ready_line(process: subprocess.Popen, name: str, timeout: float) -> dict:
    """The parsed ``{"status": "ready", ...}`` line a fresh worker prints.

    ``readline()`` has no timeout of its own: do it on a daemon thread
    and join with the startup budget, so a child that hangs before
    printing its ready line cannot hang the launcher forever.  A hung
    child is killed, not leaked.
    """
    assert process.stdout is not None
    ready: list[str] = []
    reader = threading.Thread(
        target=lambda: ready.append(process.stdout.readline()),
        daemon=True,
        name=f"apstdv-await-{name}",
    )
    reader.start()
    reader.join(timeout=timeout)
    if reader.is_alive() or not ready or not ready[0]:
        if process.poll() is None:  # hung: kill so stderr.read() returns
            process.kill()
            process.wait()
        stderr = process.stderr.read() if process.stderr else ""
        raise ExecutionError(
            f"worker {name} failed to start within {timeout:.0f}s: {stderr}"
        )
    announce = json.loads(ready[0])
    if announce.get("status") != "ready":
        raise ExecutionError(
            f"worker {name} reported {announce.get('status')!r} at startup: "
            f"{announce.get('message', '')}"
        )
    return announce


class WorkerChannel(Protocol):
    """How requests reach worker *i* and replies come back: a backend.

    The host sends ``{"cmd": "process", "chunk_id", "data" (bytes),
    "units", "min_wall_time"[, "traceparent"]}``; the channel encodes it
    for its medium, has the worker run :func:`process_padded`, and posts
    one reply per request through ``on_reply`` -- from any thread --
    normalised to one of:

    * ``{"status": "ok", "worker_index", "chunk_id", "wall_time",
      "result_path"}``;
    * ``{"status": "error", "worker_index", "message"[, "chunk_id"]}`` --
      the worker keeps serving (a bad chunk must not take the node down);
    * ``{"status": "lost", "worker_index", "what"[, "exclude"]}`` -- the
      worker (thread, process, connection) is gone and nothing in flight
      on it will ever reply; ``exclude`` names a chunk the channel has
      already re-sent itself.

    A channel whose reply needs master-thread state to normalise posts a
    callable instead (see :data:`Reply`).
    """

    def start(self, on_reply: Callable[[Reply], None]) -> None:
        """Bring up the workers; replies flow through ``on_reply``."""
        ...

    def send(self, index: int, request: dict) -> None:
        """Deliver one request to worker ``index`` (master thread)."""
        ...

    def stop(self) -> None:
        """Tear down the workers; must be safe on every error path."""
        ...


class ScaledLinkTransport:
    """The master thread sleeping through the transfer IS the serialized link."""

    supports_outputs = False

    def __init__(
        self, grid: Grid, division: DivisionMethod, clock: ScaledWallClock, payload_cap: int
    ) -> None:
        self._grid = grid
        self._division = division
        self._clock = clock
        self._payload_cap = payload_cap
        self._busy_time = 0.0
        self._core: DispatchCore | None = None

    def bind(self, core: DispatchCore) -> None:
        self._core = core

    @property
    def busy(self) -> bool:
        return False  # send() blocks, so the link is free between calls

    @property
    def busy_time(self) -> float:
        return self._busy_time

    def send(self, chunk: ChunkTrace, extent: ChunkExtent) -> None:
        payload = payload_for(self._division, extent, self._payload_cap)
        duration = self._grid.workers[chunk.worker_index].transfer_time(extent.units)
        self._clock.sleep_model(duration)
        self._busy_time += duration
        chunk.send_end = self._clock.now()
        self._core.chunk_arrived(chunk, payload)

    def send_output(self, chunk: ChunkTrace, units: float) -> None:
        raise ExecutionError("wall-clock transport does not ship outputs over the link")


class ChannelHost:
    """Completion queue + in-flight map over one :class:`WorkerChannel`.

    Channel threads only ever post to the queue; every core callback
    (``chunk_completed`` / ``chunk_failed``) is delivered from the master
    thread inside ``poll()`` / ``wait()`` / ``probe()``, as the
    :class:`~repro.dispatch.protocols.ComputeHost` contract demands.
    """

    time_advances_when_idle = True

    #: seconds of wall clock to wait on worker replies before giving up
    DRAIN_TIMEOUT_S = 120.0

    def __init__(self, grid: Grid, channel: WorkerChannel, clock: ScaledWallClock) -> None:
        self._grid = grid
        self._channel = channel
        self._clock = clock
        self._replies: "queue.Queue[Reply]" = queue.Queue()
        self._inflight: dict[int, ChunkTrace] = {}
        self._core: DispatchCore | None = None
        self._disconnects = 0

    @property
    def disconnects(self) -> int:
        """Workers lost over the run (failure-injection assertions)."""
        return self._disconnects

    @property
    def processes(self) -> list[subprocess.Popen]:
        """Every child process the channel spawned (for leak checks)."""
        return getattr(self._channel, "processes", [])

    def bind(self, core: DispatchCore) -> None:
        self._core = core

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        try:
            self._channel.start(self._replies.put)
        except BaseException:
            # the core only guards stop() once start() returned: a fleet
            # that came up halfway must not outlive the failed start
            self._channel.stop()
            raise

    def stop(self) -> None:
        self._channel.stop()

    # -- ComputeHost interface -----------------------------------------------
    def enqueue(self, chunk: ChunkTrace, payload: object) -> None:
        assert isinstance(payload, bytes)
        self._inflight[chunk.chunk_id] = chunk
        request = self._request(chunk.chunk_id, chunk.worker_index, payload, chunk.units)
        # names the chunk's dispatch span as the worker span's parent
        # (None unless a trace context is active; channels that cannot
        # carry it ignore the key)
        traceparent = self._core.trace_parent_for(chunk.chunk_id)
        if traceparent is not None:
            request["traceparent"] = traceparent
        self._channel.send(chunk.worker_index, request)

    def poll(self) -> None:
        while True:
            try:
                reply = self._take(block=False)
            except queue.Empty:
                return
            self._handle(reply)

    def wait(self) -> bool:
        try:
            reply = self._take(timeout=self.DRAIN_TIMEOUT_S)
        except queue.Empty:
            raise ExecutionError("timed out waiting for worker completions") from None
        self._handle(reply)
        self.poll()
        return True

    def idle_tick(self) -> bool:
        time.sleep(0.001)
        return True

    def probe(self, index: int, payload: bytes, units: float) -> None:
        """Synchronous probe job on worker ``index`` (nothing in flight).

        Replies that are not the probe's own are set aside and re-queued
        for the main loop once it returns.
        """
        self._channel.send(index, self._request(PROBE_CHUNK_ID, index, payload, units))
        deadline = time.monotonic() + self.DRAIN_TIMEOUT_S
        foreign: list[dict] = []
        try:
            while True:
                try:
                    reply = self._take(timeout=max(0.0, deadline - time.monotonic()))
                except queue.Empty:
                    raise ExecutionError("timed out waiting for worker reply") from None
                if reply is None:
                    continue
                status = reply["status"]
                mine = reply["worker_index"] == index and (
                    status == "lost"
                    or reply.get("chunk_id", PROBE_CHUNK_ID) == PROBE_CHUNK_ID
                )
                if not mine:
                    foreign.append(reply)
                elif status == "ok":
                    return
                elif status == "error":
                    raise ExecutionError(
                        f"probe computation on worker {index} failed: "
                        f"{reply.get('message')}"
                    )
                else:
                    # a probe-time loss takes the same accounting path as
                    # a mid-run loss -- only then does the failure surface
                    # to the probe loop (unless the channel already re-sent
                    # the probe job on a fresh link)
                    self.lost(index, reply["what"], exclude=reply.get("exclude"))
                    if reply.get("exclude") != PROBE_CHUNK_ID:
                        raise ExecutionError(f"{reply['what']} lost during probe")
        finally:
            for reply in foreign:
                self._replies.put(reply)

    def lost(self, worker: int, what: str, *, exclude: int | None = None) -> None:
        """Worker ``worker`` is gone: fail the chunks in flight on it.

        Chunks mid-compute there will never reply; failing each lets the
        core's RetryPolicy retransmit (or its escalation policy move the
        chunk).  ``exclude`` names a chunk the channel is re-sending
        itself (it must not also be queued for retry).
        """
        self._disconnects += 1
        doomed = [
            c
            for c in self._inflight.values()
            if c.worker_index == worker and c.chunk_id != exclude
        ]
        for chunk in doomed:
            del self._inflight[chunk.chunk_id]
            self._core.chunk_failed(chunk, f"{what} lost mid-chunk")

    # -- plumbing -------------------------------------------------------------
    def _request(self, chunk_id: int, index: int, payload: bytes, units: float) -> dict:
        return {
            "cmd": "process",
            "chunk_id": chunk_id,
            "data": payload,
            "units": units,
            "min_wall_time": self._grid.workers[index].compute_time(units)
            * self._clock.scale,
        }

    def _take(self, block: bool = True, timeout: float | None = None) -> dict | None:
        reply = self._replies.get(block=block, timeout=timeout)
        return reply() if callable(reply) else reply

    def _handle(self, reply: dict | None) -> None:
        if reply is None:
            return  # withdrawn by its channel
        index = reply["worker_index"]
        if reply["status"] == "lost":
            self.lost(index, reply["what"], exclude=reply.get("exclude"))
            return
        chunk = self._inflight.pop(reply.get("chunk_id", PROBE_CHUNK_ID), None)
        if reply["status"] == "error":
            message = f"worker {index} failed: {reply.get('message')}"
            if chunk is None:
                # not attributable to one chunk (garbled pipe, bad request)
                raise ExecutionError(message)
            self._core.chunk_failed(chunk, message)
            return
        if chunk is None:
            raise ExecutionError(f"reply for unknown chunk: {reply!r}")
        # the worker padded its real processing up to the modeled cost, so
        # the reply time is the modeled completion; its wall_time is the
        # actual (padded) duration
        now = self._clock.now()
        chunk.compute_end = now
        chunk.compute_start = max(
            chunk.send_end, now - reply["wall_time"] / self._clock.scale
        )
        self._core.chunk_completed(chunk, result_path=reply["result_path"])


class MeasuredProbeCosts:
    """Measured probe costs: scaled transfer sleeps, real probe jobs on the workers."""

    def __init__(
        self,
        grid: Grid,
        division: DivisionMethod,
        host: ChannelHost,
        clock: ScaledWallClock,
        payload_cap: int,
    ) -> None:
        self._grid = grid
        self._division = division
        self._host = host
        self._clock = clock
        self._payload_cap = payload_cap

    def realized_transfer_time(self, index: int, units: float) -> float:
        start = self._clock.now()
        self._clock.sleep_model(self._grid.workers[index].transfer_time(units))
        return max(1e-9, self._clock.now() - start)

    def realized_compute_time(self, index: int, units: float) -> float:
        if units <= 0:
            return self._grid.workers[index].comp_latency  # no-op jobs: modeled directly
        # probe computation (real work on synthetic probe bytes)
        payload = payload_for(self._division, ChunkExtent(0.0, units), self._payload_cap)
        start = self._clock.now()
        self._host.probe(index, payload, units)
        return max(1e-9, self._clock.now() - start)


def channel_substrate(
    grid: Grid,
    division: DivisionMethod,
    channel: WorkerChannel,
    clock: ScaledWallClock,
    payload_cap: int,
    annotations: dict[str, object],
) -> DispatchSubstrate:
    """Fresh single-use dispatch substrate over one worker channel."""
    host = ChannelHost(grid, channel, clock)
    return DispatchSubstrate(
        clock=clock,
        transport=ScaledLinkTransport(grid, division, clock, payload_cap),
        host=host,
        probe_costs=MeasuredProbeCosts(grid, division, host, clock, payload_cap),
        annotations=annotations,
    )


def run(
    substrate: DispatchSubstrate,
    grid: Grid,
    scheduler,
    division: DivisionMethod,
    *,
    probe_units: float | None = None,
    options: DispatchOptions | None = None,
) -> tuple[ExecutionReport, list[Path]]:
    """One dispatched run; returns the report and the result files
    ordered by chunk offset (the body of every backend's ``execute()``).
    """
    opts = options or DispatchOptions()
    if probe_units is not None:
        opts.probe_units = probe_units
    core = DispatchCore(
        grid,
        scheduler,
        division.total_units,
        substrate=substrate,
        division=division,
        options=opts,
    )
    report = core.run()
    return report, core.outputs_in_offset_order()
