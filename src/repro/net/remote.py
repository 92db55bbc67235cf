"""Remote execution backend: chunks shipped to socket workers.

This is the fourth execution substrate of the unified dispatch core --
and the first where the worker really is a separate endpoint reached
over a network socket, which is what the paper means by scheduling on
*grid* platforms.  The scheduling loop is still the shared
:class:`~repro.dispatch.core.DispatchCore`, over the shared wall-clock
substrate kit (:mod:`repro.execution.substrate`: the master thread
extracts the chunk payload, holds the serialized link for the modeled
transfer duration, and hands the bytes to the compute host); this module
contributes:

* :class:`_SocketChannel` -- one TCP connection per grid worker to a
  :mod:`repro.net.worker` process: chunk bytes go out base64-framed,
  delimited results come back over the same socket (the Groundhog
  serialize -> submit -> delimited-result flow), and reader threads
  stream replies to the master.  A dropped connection fails the
  in-flight chunks (so the core's :class:`RetryPolicy` can retransmit)
  and the next send reconnects;
* :class:`RemoteWorkerPool` -- spawns ``python -m repro.net.worker``
  processes on loopback, tracks every handle from the moment ``Popen``
  returns, and reaps them all on ``stop()`` -- idempotent, safe on
  every error path, no leaked children.

Worker endpoints map 1:1 onto grid workers: each worker process owns
one master connection at a time, so the backend refuses a grid larger
than its endpoint list rather than silently multiplexing.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..apst.division import DivisionMethod
from ..apst.xmlspec import TaskSpec
from ..dispatch.core import DispatchOptions
from ..dispatch.protocols import DispatchSubstrate
from ..errors import ExecutionError
from ..execution.substrate import (
    PROBE_CHUNK_ID,
    Reply,
    ScaledWallClock,
    await_ready_line,
    channel_substrate,
    run,
)
from ..obs import NET_WORKER_LOST, OBS_DISABLED, Observability
from ..platform.resources import Grid
from ..simulation.trace import ExecutionReport
from .protocol import decode_payload, encode_payload, parse_frame


@dataclass(frozen=True)
class WorkerEndpoint:
    """Where one socket worker listens."""

    name: str
    host: str
    port: int

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)


class RemoteWorkerPool:
    """Launch and reap local :mod:`repro.net.worker` processes.

    The pool is how tests, benchmarks, and ``apst-dv serve --workers N``
    get real socket workers without a cluster: each worker is a separate
    OS process listening on an ephemeral loopback port.  ``stop()`` is
    idempotent and reaps every spawned process (terminate, then kill),
    including partially spawned fleets when startup fails midway.
    """

    STARTUP_TIMEOUT_S = 30.0

    def __init__(self) -> None:
        self._processes: list[subprocess.Popen] = []
        self.endpoints: list[WorkerEndpoint] = []
        self._stopped = False

    @property
    def processes(self) -> list[subprocess.Popen]:
        """Every child spawned by this pool (for leak checks)."""
        return list(self._processes)

    def spawn(
        self,
        count: int,
        app_spec: str,
        workdir: str | Path,
        *,
        drop_after: int | None = None,
        drop_forever: bool = False,
        name_prefix: str = "netw",
    ) -> list[WorkerEndpoint]:
        """Start ``count`` workers; returns their endpoints in order."""
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        self._stopped = False
        # the child must import repro however the parent did (installed,
        # PYTHONPATH, or sys.path manipulation): prepend our package root
        env = os.environ.copy()
        package_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        try:
            for i in range(count):
                args = [
                    sys.executable, "-m", "repro.net.worker",
                    app_spec, str(workdir / f"{name_prefix}{i}"),
                    "--host", "127.0.0.1", "--port", "0",
                    "--name", f"{name_prefix}{i}",
                ]
                if drop_after is not None:
                    args += ["--drop-after", str(drop_after)]
                if drop_forever:
                    args += ["--drop-forever"]
                process = subprocess.Popen(
                    args,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    bufsize=1,
                    env=env,
                )
                # track before anything can fail, so stop() reaps it
                self._processes.append(process)
                endpoint = self._await_ready(process, f"{name_prefix}{i}")
                self.endpoints.append(endpoint)
        except Exception:
            self.stop()
            raise
        return list(self.endpoints)

    def _await_ready(self, process: subprocess.Popen, name: str) -> WorkerEndpoint:
        announce = await_ready_line(process, name, self.STARTUP_TIMEOUT_S)
        return WorkerEndpoint(name=name, host=announce["host"], port=int(announce["port"]))

    def stop(self) -> None:
        """Terminate and reap every worker; safe to call repeatedly."""
        if self._stopped:
            return
        self._stopped = True
        for process in self._processes:
            if process.poll() is None:
                process.terminate()
        for process in self._processes:
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self.endpoints.clear()

    def __enter__(self) -> "RemoteWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass
class _Conn:
    endpoint: WorkerEndpoint
    sock: socket.socket | None = None
    stream: object = None
    reader: threading.Thread | None = None
    generation: int = 0


class _SocketChannel:
    """One TCP connection per grid worker; replies stream back."""

    CONNECT_TIMEOUT_S = 10.0

    def __init__(
        self,
        grid: Grid,
        endpoints: list[WorkerEndpoint],
        workdir: Path,
        clock: ScaledWallClock,
        obs: Observability,
    ) -> None:
        if len(endpoints) < len(grid.workers):
            raise ExecutionError(
                f"remote backend needs one endpoint per grid worker: "
                f"{len(grid.workers)} workers, {len(endpoints)} endpoints"
            )
        self._workdir = workdir
        self._clock = clock
        self._obs = obs
        self._conns = [_Conn(endpoint=endpoints[i]) for i in range(len(grid.workers))]
        self._on_reply: Callable[[Reply], None] | None = None
        # telemetry return path: t0 per (worker, chunk) for offset samples
        self._aggregator = obs.aggregator
        self._tracer = obs.tracer
        self._send_times: dict[tuple[int, object], float] = {}
        metrics = obs.metrics
        self._m_lost = (
            metrics.counter(
                "repro_net_workers_lost_total",
                "Worker connections lost (mid-run or during probing)",
            )
            if metrics is not None
            else None
        )

    # -- lifecycle -----------------------------------------------------------
    def start(self, on_reply: Callable[[Reply], None]) -> None:
        self._on_reply = on_reply
        for index in range(len(self._conns)):
            self._connect(index)
        self._workdir.mkdir(parents=True, exist_ok=True)

    def stop(self) -> None:
        """Close connections and join readers; workers stay up (pool owns them)."""
        for conn in self._conns:
            self._close_conn(conn)
        for conn in self._conns:
            if conn.reader is not None:
                conn.reader.join(timeout=5.0)
                conn.reader = None

    def _connect(self, index: int) -> None:
        conn = self._conns[index]
        try:
            sock = socket.create_connection(
                conn.endpoint.address, timeout=self.CONNECT_TIMEOUT_S
            )
        except OSError as exc:
            raise ExecutionError(
                f"cannot reach worker {conn.endpoint.name} at "
                f"{conn.endpoint.host}:{conn.endpoint.port}: {exc}"
            ) from exc
        sock.settimeout(None)
        conn.sock = sock
        conn.stream = sock.makefile("rwb")
        conn.generation += 1
        conn.reader = threading.Thread(
            target=self._reader_loop, args=(index, conn.generation, conn.stream),
            daemon=True, name=f"apstdv-net-reader-{conn.endpoint.name}",
        )
        conn.reader.start()

    @staticmethod
    def _close_conn(conn: _Conn) -> None:
        # sock.close() alone leaves the fd open while the makefile stream
        # still references it -- the worker would keep serving a dead master
        # and never accept the next run's connection.  Shut down first (wakes
        # a reader blocked in recv), then close both handles.
        if conn.sock is not None:
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if conn.stream is not None:
            try:
                conn.stream.close()
            except (OSError, ValueError):
                pass
            conn.stream = None
        if conn.sock is not None:
            try:
                conn.sock.close()
            except OSError:
                pass
            conn.sock = None

    def _reader_loop(self, index: int, generation: int, stream) -> None:
        try:
            for line in stream:
                try:
                    reply = parse_frame(line)
                except Exception as exc:
                    reply = {"status": "error", "message": f"garbled reply: {exc}"}
                reply["worker_index"] = index
                self._ingest_reply_telemetry(index, reply)
                chunk_id = reply.get("chunk_id", PROBE_CHUNK_ID)
                if reply.get("status") == "ok" and chunk_id != PROBE_CHUNK_ID:
                    result_path = self._workdir / f"result_{chunk_id}.out"
                    result_path.write_bytes(decode_payload(reply.pop("result_b64", "")))
                    reply["result_path"] = result_path
                self._on_reply(reply)
        except (OSError, ValueError):
            pass
        # EOF or socket error: report the loss tagged with our generation,
        # so a reconnect's fresh reader is not mistaken for another loss.
        # Whether it is stale is only decidable on the master thread (the
        # send path reconnects there), hence the deferred reply.
        self._on_reply(lambda: self._conn_lost(index, generation))

    # -- WorkerChannel interface ---------------------------------------------
    def send(self, index: int, request: dict) -> None:
        conn = self._conns[index]
        wire = {k: v for k, v in request.items() if k != "data"}
        wire["data_b64"] = encode_payload(request["data"])
        if self._tracer is not None and "traceparent" not in wire:
            # not a dispatched chunk (those carry their dispatch span):
            # parent the worker's probe-chunk span to the daemon's open
            # probe span (no per-request span of our own)
            traceparent = self._tracer.current_traceparent()
            if traceparent is not None:
                wire["traceparent"] = traceparent
        data = json.dumps(wire).encode("utf-8") + b"\n"
        if self._aggregator is not None:
            self._send_times[(index, request["chunk_id"])] = time.time()
        if conn.sock is None:
            self._connect(index)
        try:
            conn.stream.write(data)
            conn.stream.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            # stale connection (worker dropped us between chunks).  Fail
            # what was in flight on it NOW -- reconnecting bumps the
            # generation, so the old reader's queued loss report will be
            # discarded as stale and would otherwise strand those chunks
            # until DRAIN_TIMEOUT_S.  The chunk being sent is excluded:
            # it is about to go out again on the fresh connection.
            self._on_reply({**self._drop_conn(index), "exclude": request["chunk_id"]})
            self._connect(index)
            try:
                conn.stream.write(data)
                conn.stream.flush()
            except OSError as exc:
                raise ExecutionError(
                    f"worker {conn.endpoint.name} unreachable: {exc}"
                ) from exc

    # -- plumbing -------------------------------------------------------------
    def _ingest_reply_telemetry(self, index: int, reply: dict) -> None:
        """Clock-offset sample + telemetry batch off one worker reply.

        Every reply carrying ``recv_unix``/``send_unix`` is a valid NTP
        sample (the worker's compute time between them does not bias the
        offset); chunk replies additionally piggyback the worker's
        telemetry batch.  The batch is re-keyed to the *endpoint* name
        the master registered, so offset estimates and span records
        agree on what the process is called.
        """
        if self._aggregator is None:
            return
        t3 = time.time()
        name = self._conns[index].endpoint.name
        t0 = self._send_times.pop((index, reply.get("chunk_id")), None)
        t1 = reply.get("recv_unix")
        t2 = reply.get("send_unix")
        if t0 is not None and t1 is not None and t2 is not None:
            try:
                self._aggregator.add_offset_sample(
                    name, t0=t0, t1=float(t1), t2=float(t2), t3=t3
                )
            except (TypeError, ValueError):
                pass
        batch = reply.get("telemetry")
        if batch:
            self._aggregator.ingest(batch, process=name)

    def _conn_lost(self, index: int, generation: int) -> dict | None:
        """A reader hit EOF: the loss reply, or None if it is stale."""
        if generation != self._conns[index].generation:
            return None  # a reader from a connection we already replaced
        return self._drop_conn(index)

    def _drop_conn(self, index: int) -> dict:
        """Close a dead connection, account for it, build the ``lost`` reply.

        Shared by the reader's EOF path and ``send``'s reconnect path, and
        by probe-time and mid-run losses alike; always on the master thread.
        """
        conn = self._conns[index]
        self._close_conn(conn)
        if self._m_lost is not None:
            self._m_lost.inc()
        if self._obs.enabled:
            self._obs.emit(
                NET_WORKER_LOST,
                sim_time=self._clock.now(),
                worker=conn.endpoint.name,
                worker_index=index,
            )
        return {
            "status": "lost",
            "worker_index": index,
            "what": f"connection to worker {conn.endpoint.name}",
        }


class RemoteExecutionBackend:
    """Backend running chunks on socket workers (see module docstring).

    Parameters
    ----------
    endpoints:
        Worker endpoints, one per grid worker (index-aligned; extras
        are ignored).  Get them from :class:`RemoteWorkerPool` or a
        gateway's worker registry.
    workdir:
        Directory for master-side result files.
    time_scale:
        Wall seconds per modeled second.
    observability:
        Optional handle; when set, lost worker connections emit
        ``net.worker.lost`` events on top of the core's usual
        chunk/probe instrumentation.
    """

    def __init__(
        self,
        endpoints: list[WorkerEndpoint],
        workdir: str | Path,
        *,
        time_scale: float = 0.002,
        payload_cap_bytes: int = 1 << 20,
        observability: Observability | None = None,
    ) -> None:
        if time_scale <= 0:
            raise ExecutionError("time_scale must be positive")
        if not endpoints:
            raise ExecutionError("remote backend needs at least one worker endpoint")
        self._endpoints = list(endpoints)
        self._workdir = Path(workdir)
        self._workdir.mkdir(parents=True, exist_ok=True)
        self._scale = time_scale
        self._payload_cap = payload_cap_bytes
        self._obs = observability or OBS_DISABLED
        self.last_outputs: list[Path] = []
        #: substrate of the most recent execute(); its host exposes the
        #: disconnect count (used by failure-injection tests)
        self.last_substrate: DispatchSubstrate | None = None

    # -- ExecutionBackend interface --------------------------------------------
    def substrate(
        self,
        grid: Grid,
        division: DivisionMethod,
        task: TaskSpec | None = None,
    ) -> DispatchSubstrate:
        """Fresh single-use dispatch substrate for one run on ``grid``."""
        clock = ScaledWallClock(self._scale)
        return channel_substrate(
            grid,
            division,
            _SocketChannel(
                grid, self._endpoints, self._workdir / "results", clock, self._obs
            ),
            clock,
            self._payload_cap,
            {
                "backend": "remote-execution",
                "workers": len(grid.workers),
                "endpoints": [f"{e.host}:{e.port}" for e in self._endpoints],
            },
        )

    def execute(
        self,
        grid: Grid,
        scheduler,
        division: DivisionMethod,
        task: TaskSpec | None = None,
        *,
        probe_units: float | None = None,
        options: DispatchOptions | None = None,
    ) -> ExecutionReport:
        opts = options or DispatchOptions()
        if opts.observability is None and self._obs.enabled:
            opts.observability = self._obs
        self.last_substrate = self.substrate(grid, division, task)
        report, self.last_outputs = run(
            self.last_substrate, grid, scheduler, division,
            probe_units=probe_units, options=opts,
        )
        return report
