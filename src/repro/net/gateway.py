"""Asyncio job-submission gateway: the daemon's network face.

:class:`JobGateway` exposes the APST daemon / multi-job service verbs
(``submit``, ``status``, ``cancel``, ``drain``, ``stats``, ``outputs``,
``dlq``) over TCP.  Two dialects share one port: newline-delimited JSON frames
(the native protocol, one request per line, responses in order), and
plain HTTP/1.1 (``POST`` a request body, or ``GET /stats`` /
``/healthz`` / ``/metrics``) so ``curl`` and load balancers work
unmodified.  The first bytes of a connection select the dialect.

Traffic shaping is explicit:

* **bounded admission queue** -- submissions enter a queue of
  ``config.max_queue`` slots; when it is full the gateway answers
  ``{"status": "retry", "error_code": "queue_full"}`` (HTTP 429) and
  the client SDK backs off and resends.  Accepted work is never lost;
  rejected work was never accepted;
* **request batching** -- a single runner thread drains the queue in
  batches of up to ``config.batch_max`` (lingering
  ``config.batch_window_s`` to let a batch fill) and executes each
  batch in one multi-job service run;
* **graceful shutdown** -- idempotent and SIGTERM-safe: new
  submissions are rejected with a clear ``draining`` error, admitted
  jobs are drained, the runner is joined, and any gateway-owned worker
  pool is reaped.  Calling :meth:`shutdown` twice (or racing it with a
  signal) is safe.

There is one way to run a job: gateway admission -> service leases
(:class:`~repro.service.MultiJobService`) -> the daemon's segment runner
-> ``DispatchCore``, through one submit call and one run call
(``_run_admitted``) shared by batches, the store sweep and DLQ replay.
Registering enough socket workers (``register_worker``) only swaps the
daemon's backend; tenant / priority / weight still order the jobs, which
then hold the whole platform one at a time (a segment that really ran
cannot be preempted after the fact).

Only the runner thread mutates daemon state (submissions, batch
execution); the event loop answers reads (``status``/``stats``) from
GIL-atomic snapshots and routes everything else through the queue, so
the protocol stays responsive while a batch runs.

Observability: ``net.request`` / ``net.request.rejected`` /
``net.batch.executed`` / ``net.worker.registered`` events and the
``repro_net_*`` metric family (request counters per verb/outcome,
admission-queue depth and peak, submit-latency and batch-size
histograms) flow through the daemon's :class:`~repro.obs.Observability`
handle -- the usual no-op when observability is off.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import queue
import signal
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

from ..analysis import lockwatch
from ..apst.daemon import APSTDaemon
from ..errors import ReproError, ServiceError, SpecificationError
from ..obs import (
    NET_BATCH_EXECUTED,
    NET_REQUEST,
    NET_REQUEST_REJECTED,
    NET_WORKER_REGISTERED,
    TelemetryAggregator,
    TraceContext,
    get_logger,
    new_trace_id,
    parse_traceparent,
)
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    VERBS,
    FrameError,
    error_response,
    http_status_for,
    ok_response,
    parse_frame,
    retry_response,
)
from .remote import RemoteExecutionBackend, RemoteWorkerPool, WorkerEndpoint

_log = get_logger("net.gateway")

#: Submit-latency buckets (wall seconds): network admission is fast.
_LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

_HTTP_METHODS = (b"GET ", b"POST ", b"PUT ", b"HEAD ", b"DELETE ", b"OPTIONS ")

_HTTP_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 409: "Conflict",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: GET path -> the request it stands for (/healthz, /metrics: ``_http_get``)
_HTTP_GET_ROUTES = {
    "/": {"verb": "ping"},
    "/stats": {"verb": "stats"},
    "/status": {"verb": "status"},
    "/dlq": {"verb": "dlq", "action": "list"},
    "/trace": {"verb": "trace"},
}


@dataclass
class GatewayConfig:
    """Tunables of one gateway instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 picks an ephemeral port (reported via .port)
    #: admission-queue bound; a full queue triggers the retry/429 reply
    max_queue: int = 256
    #: max submissions executed per batch
    batch_max: int = 32
    #: seconds the runner lingers to let a batch fill
    batch_window_s: float = 0.01
    #: suggested client back-off carried in retry replies
    retry_after_s: float = 0.05
    #: worker-lease policy on the simulation backend
    service_policy: str = "fair-share"
    #: wall-clock bound on joining the runner at shutdown
    shutdown_timeout_s: float = 60.0
    #: seconds of uninterrupted admission-queue saturation (429ing with
    #: no successful admission) before /healthz reports degraded (503)
    degraded_window_s: float = 5.0
    #: min seconds between store sweeps (lease takeover + cross-daemon
    #: job pickup) on a shared durable store; only runs when the daemon's
    #: store is not the in-process memory backend
    store_sweep_s: float = 0.25


@dataclass
class _Submission:
    spec: str
    #: ``MultiJobService.submit`` keywords: algorithm, service metadata and,
    #: with tracing armed, the ``traceparent`` naming the gateway's submit span
    options: dict
    future: concurrent.futures.Future = field(
        default_factory=concurrent.futures.Future
    )
    enqueued_at: float = field(default_factory=perf_counter)


class JobGateway:
    """Network gateway over one :class:`~repro.apst.daemon.APSTDaemon`.

    Parameters
    ----------
    daemon:
        The daemon whose verbs are exposed.  Its observability handle
        instruments the gateway too.
    config:
        Traffic-shaping knobs; see :class:`GatewayConfig`.
    worker_pool:
        Optional gateway-owned :class:`RemoteWorkerPool`; its endpoints
        are pre-registered and its processes are reaped at shutdown.
    """

    def __init__(
        self,
        daemon: APSTDaemon,
        *,
        config: GatewayConfig | None = None,
        worker_pool: RemoteWorkerPool | None = None,
    ) -> None:
        self._daemon = daemon
        self._config = config or GatewayConfig()
        self._obs = daemon.observability
        from ..service import MultiJobService

        self._service = MultiJobService(
            daemon, policy=self._config.service_policy
        )
        self._pending: "queue.Queue[_Submission]" = queue.Queue(
            maxsize=self._config.max_queue
        )
        self._daemon_lock = lockwatch.create_lock("gateway.daemon")
        self._run_lock = lockwatch.create_lock("gateway.run")
        self._endpoints: list[WorkerEndpoint] = []
        self._remote_backend: RemoteExecutionBackend | None = None
        self._worker_pool = worker_pool
        self._draining = False
        self._shutdown_lock = lockwatch.create_lock("gateway.shutdown")
        self._shutdown_initiated = False
        self._rejected = 0
        self._batches = 0
        # Telemetry aggregation: arm automatically whenever observability
        # is on (OBS_DISABLED keeps the whole path a no-op).  The handle
        # is shared with the daemon, so the remote backend's host finds
        # the same aggregator through it.
        if self._obs.enabled and self._obs.aggregator is None:
            self._obs.aggregator = TelemetryAggregator()
        # Sustained-saturation tracking for the /healthz degraded signal:
        # set at the first 429, cleared by the next successful admission.
        self._saturated_since: float | None = None
        #: (unix time, depth) samples -- the queue-depth time series
        self._queue_depth_series: deque = deque(maxlen=4096)
        #: monotonic time of the last durable-store sweep
        self._last_sweep_at = 0.0
        self._stop_runner = threading.Event()
        self._runner = threading.Thread(
            target=self._runner_loop, daemon=True, name="apstdv-gateway-runner"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None
        self.host: str | None = None
        self.port: int | None = None
        metrics = self._obs.metrics
        if metrics is not None:
            self._m_requests = lambda verb, outcome: metrics.counter(
                "repro_net_requests_total", "Gateway requests handled",
                labels={"verb": verb, "outcome": outcome},
            ).inc()
            self._m_queue_depth = metrics.gauge(
                "repro_net_queue_depth", "Admission queue occupancy"
            )
            self._m_queue_peak = metrics.gauge(
                "repro_net_queue_depth_peak", "Admission queue high-water mark"
            )
            self._m_latency = metrics.histogram(
                "repro_net_submit_latency_seconds",
                "Wall seconds from admission-queue entry to job id assignment",
                buckets=_LATENCY_BUCKETS,
            )
            self._m_batch = metrics.histogram(
                "repro_net_batch_size", "Submissions executed per batch",
                buckets=_BATCH_BUCKETS,
            )
            self._m_e2e = metrics.histogram(
                "repro_net_job_e2e_seconds",
                "Wall seconds from submit arrival to job outcome",
                buckets=(0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0),
            )
        else:
            self._m_requests = None
            self._m_queue_depth = None
            self._m_queue_peak = None
            self._m_latency = None
            self._m_batch = None
            self._m_e2e = None
        if worker_pool is not None:
            for endpoint in worker_pool.endpoints:
                self._register_endpoint(endpoint)

    # -- lifecycle -----------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def rejected_submissions(self) -> int:
        """Submissions bounced with the backpressure reply so far."""
        return self._rejected

    @property
    def batches_executed(self) -> int:
        return self._batches

    @property
    def worker_endpoints(self) -> list[WorkerEndpoint]:
        return list(self._endpoints)

    def serve_forever(self, *, install_signal_handlers: bool = True) -> None:
        """Run the gateway on the calling thread until shutdown.

        With ``install_signal_handlers`` (the default), SIGTERM and
        SIGINT trigger the same graceful shutdown as the ``shutdown``
        verb -- reject new work, drain admitted jobs, reap workers.
        """
        asyncio.run(self._amain(install_signal_handlers))

    def start_in_background(self) -> "JobGateway":
        """Start the gateway on a daemon thread; returns once listening."""
        if self._thread is not None:
            raise ServiceError("gateway already started")
        self._thread = threading.Thread(
            target=self._background_main, daemon=True, name="apstdv-gateway"
        )
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise ServiceError("gateway failed to start within 30s")
        if self._startup_error is not None:
            raise ServiceError(f"gateway failed to start: {self._startup_error}")
        return self

    def _background_main(self) -> None:
        try:
            asyncio.run(self._amain(False))
        except BaseException as exc:  # surfaced by start_in_background
            self._startup_error = exc
            self._started.set()

    def request_shutdown(self) -> None:
        """Initiate graceful shutdown; idempotent, safe from any thread."""
        with self._shutdown_lock:
            if self._shutdown_initiated:
                return
            self._shutdown_initiated = True
        self._draining = True
        self._daemon.stop_accepting()
        loop = self._loop
        if loop is not None and loop.is_running():
            try:
                loop.call_soon_threadsafe(self._signal_stop)
            except RuntimeError:
                pass  # loop closed between the check and the call

    def _signal_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    def shutdown(self) -> None:
        """Graceful blocking shutdown; idempotent (see module docstring)."""
        self.request_shutdown()
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=self._config.shutdown_timeout_s + 30.0)

    def join(self, timeout: float | None = None) -> None:
        """Block until a background-started gateway exits."""
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "JobGateway":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    async def _amain(self, install_signal_handlers: bool) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if self._shutdown_initiated:
            self._stop_event.set()  # shutdown requested before startup
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    pass  # platforms/threads without signal support
        server = await asyncio.start_server(
            self._handle_connection,
            host=self._config.host,
            port=self._config.port,
            limit=MAX_FRAME_BYTES,
        )
        self.host, self.port = server.sockets[0].getsockname()[:2]
        self._runner.start()
        self._started.set()
        _log.info("gateway listening on %s:%s", self.host, self.port)
        try:
            await self._stop_event.wait()
        finally:
            # reject-new is already in force (request_shutdown set draining);
            # drain admitted jobs, then stop serving
            self._draining = True
            self._daemon.stop_accepting()
            self._stop_runner.set()
            await self._loop.run_in_executor(None, self._join_runner)
            server.close()
            await server.wait_closed()
            if self._worker_pool is not None:
                await self._loop.run_in_executor(None, self._worker_pool.stop)
            _log.info("gateway shut down cleanly")

    def _join_runner(self) -> None:
        if self._runner.is_alive():
            self._runner.join(timeout=self._config.shutdown_timeout_s)

    # -- the batch runner ----------------------------------------------------
    def _runner_loop(self) -> None:
        while True:
            try:
                first = self._pending.get(timeout=0.05)
            except queue.Empty:
                if self._stop_runner.is_set():
                    return
                self._store_sweep()
                continue
            batch = [first]
            deadline = time.monotonic() + self._config.batch_window_s
            while len(batch) < self._config.batch_max:
                remaining = deadline - time.monotonic()
                try:
                    batch.append(self._pending.get(timeout=max(0.0, remaining)))
                except queue.Empty:
                    break
            try:
                self._execute_batch(batch)
            finally:
                for _ in batch:
                    self._pending.task_done()
                if self._m_queue_depth is not None:
                    self._m_queue_depth.set(self._pending.qsize())
                self._sample_queue_depth()

    def _execute_batch(self, batch: list[_Submission]) -> None:
        start = perf_counter()
        admitted = 0
        for sub in batch:
            try:
                with self._daemon_lock:
                    job_id = self._service.submit(sub.spec, **sub.options)
                admitted += 1
                if self._m_latency is not None:
                    self._m_latency.observe(perf_counter() - sub.enqueued_at)
                sub.future.set_result(job_id)
            except Exception as exc:
                sub.future.set_exception(exc)
        if admitted == 0:
            return
        self._run_admitted()
        self._batches += 1
        if self._obs.enabled:
            self._obs.emit(
                NET_BATCH_EXECUTED,
                size=len(batch),
                admitted=admitted,
                remote=self._daemon.backend != "simulation",
                duration_s=perf_counter() - start,
            )
            if self._m_batch is not None:
                self._m_batch.observe(float(admitted))

    def _run_admitted(self) -> None:
        """Run whatever the daemon holds or can claim: the one run call.

        Serialized: batches, the store sweep and DLQ replay call it from
        different threads and the service's arbiter is stateful.
        """
        try:
            with self._run_lock:
                self._service.run()
        except Exception as exc:
            # per-job failures are recorded on the jobs themselves; a
            # run-level failure must not kill the gateway
            _log.error("job execution failed: %s", exc)
        self._sync_daemon_telemetry()

    def _remote_active(self) -> bool:
        return (
            self._remote_backend is not None
            and len(self._endpoints) >= len(self._daemon.platform.workers)
        )

    def _store_sweep(self) -> None:
        """Durable-store takeover pass (runner thread, between batches).

        On a shared store (anything but the in-process memory backend),
        jobs can appear out-of-band: a peer daemon crashed holding
        leases, or submitted work into this daemon's shard and died
        before running it.  The sweep steals expired leases and runs
        whatever this daemon holds or can claim.  Throttled to one pass
        per ``config.store_sweep_s``.
        """
        if self._daemon.store.backend == "memory":
            return
        now = time.monotonic()
        if now - self._last_sweep_at < self._config.store_sweep_s:
            return
        self._last_sweep_at = now
        try:
            with self._daemon_lock:
                stolen = self._daemon.takeover()
                if not stolen and not self._daemon.has_pending():
                    return
        except Exception as exc:
            # the sweep is opportunistic; failures surface on the jobs
            _log.error("store sweep failed: %s", exc)
            return
        _log.info("store sweep: %d leases stolen, running pending work", stolen)
        self._run_admitted()

    # -- telemetry aggregation -----------------------------------------------
    def _sample_queue_depth(self) -> None:
        self._queue_depth_series.append((time.time(), self._pending.qsize()))

    def _sync_daemon_telemetry(self) -> None:
        """Pull the daemon tracer's fresh spans into the trace store."""
        aggregator = self._obs.aggregator
        if aggregator is not None and self._obs.tracer is not None:
            aggregator.sync_tracer(self._obs.tracer, process="daemon")

    def _begin_trace(self, request: dict) -> dict | None:
        """Open the gateway.submit span of a distributed trace.

        Continues the client's trace when the request carries a valid
        ``traceparent``; starts a fresh trace otherwise.  Returns the
        identity the matching :meth:`_end_trace` call records, or None
        when tracing is not armed.
        """
        tracer = self._obs.tracer
        if tracer is None or self._obs.aggregator is None:
            return None
        incoming = parse_traceparent(request.get("traceparent"))
        return {
            "trace_id": incoming.trace_id if incoming else new_trace_id(),
            "span_id": tracer.new_span_id(),
            "parent_span_id": incoming.span_id if incoming else None,
            "start": time.time(),
        }

    def _end_trace(self, trace: dict | None, **args) -> None:
        """Close a submit span: record it and observe end-to-end latency."""
        if trace is None:
            return
        duration = time.time() - trace["start"]
        self._obs.aggregator.record_span(
            {
                "name": "gateway.submit",
                "process": "gateway",
                "category": "gateway",
                "start": trace["start"],
                "duration": duration,
                "trace_id": trace["trace_id"],
                "span_id": trace["span_id"],
                "parent_span_id": trace["parent_span_id"],
                "args": args,
            }
        )
        if self._m_e2e is not None and "error" not in args:
            self._m_e2e.observe(duration)

    def distributed_trace(self) -> dict:
        """The merged cross-process trace store (``GET /trace`` payload)."""
        self._sync_daemon_telemetry()
        aggregator = self._obs.aggregator
        if aggregator is None:
            return {"spans": [], "events": [], "clock_offsets": {},
                    "processes": [], "trace_ids": [],
                    "gateway": {"queue_depth": []}}
        trace = aggregator.to_dict()
        trace["gateway"] = {
            "queue_depth": [[t, depth] for t, depth in self._queue_depth_series]
        }
        return trace

    def export_trace(self, path) -> None:
        """Write the merged distributed trace as a Chrome/Perfetto file."""
        from ..obs import build_chrome_trace, write_chrome_trace

        trace = self.distributed_trace()
        chrome = build_chrome_trace(
            distributed_spans=trace["spans"],
            metadata={
                "clock_offsets": trace["clock_offsets"],
                "processes": trace["processes"],
                "trace_ids": trace["trace_ids"],
            },
        )
        write_chrome_trace(path, chrome)

    # -- connection handling -------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            first = await reader.readline()
            if not first:
                return
            if any(first.startswith(m) for m in _HTTP_METHODS):
                await self._handle_http(first, reader, writer)
                return
            line: bytes | None = first
            while True:
                if line is None:
                    line = await reader.readline()
                if not line:
                    return
                response = await self._dispatch_line(line)
                writer.write(
                    json.dumps(response, separators=(",", ":")).encode() + b"\n"
                )
                await writer.drain()
                line = None
        except (ConnectionResetError, BrokenPipeError, ValueError, asyncio.LimitOverrunError):
            return  # peer went away or overran the frame bound
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch_line(self, line: bytes) -> dict:
        try:
            request = parse_frame(line)
        except FrameError as exc:
            return error_response("bad_request", str(exc))
        return await self.handle_request(request)

    async def _handle_http(
        self, first: bytes, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, path, _version = first.decode("latin-1").split(None, 2)
        except ValueError:
            writer.write(b"HTTP/1.1 400 Bad Request\r\n\r\n")
            await writer.drain()
            return
        content_length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = 0
        if method == "GET":
            response = await self._http_get(path.rstrip("/") or "/", writer)
            if response is None:
                return  # already written (e.g. /metrics plain text)
        elif method == "POST":
            if content_length > MAX_FRAME_BYTES:
                response = error_response("bad_request", "body too large")
            else:
                body = await reader.readexactly(content_length)
                response = await self._dispatch_line(body or b"{}")
        else:
            response = error_response("bad_request", f"unsupported method {method}")
        payload = json.dumps(response).encode()
        status = http_status_for(response)
        reason = _HTTP_REASONS.get(status, "OK")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1") + payload
        )
        await writer.drain()

    async def _http_get(self, path: str, writer: asyncio.StreamWriter) -> dict | None:
        request = _HTTP_GET_ROUTES.get(path)
        if request is not None:
            return await self.handle_request(dict(request))
        if path == "/healthz":
            return self._healthz_response()
        if path == "/metrics" and self._obs.metrics is not None:
            text = self._obs.metrics.render_prometheus()
            aggregator = self._obs.aggregator
            if aggregator is not None:
                # one scrape covers every process: append the workers'
                # snapshots, each sample labelled with its process name
                text += aggregator.render_remote_prometheus()
            payload = text.encode()
            writer.write(
                f"HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n"
                f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n".encode(
                    "latin-1"
                )
                + payload
            )
            await writer.drain()
            return None
        return error_response("not_found", f"no route for GET {path}")

    # -- verb dispatch -------------------------------------------------------
    async def handle_request(self, request: dict) -> dict:
        """Answer one protocol request dict (shared by both dialects)."""
        request_id = request.get("id")
        verb = request.get("verb")
        if verb not in VERBS:
            self._count(str(verb), "bad_request")
            return error_response(
                "bad_request",
                f"unknown verb {verb!r}; expected one of {sorted(VERBS)}",
                request_id,
            )
        try:
            handler = getattr(self, f"_verb_{verb}")
            response = await handler(request, request_id)
            self._count(verb, response.get("status", "ok"))
            return response
        except (SpecificationError, ServiceError) as exc:
            self._count(verb, "error")
            missing = "no job with id" in str(exc) or "no DLQ entry with id" in str(exc)
            code = "not_found" if missing else "conflict"
            return error_response(code, str(exc), request_id)
        except ReproError as exc:
            self._count(verb, "error")
            return error_response("bad_request", str(exc), request_id)
        except Exception as exc:  # pragma: no cover - defensive
            _log.exception("gateway internal error on %s", verb)
            self._count(verb, "internal")
            return error_response("internal", f"{type(exc).__name__}: {exc}", request_id)

    def _count(self, verb: str, outcome: str) -> None:
        if self._obs.enabled:
            self._obs.emit(NET_REQUEST, verb=verb, outcome=outcome)
            if self._m_requests is not None:
                self._m_requests(verb, outcome)

    async def _verb_ping(self, request: dict, request_id) -> dict:
        return ok_response(
            request_id,
            version=PROTOCOL_VERSION,
            draining=self._draining,
            workers=len(self._endpoints),
        )

    # -- health (sustained-saturation detection) ------------------------------
    def _note_queue_full(self) -> None:
        self._rejected += 1
        if self._saturated_since is None:
            self._saturated_since = time.monotonic()

    def _note_admitted(self) -> None:
        self._saturated_since = None

    def _saturation_seconds(self) -> float:
        """How long the queue has been continuously bouncing submissions."""
        if self._saturated_since is None:
            return 0.0
        return time.monotonic() - self._saturated_since

    def _healthz_response(self) -> dict:
        """Ping payload, or the degraded (503) reply under sustained 429s.

        A momentarily full queue is healthy backpressure; a queue that
        has rejected every submission for longer than
        ``config.degraded_window_s`` means this gateway is choking and
        load balancers should route elsewhere.
        """
        saturated_for = self._saturation_seconds()
        if saturated_for > self._config.degraded_window_s:
            return error_response(
                "degraded",
                f"admission queue saturated for {saturated_for:.1f}s "
                f"(window: {self._config.degraded_window_s:.1f}s, "
                f"{self._rejected} rejections)",
            )
        counts = self._daemon.store.counts()
        return ok_response(
            None,
            version=PROTOCOL_VERSION,
            draining=self._draining,
            workers=len(self._endpoints),
            store=self._daemon.store.backend,
            shard_index=self._daemon.shard_index,
            shard_count=self._daemon.shard_count,
            pending=counts["queued"],
            running=counts["running"],
            parked=len(self._daemon.dlq),
        )

    async def _verb_submit(self, request: dict, request_id) -> dict:
        if self._draining:
            return error_response(
                "draining", "gateway is draining; new submissions are not accepted",
                request_id,
            )
        spec = request.get("spec")
        if not spec or not isinstance(spec, str):
            return error_response(
                "bad_request", "submit requires a non-empty 'spec' (task XML)",
                request_id,
            )
        try:
            submission = _Submission(spec, {
                "algorithm": request.get("algorithm"),
                "tenant": str(request.get("tenant", "default")),
                "priority": int(request.get("priority", 0)),
                "weight": float(request.get("weight", 1.0)),
                "arrival": float(request.get("arrival", 0.0)),
            })
        except (TypeError, ValueError) as exc:
            return error_response(
                "bad_request", f"invalid submit field: {exc}", request_id
            )
        trace = self._begin_trace(request)
        if trace is not None:
            submission.options["traceparent"] = TraceContext(
                trace["trace_id"], trace["span_id"]
            ).to_traceparent()
        try:
            self._pending.put_nowait(submission)
        except queue.Full:
            self._note_queue_full()
            if self._obs.enabled:
                self._obs.emit(
                    NET_REQUEST_REJECTED,
                    verb="submit",
                    queue_depth=self._pending.qsize(),
                )
            return retry_response(
                f"admission queue full ({self._config.max_queue} slots)",
                request_id,
                after_s=self._config.retry_after_s,
            )
        self._note_admitted()
        if self._m_queue_depth is not None:
            depth = self._pending.qsize()
            self._m_queue_depth.set(depth)
            self._m_queue_peak.max(depth)
        self._sample_queue_depth()
        try:
            job_id = await asyncio.wrap_future(submission.future)
        except (SpecificationError, ServiceError) as exc:
            self._end_trace(trace, error=str(exc))
            return error_response("bad_request", str(exc), request_id)
        self._end_trace(trace, job_id=job_id)
        return ok_response(request_id, job_id=job_id)

    async def _verb_batch(self, request: dict, request_id) -> dict:
        requests = request.get("requests")
        if not isinstance(requests, list) or not requests:
            return error_response(
                "bad_request", "batch requires a non-empty 'requests' list", request_id
            )
        results = []
        for i, sub_request in enumerate(requests):
            if not isinstance(sub_request, dict):
                results.append(error_response("bad_request", "request must be an object"))
                continue
            sub_request.setdefault("verb", "submit")
            results.append(await self.handle_request(sub_request))
        ok = sum(1 for r in results if r.get("status") == "ok")
        return ok_response(request_id, results=results, accepted=ok)

    @staticmethod
    def _parse_int(name: str, value) -> int:
        """Coerce a wire integer; non-numeric input is the client's error.

        Raises the base :class:`ReproError`, which ``handle_request``
        maps to ``bad_request`` (400) -- not ``internal`` (500).
        """
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ReproError(f"invalid {name} {value!r}") from None

    async def _verb_status(self, request: dict, request_id) -> dict:
        job_id = request.get("job_id")
        if job_id is not None:
            job_id = self._parse_int("job_id", job_id)
            jobs = [self._daemon.job(job_id)]
        else:
            jobs = self._daemon.jobs()
        return ok_response(request_id, jobs=[self._job_dict(j) for j in jobs])

    @staticmethod
    def _job_dict(job) -> dict:
        info = {
            "job_id": job.job_id,
            "state": job.state.value,
            "algorithm": job.algorithm,
            "executable": job.task.executable,
        }
        if job.report is not None:
            info["makespan"] = job.report.makespan
            info["chunks"] = job.report.num_chunks
        elif job.makespan is not None:
            # terminal summary hydrated from the durable store: the full
            # ExecutionReport lives in whichever daemon ran the job
            info["makespan"] = job.makespan
            if job.chunks is not None:
                info["chunks"] = job.chunks
        if job.error:
            info["error"] = job.error
        if job.warnings:
            info["warnings"] = list(job.warnings)
        return info

    async def _verb_stats(self, request: dict, request_id) -> dict:
        stats = self._daemon.stats()
        stats.update(
            queue_depth=self._pending.qsize(),
            queue_capacity=self._config.max_queue,
            rejected=self._rejected,
            batches=self._batches,
            workers=len(self._endpoints),
            remote_active=self._remote_active(),
            store=self._daemon.store.backend,
            shard_index=self._daemon.shard_index,
            shard_count=self._daemon.shard_count,
            parked=len(self._daemon.dlq),
        )
        return ok_response(request_id, stats=stats)

    async def _verb_cancel(self, request: dict, request_id) -> dict:
        job_id = request.get("job_id")
        if job_id is None:
            return error_response("bad_request", "cancel requires 'job_id'", request_id)
        job_id = self._parse_int("job_id", job_id)
        with self._daemon_lock:
            job = self._daemon.cancel(job_id)
        return ok_response(request_id, job_id=job.job_id, state=job.state.value)

    async def _verb_outputs(self, request: dict, request_id) -> dict:
        job_id = request.get("job_id")
        if job_id is None:
            return error_response("bad_request", "outputs requires 'job_id'", request_id)
        job = self._daemon.job(self._parse_int("job_id", job_id))
        if job.state.value != "done":
            return error_response(
                "conflict", f"job {job_id} is {job.state.value}, not done", request_id
            )
        return ok_response(request_id, outputs=[str(p) for p in job.outputs])

    async def _verb_drain(self, request: dict, request_id) -> dict:
        """Stop accepting, run everything admitted, report final stats."""
        self._draining = True
        self._daemon.stop_accepting()
        while self._pending.unfinished_tasks > 0:
            await asyncio.sleep(0.01)
        response = await self._verb_stats(request, request_id)
        response["drained"] = True
        return response

    async def _verb_shutdown(self, request: dict, request_id) -> dict:
        # respond first; the loop tears down after the reply is written
        assert self._loop is not None
        self._loop.call_soon(self.request_shutdown)
        return ok_response(request_id, shutting_down=True)

    async def _verb_telemetry(self, request: dict, request_id) -> dict:
        """Accept a pushed telemetry batch from a worker or sidecar process."""
        batch = request.get("batch")
        if not isinstance(batch, dict):
            return error_response(
                "bad_request", "telemetry requires a 'batch' object", request_id
            )
        aggregator = self._obs.aggregator
        if aggregator is None:
            # telemetry is best-effort: accept and drop when obs is dark
            return ok_response(request_id, ingested=False)
        aggregator.ingest(batch, process=request.get("process"))
        return ok_response(request_id, ingested=True)

    async def _verb_trace(self, request: dict, request_id) -> dict:
        return ok_response(request_id, trace=self.distributed_trace())

    async def _verb_dlq(self, request: dict, request_id) -> dict:
        """Dead-letter queue verbs: ``list`` / ``replay`` / ``purge``.

        The gateway fronts the daemon's DLQ (shared with the service
        layer): ``list`` snapshots the parked entries, ``purge`` drops
        them, and ``replay`` resubmits one entry's task and runs it to
        an outcome before answering, so the reply carries the replayed
        job's final state.
        """
        action = request.get("action", "list")
        if action == "list":
            return ok_response(request_id, entries=self._daemon.dlq.to_dicts())
        if action == "purge":
            with self._daemon_lock:
                purged = self._daemon.dlq_purge()
            return ok_response(request_id, purged=purged)
        if action == "replay":
            entry_id = request.get("entry_id")
            if entry_id is None:
                return error_response(
                    "bad_request", "dlq replay requires 'entry_id'", request_id
                )
            assert self._loop is not None
            job_id = await self._loop.run_in_executor(
                None, self._replay_entry, self._parse_int("entry_id", entry_id)
            )
            job = self._daemon.job(job_id)
            response = ok_response(
                request_id, job_id=job_id, state=job.state.value
            )
            if job.error:
                response["error"] = job.error
            return response
        return error_response(
            "bad_request",
            f"unknown dlq action {action!r}; expected list, replay, or purge",
            request_id,
        )

    def _replay_entry(self, entry_id: int) -> int:
        """Resubmit a parked entry and run it (runner-thread semantics)."""
        with self._daemon_lock:
            job_id = self._daemon.dlq_replay(entry_id)
        self._run_admitted()
        return job_id

    async def _verb_register_worker(self, request: dict, request_id) -> dict:
        host = request.get("host")
        port = request.get("port")
        if not host or port is None:
            return error_response(
                "bad_request", "register_worker requires 'host' and 'port'", request_id
            )
        endpoint = WorkerEndpoint(
            name=str(request.get("name") or f"worker-{host}-{port}"),
            host=str(host),
            port=self._parse_int("port", port),
        )
        assert self._loop is not None
        reachable = await self._loop.run_in_executor(
            None, self._probe_endpoint, endpoint
        )
        if not reachable:
            return error_response(
                "bad_request",
                f"cannot reach worker at {endpoint.host}:{endpoint.port}",
                request_id,
            )
        self._register_endpoint(endpoint)
        return ok_response(
            request_id,
            registered=len(self._endpoints),
            remote_active=self._remote_active(),
        )

    @staticmethod
    def _probe_endpoint(endpoint: WorkerEndpoint) -> bool:
        try:
            with socket.create_connection(endpoint.address, timeout=5.0) as sock:
                stream = sock.makefile("rwb")
                stream.write(b'{"cmd": "ping"}\n')
                stream.flush()
                reply = stream.readline()
                return bool(reply) and json.loads(reply).get("status") == "ok"
        except (OSError, ValueError):
            return False

    def _register_endpoint(self, endpoint: WorkerEndpoint) -> None:
        self._endpoints.append(endpoint)
        if self._obs.enabled:
            self._obs.emit(
                NET_WORKER_REGISTERED,
                worker=endpoint.name,
                host=endpoint.host,
                port=endpoint.port,
                total=len(self._endpoints),
            )
        slots = len(self._daemon.platform.workers)
        if len(self._endpoints) >= slots:
            # newest registrations win: when a worker crashes and its
            # replacement registers, the backend must map grid slots
            # onto the most recent endpoints, not resurrect dead ones
            # (this is what makes a DLQ replay after re-registration
            # land on healthy workers)
            active = self._endpoints[-slots:]
            workdir = self._daemon.config.base_dir / "gateway_remote"
            self._remote_backend = RemoteExecutionBackend(
                active,
                workdir,
                observability=self._obs if self._obs.enabled else None,
            )
            self._daemon.set_backend(self._remote_backend)
            _log.info(
                "remote execution active: %d workers for %d grid slots",
                len(active), slots,
            )
