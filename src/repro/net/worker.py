"""Socket worker: the remote end of :class:`repro.net.remote`.

Launched as::

    python -m repro.net.worker APP_SPEC WORKDIR [--host H] [--port P]
                               [--register GATEWAY_HOST:PORT] [--name N]
                               [--drop-after N] [--drop-forever]

The worker listens on a TCP port and serves newline-delimited JSON
frames (see :mod:`repro.net.protocol`) -- the Groundhog-style
serialize -> ship -> delimited-result flow, one request per frame:

request  ``{"cmd": "process", "chunk_id": 7, "data_b64": "...",
            "units": 12.0, "min_wall_time": 0.05}``
reply    ``{"chunk_id": 7, "status": "ok", "result_b64": "...",
            "wall_time": 0.0512}``

``min_wall_time`` (wall seconds) pads real processing up to the modeled
compute cost, exactly like the pipe-driven process backend, so reply
arrival times are meaningful to the scheduler.  ``{"cmd": "ping"}``
answers liveness probes; ``{"cmd": "shutdown"}`` exits cleanly.  A bad
chunk is reported as ``{"status": "error", ...}`` and the worker keeps
serving -- one poisoned chunk must not take the node down.

On startup the worker prints one JSON line to stdout --
``{"status": "ready", "host": ..., "port": ...}`` -- so launchers can
discover the ephemeral port; with ``--register`` it also announces
itself to a gateway's ``register_worker`` verb.  The master owns the
single active connection; when it drops, the worker loops back to
``accept`` so a reconnecting master (retransmitting a failed chunk)
finds it again.

``--drop-after N`` is the failure-injection hook: after serving N
``process`` requests the worker severs the connection *without
replying*, simulating a socket killed mid-chunk.  It keeps listening,
so the master's reconnect + retransmit path is exercised end to end.
``--drop-forever`` is the permanent-crash variant: *every* ``process``
request severs the connection and the hook never disarms, so retries
can never succeed against this worker -- the master's escalation /
quarantine / dead-letter path is what gets exercised.  Pings still
answer, so the worker looks alive to liveness probes (the nastiest
kind of failure).

Telemetry: every reply carries ``recv_unix`` / ``send_unix`` (the
NTP-style timestamps the master's clock-offset estimator needs), and
``process`` replies piggyback a bounded telemetry batch -- the worker's
``chunk.process`` spans (causally linked via the request's
``traceparent``), buffered events, and a metrics snapshot -- flushed on
every chunk completion so a crash loses at most one chunk's telemetry.
``--no-telemetry`` turns all of it off.
"""

from __future__ import annotations

import argparse
import json
import signal
import socket
import sys
import threading
import time

from ..execution.appspec import load_app
from ..execution.substrate import process_padded
from ..obs import MetricsRegistry, TelemetryBuffer, Tracer, parse_traceparent
from .protocol import decode_payload, encode_payload, parse_frame


class SocketWorker:
    """One worker node: an app processor behind a TCP accept loop."""

    def __init__(
        self,
        app_spec: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        drop_after: int | None = None,
        drop_forever: bool = False,
        name: str | None = None,
        telemetry: bool = True,
    ) -> None:
        self._app = load_app(app_spec)
        self._drop_after = drop_after
        self._drop_forever = drop_forever
        self._processed = 0
        self._shutdown = False
        self._listener = socket.create_server((host, port))
        #: the one master connection being served (None between masters)
        self._active: socket.socket | None = None
        self._listener.settimeout(0.5)
        self.host, self.port = self._listener.getsockname()[:2]
        self.name = name or f"worker-{self.port}"
        if telemetry:
            self._tracer = Tracer()
            self._metrics = MetricsRegistry()
            self._m_chunks = self._metrics.counter(
                "repro_worker_chunks_total", "Chunks processed by this worker"
            )
            self._m_compute = self._metrics.histogram(
                "repro_worker_compute_seconds",
                "Wall seconds per chunk on this worker (incl. model padding)",
                buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0),
            )
            self._buffer = TelemetryBuffer(
                self.name, tracer=self._tracer, metrics=self._metrics
            )
        else:
            self._tracer = None
            self._metrics = None
            self._m_chunks = None
            self._m_compute = None
            self._buffer = None

    def close(self) -> None:
        self._shutdown = True
        try:
            self._listener.close()
        except OSError:
            pass
        # closing only the listener would leave serve_forever() blocked in
        # the live master connection's read loop until the master hangs up
        active = self._active
        if active is not None:
            try:
                active.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def serve_forever(self) -> int:
        """Accept one master connection at a time until shutdown."""
        try:
            while not self._shutdown:
                try:
                    conn, _addr = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                self._active = conn
                try:
                    with conn:
                        if not self._shutdown:  # close() raced the accept
                            self._serve_connection(conn)
                finally:
                    self._active = None
        finally:
            self.close()
        return 0

    def _serve_connection(self, conn: socket.socket) -> None:
        stream = conn.makefile("rwb")
        try:
            for line in stream:
                recv_unix = time.time()
                try:
                    request = parse_frame(line)
                except Exception as exc:
                    self._reply(stream, {"status": "error",
                                         "message": f"bad request: {exc}"},
                                recv_unix)
                    continue
                cmd = request.get("cmd")
                if cmd == "ping":
                    self._reply(stream, {"status": "ok", "cmd": "ping",
                                         "processed": self._processed},
                                recv_unix)
                    continue
                if cmd == "telemetry":
                    # explicit drain: whatever is buffered, shipped now
                    self._reply(stream, {"status": "ok", "cmd": "telemetry"},
                                recv_unix, flush_telemetry=True)
                    continue
                if cmd == "shutdown":
                    self._reply(stream, {"status": "bye"}, recv_unix,
                                flush_telemetry=True)
                    self._shutdown = True
                    return
                if cmd != "process":
                    self._reply(stream, {"status": "error",
                                         "message": f"unknown cmd {cmd!r}"},
                                recv_unix)
                    continue
                self._processed += 1
                if self._drop_forever:
                    # permanent crash injection: sever on every process
                    # request, never disarm -- retries cannot succeed here
                    return
                if self._drop_after is not None and self._processed > self._drop_after:
                    # failure injection: sever the link mid-chunk, no reply;
                    # disarm so the retransmitted chunk succeeds
                    self._drop_after = None
                    return
                self._reply(stream, self._process(request), recv_unix,
                            flush_telemetry=True)
        except (BrokenPipeError, ConnectionResetError, OSError):
            return  # master went away; back to accept()

    def _process(self, request: dict) -> dict:
        chunk_id = request.get("chunk_id", -1)
        tracer = self._tracer
        context = (
            parse_traceparent(request.get("traceparent"))
            if tracer is not None
            else None
        )
        if tracer is not None:
            tracer.set_context(context)
        try:
            data = decode_payload(request.get("data_b64", ""))
            if tracer is not None:
                span = tracer.start_span(
                    "chunk.process", category="compute",
                    chunk_id=chunk_id, units=request.get("units"),
                )
            result, wall = process_padded(
                self._app, data, request.get("units"),
                float(request.get("min_wall_time", 0.0)),
            )
            if tracer is not None:
                tracer.finish(span, wall_time=wall)
            if self._m_chunks is not None:
                self._m_chunks.inc()
                self._m_compute.observe(wall)
            return {
                "chunk_id": chunk_id,
                "status": "ok",
                "result_b64": encode_payload(result),
                "wall_time": wall,
            }
        except Exception as exc:
            return {
                "chunk_id": chunk_id,
                "status": "error",
                "message": f"{type(exc).__name__}: {exc}",
            }
        finally:
            if tracer is not None:
                tracer.set_context(None)

    def _reply(
        self, stream, obj: dict, recv_unix: float, *, flush_telemetry: bool = False
    ) -> None:
        if flush_telemetry and self._buffer is not None:
            batch = self._buffer.drain()
            if batch is not None:
                obj["telemetry"] = batch
        # NTP-style timestamps for the master's clock-offset estimator:
        # when we received the request and when this reply leaves
        obj["recv_unix"] = recv_unix
        obj["send_unix"] = time.time()
        stream.write(json.dumps(obj).encode("utf-8") + b"\n")
        stream.flush()


def _register_with_gateway(gateway: str, name: str, host: str, port: int) -> None:
    from .client import GatewayClient

    gw_host, _, gw_port = gateway.rpartition(":")
    with GatewayClient(gw_host or "127.0.0.1", int(gw_port)) as client:
        client.register_worker(name=name, host=host, port=port)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.net.worker", description="APST-DV socket worker"
    )
    parser.add_argument("app_spec", help="application spec (module:Class|{json kwargs})")
    parser.add_argument("workdir", help="scratch directory (reserved for file payloads)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks an ephemeral port")
    parser.add_argument("--name", default=None, help="worker name for registration")
    parser.add_argument("--register", default=None, metavar="HOST:PORT",
                        help="announce this worker to a gateway")
    parser.add_argument("--drop-after", type=int, default=None,
                        help="failure injection: sever the connection without "
                             "replying after N processed chunks")
    parser.add_argument("--drop-forever", action="store_true",
                        help="failure injection: sever on every process "
                             "request and never disarm (permanent crash)")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="disable span/metric collection and reply piggybacking")
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    try:
        worker = SocketWorker(
            args.app_spec, host=args.host, port=args.port,
            drop_after=args.drop_after, drop_forever=args.drop_forever,
            name=args.name,
            telemetry=not args.no_telemetry,
        )
    except Exception as exc:
        print(json.dumps({"status": "fatal", "message": str(exc)}), flush=True)  # repro: allow[bare-print] -- stdout announce line IS the wire protocol
        return 1
    signal.signal(signal.SIGTERM, lambda *_: worker.close())
    print(  # repro: allow[bare-print] -- stdout announce line IS the wire protocol
        json.dumps({"status": "ready", "host": worker.host, "port": worker.port}),
        flush=True,
    )
    if args.register:
        # register from a side thread: the gateway's liveness probe pings
        # this worker before acknowledging, so the accept loop must already
        # be serving when the register_worker reply comes back
        name = worker.name

        def _register() -> None:
            try:
                _register_with_gateway(args.register, name, worker.host, worker.port)
            except Exception as exc:
                print(json.dumps({"status": "fatal",  # repro: allow[bare-print] -- stdout announce line IS the wire protocol
                                  "message": f"registration failed: {exc}"}),
                      flush=True)
                worker.close()

        threading.Thread(target=_register, daemon=True,
                         name="apstdv-worker-register").start()
    return worker.serve_forever()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
