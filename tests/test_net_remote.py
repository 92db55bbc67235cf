"""Socket workers and the remote execution backend."""

import json
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.apst.division import UniformBytesDivision
from repro.core.registry import make_scheduler
from repro.dispatch.parity import parity_options
from repro.errors import ExecutionError
from repro.execution.appspec import app_spec
from repro.execution.local import DigestApp
from repro.execution.process_backend import ProcessExecutionBackend
from repro.execution.testing import SlowApp
from repro.net import GatewayClient, GatewayConfig, JobGateway
from repro.net.protocol import decode_payload, encode_payload
from repro.net.remote import (
    RemoteExecutionBackend,
    RemoteWorkerPool,
    WorkerEndpoint,
)
from repro.net.worker import SocketWorker
from repro.platform.presets import das2_cluster
from repro.platform.resources import Cluster, Grid


@pytest.fixture
def grid():
    return Grid.from_clusters(
        Cluster.homogeneous("f", 2, speed=500.0, bandwidth=5000.0,
                            comm_latency=0.02, comp_latency=0.01)
    )


@pytest.fixture
def division(tmp_path):
    path = tmp_path / "load.bin"
    path.write_bytes(bytes(1024))
    return UniformBytesDivision(path, stepsize=64)


@pytest.fixture
def worker_conn():
    """An in-process SocketWorker plus a connected frame stream."""
    worker = SocketWorker(app_spec(DigestApp))
    thread = threading.Thread(target=worker.serve_forever, daemon=True)
    thread.start()
    sock = socket.create_connection((worker.host, worker.port), timeout=10)
    stream = sock.makefile("rwb")

    def rpc(request):
        stream.write(json.dumps(request).encode() + b"\n")
        stream.flush()
        return json.loads(stream.readline())

    yield rpc
    stream.close()  # the makefile stream holds the fd open past sock.close()
    sock.close()
    worker.close()
    thread.join(timeout=5)
    assert not thread.is_alive()


class TestSocketWorkerProtocol:
    def test_process_returns_digest_and_wall_time(self, worker_conn):
        data = b"divisible load"
        reply = worker_conn({
            "cmd": "process", "chunk_id": 3,
            "data_b64": encode_payload(data), "units": 14.0,
            "min_wall_time": 0.01,
        })
        assert reply["status"] == "ok"
        assert reply["chunk_id"] == 3
        assert decode_payload(reply["result_b64"]) == DigestApp().process(data)
        assert reply["wall_time"] >= 0.01  # padded to the modeled cost

    def test_ping_counts_processed_chunks(self, worker_conn):
        assert worker_conn({"cmd": "ping"})["processed"] == 0
        worker_conn({"cmd": "process", "chunk_id": 1,
                     "data_b64": encode_payload(b"x"), "units": 1.0})
        assert worker_conn({"cmd": "ping"})["processed"] == 1

    def test_bad_chunk_is_an_error_reply_not_a_crash(self, worker_conn):
        reply = worker_conn({"cmd": "process", "chunk_id": 5,
                             "data_b64": "!!! not base64 !!!", "units": 1.0})
        assert reply["status"] == "error"
        assert reply["chunk_id"] == 5
        assert worker_conn({"cmd": "ping"})["status"] == "ok"  # still serving

    def test_unknown_cmd_is_an_error_reply(self, worker_conn):
        assert worker_conn({"cmd": "launder"})["status"] == "error"

    def test_shutdown_says_bye(self, worker_conn):
        assert worker_conn({"cmd": "shutdown"})["status"] == "bye"


class TestWorkerPoolStartup:
    @pytest.mark.parametrize("caller", ["pool", "process-backend"])
    def test_await_ready_times_out_on_hung_child(self, caller, monkeypatch,
                                                 grid, division, tmp_path):
        """A child that never prints its ready line must not hang its
        launcher: the startup budget applies to the readline itself, and
        the hung child is killed, not leaked.  Both launchers share
        ``await_ready_line``.
        """
        start = time.monotonic()
        if caller == "pool":
            monkeypatch.setattr(RemoteWorkerPool, "STARTUP_TIMEOUT_S", 0.5)
            pool = RemoteWorkerPool()
            process = subprocess.Popen(
                [sys.executable, "-c", "import time; time.sleep(60)"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                bufsize=1,
            )
            pool._processes.append(process)
            with pytest.raises(ExecutionError, match="failed to start within"):
                pool._await_ready(process, "hung0")
            children = [process]
        else:
            backend = ProcessExecutionBackend(
                tmp_path / "work",
                app_spec=app_spec(SlowApp, startup_delay_s=60.0),
                time_scale=0.01, startup_timeout_s=0.5,
            )
            with pytest.raises(ExecutionError, match="failed to start within"):
                backend.execute(grid, make_scheduler("simple-1"), division,
                                None, options=parity_options())
            children = backend.last_substrate.host.processes
            assert len(children) == len(grid.workers)
        assert time.monotonic() - start < 10  # bounded, not readline-forever
        for child in children:
            assert child.poll() is not None  # killed and reaped
        if caller == "pool":
            pool.stop()


class _RecordingCore:
    """Stands in for DispatchCore: records the host's callbacks."""

    def __init__(self):
        self.failed = []
        self.completed = []

    def trace_parent_for(self, chunk_id):
        return None

    def chunk_failed(self, chunk, message):
        self.failed.append(chunk.chunk_id)

    def chunk_completed(self, chunk, result_path=None):
        self.completed.append(chunk.chunk_id)


class TestSendReconnectRace:
    def test_drop_conn_fails_inflight_except_the_resent_chunk(
        self, grid, tmp_path
    ):
        """Regression: when send detects the dead connection (write fails)
        and reconnects, the generation bump makes the old reader's queued
        loss report stale -- so send itself must report the loss of the
        chunks in flight on the old connection (minus the one it is about
        to resend), or they stall until DRAIN_TIMEOUT_S.
        """
        from repro.execution.substrate import ChannelHost, ScaledWallClock
        from repro.net.remote import _SocketChannel
        from repro.obs import OBS_DISABLED
        from repro.simulation.trace import ChunkTrace

        def chunk(chunk_id, worker_index):
            return ChunkTrace(chunk_id=chunk_id, worker_index=worker_index,
                              worker_name=f"w{worker_index}", units=1.0,
                              offset=0.0, round_index=0, phase="steady")

        workers = [SocketWorker(app_spec(DigestApp)) for _ in range(2)]
        threads = [threading.Thread(target=w.serve_forever, daemon=True)
                   for w in workers]
        for thread in threads:
            thread.start()
        endpoints = [WorkerEndpoint(name=f"w{i}", host=w.host, port=w.port)
                     for i, w in enumerate(workers)]
        clock = ScaledWallClock(0.01)
        channel = _SocketChannel(grid, endpoints, tmp_path / "results", clock,
                                 OBS_DISABLED)
        host = ChannelHost(grid, channel, clock)
        core = _RecordingCore()
        host.bind(core)
        host.start()
        try:
            host._inflight = {3: chunk(3, 0), 9: chunk(9, 1)}
            # kill worker 0's link from under the channel: the next write
            # on it fails, and its reader reports a (soon stale) loss
            channel._conns[0].sock.shutdown(socket.SHUT_RDWR)
            host.enqueue(chunk(7, 0), b"resent on the fresh connection")
            host.poll()
            assert core.failed == [3]  # 7 is being resent; 9 is another worker
            assert set(host._inflight) == {7, 9}
            host.wait()  # 7 really went out again: its reply arrives
            assert core.completed == [7]
            host.poll()  # the old reader's report, whenever it came: stale
            assert core.failed == [3]
            assert host.disconnects == 1
        finally:
            host.stop()
            for worker in workers:
                worker.close()
            for thread in threads:
                thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)


class TestRemoteBackendValidation:
    def test_requires_one_endpoint_per_grid_worker(self, grid, division, tmp_path):
        endpoint = WorkerEndpoint(name="only", host="127.0.0.1", port=1)
        backend = RemoteExecutionBackend([endpoint], tmp_path, time_scale=0.01)
        with pytest.raises(ExecutionError, match="one endpoint per grid worker"):
            backend.substrate(grid, division)

    def test_rejects_empty_endpoints_and_bad_scale(self, tmp_path):
        endpoint = WorkerEndpoint(name="w", host="127.0.0.1", port=1)
        with pytest.raises(ExecutionError, match="at least one"):
            RemoteExecutionBackend([], tmp_path)
        with pytest.raises(ExecutionError, match="time_scale"):
            RemoteExecutionBackend([endpoint], tmp_path, time_scale=0.0)

    def test_unreachable_worker_fails_with_clear_error(self, grid, division,
                                                       tmp_path):
        dead = [WorkerEndpoint(name=f"dead{i}", host="127.0.0.1", port=9)
                for i in range(2)]
        backend = RemoteExecutionBackend(dead, tmp_path, time_scale=0.01)
        with pytest.raises(ExecutionError, match="cannot reach worker"):
            backend.execute(grid, make_scheduler("simple-1"), division, None,
                            options=parity_options())


class TestRemoteBackendExecution:
    def test_run_produces_valid_report_and_outputs(self, grid, division,
                                                   tmp_path):
        with RemoteWorkerPool() as pool:
            endpoints = pool.spawn(2, app_spec(DigestApp), tmp_path / "workers")
            backend = RemoteExecutionBackend(
                endpoints, tmp_path / "results", time_scale=0.01
            )
            report = backend.execute(
                grid, make_scheduler("umr"), division, None,
                options=parity_options(),
            )
        report.validate()
        assert report.annotations["backend"] == "remote-execution"
        assert len(backend.last_outputs) == report.num_chunks
        digest = DigestApp()
        for path in backend.last_outputs:
            assert len(path.read_bytes()) == len(digest.process(b"x"))

    def test_back_to_back_runs_reuse_the_same_workers(self, grid, division,
                                                      tmp_path):
        """The gateway keeps one backend for the daemon's whole lifetime, so
        consecutive jobs reconnect to the same single-connection workers.
        Regression: the previous run's socket must be *fully* closed (fd
        included) or the worker never returns to accept() and run 2 hangs.
        """
        with RemoteWorkerPool() as pool:
            endpoints = pool.spawn(2, app_spec(DigestApp), tmp_path / "workers")
            backend = RemoteExecutionBackend(
                endpoints, tmp_path / "results", time_scale=0.01
            )
            for _ in range(3):
                report = backend.execute(
                    grid, make_scheduler("simple-2"), division, None,
                    options=parity_options(),
                )
                report.validate()

    def test_probe_phase_measures_real_workers(self, grid, division, tmp_path):
        with RemoteWorkerPool() as pool:
            endpoints = pool.spawn(2, app_spec(DigestApp), tmp_path / "workers")
            backend = RemoteExecutionBackend(
                endpoints, tmp_path / "results", time_scale=0.01
            )
            report = backend.execute(
                grid, make_scheduler("wf"), division, None, probe_units=64.0
            )
        assert report.probe_time > 0
        report.validate()


class TestWorkerRegistration:
    def test_worker_registers_itself_with_gateway(self, tmp_path):
        """The --register flow: a worker process announces itself and the
        gateway flips to remote execution once the platform is covered.
        """
        (tmp_path / "load.bin").write_bytes(bytes(255) * 80)
        (tmp_path / "probe.bin").write_bytes(bytes(100))
        daemon_platform = das2_cluster(nodes=1, total_load=20400.0)
        from repro.apst.daemon import APSTDaemon, DaemonConfig

        daemon = APSTDaemon(
            daemon_platform, config=DaemonConfig(base_dir=tmp_path, seed=3)
        )
        gateway = JobGateway(daemon, config=GatewayConfig())
        gateway.start_in_background()
        process = None
        try:
            import os

            env = os.environ.copy()
            env["PYTHONPATH"] = os.pathsep.join(
                [str(p) for p in sys.path if p] + [env.get("PYTHONPATH", "")]
            )
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.net.worker",
                 app_spec(DigestApp), str(tmp_path / "w0"),
                 "--register", f"{gateway.host}:{gateway.port}",
                 "--name", "self-registered"],
                stdout=subprocess.PIPE, text=True, env=env,
            )
            ready = json.loads(process.stdout.readline())
            assert ready["status"] == "ready"
            with GatewayClient(gateway.host, gateway.port) as client:
                ping = None
                for _ in range(200):  # registration is asynchronous
                    ping = client.ping()
                    if ping["workers"]:
                        break
                    time.sleep(0.05)
                assert ping["workers"] == 1
                assert client.server_stats()["remote_active"] is True
        finally:
            gateway.shutdown()
            if process is not None:
                process.terminate()
                process.wait(timeout=10)
