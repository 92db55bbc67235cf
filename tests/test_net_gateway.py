"""The job-submission gateway: verbs, batching, backpressure, shutdown."""

import asyncio
import contextlib
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.apst.daemon import APSTDaemon, DaemonConfig, JobState
from repro.execution.appspec import app_spec
from repro.execution.local import DigestApp
from repro.execution.testing import InMemoryBackend
from repro.net import (
    GatewayClient,
    GatewayConfig,
    GatewayError,
    JobGateway,
    RemoteWorkerPool,
    WorkerEndpoint,
)
from repro.obs import NET_BATCH_EXECUTED, NET_REQUEST, Observability
from repro.platform.presets import das2_cluster

TASK_XML = """
<task executable="app" input="load.bin">
  <divisibility input="load.bin" method="uniform" start="0"
                steptype="bytes" stepsize="10" algorithm="umr"
                probe="probe.bin"/>
</task>
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "load.bin").write_bytes(bytes(255) * 80)  # 20400 bytes
    (tmp_path / "probe.bin").write_bytes(bytes(100))
    return tmp_path


def _daemon(workspace, *, nodes=4, observability=None):
    grid = das2_cluster(nodes=nodes, total_load=20400.0)
    return APSTDaemon(
        grid,
        config=DaemonConfig(base_dir=workspace, seed=3, observability=observability),
    )


@contextlib.contextmanager
def _gateway(daemon, *, worker_pool=None, **config_kwargs):
    gateway = JobGateway(
        daemon,
        config=GatewayConfig(**config_kwargs),
        worker_pool=worker_pool,
    )
    gateway.start_in_background()
    try:
        yield gateway
    finally:
        gateway.shutdown()


class TestVerbs:
    def test_submit_status_stats_round_trip(self, workspace):
        with _gateway(_daemon(workspace)) as gateway:
            with GatewayClient(gateway.host, gateway.port) as client:
                assert client.ping()["version"] == 1
                job_id = client.submit(TASK_XML)
                job = client.wait(job_id, timeout_s=60)
                assert job["state"] == "done"
                assert job["makespan"] > 0
                stats = client.server_stats()
                assert stats["done"] == 1
                assert stats["queue_capacity"] == 256

    def test_batch_verb_submits_many_in_one_frame(self, workspace):
        with _gateway(_daemon(workspace)) as gateway:
            with GatewayClient(gateway.host, gateway.port) as client:
                response = client.submit_batch(
                    [{"spec": TASK_XML}, {"spec": TASK_XML}, {"bogus": True}]
                )
                assert response["accepted"] == 2
                statuses = [r["status"] for r in response["results"]]
                assert statuses.count("ok") == 2
                assert statuses.count("error") == 1
                for result in response["results"]:
                    if result["status"] == "ok":
                        assert client.wait(result["job_id"], timeout_s=60)[
                            "state"
                        ] == "done"

    def test_bad_spec_reports_per_job_not_fatal(self, workspace):
        with _gateway(_daemon(workspace)) as gateway:
            with GatewayClient(gateway.host, gateway.port) as client:
                with pytest.raises(GatewayError, match="divisibility|parse|task"):
                    client.submit("<task>not a real spec</task>")
                # the gateway survives the bad submission
                assert client.ping()["status"] == "ok"

    def test_cancel_and_outputs_error_codes(self, workspace):
        with _gateway(_daemon(workspace)) as gateway:
            with GatewayClient(gateway.host, gateway.port) as client:
                with pytest.raises(GatewayError) as exc_info:
                    client.cancel(999)
                assert exc_info.value.code == "not_found"
                job_id = client.submit(TASK_XML)
                client.wait(job_id, timeout_s=60)
                with pytest.raises(GatewayError) as exc_info:
                    client.cancel(job_id)  # DONE jobs cannot be cancelled
                assert exc_info.value.code == "conflict"

    def test_unknown_verb_is_bad_request(self, workspace):
        with _gateway(_daemon(workspace)) as gateway:
            with GatewayClient(gateway.host, gateway.port) as client:
                with pytest.raises(GatewayError) as exc_info:
                    client.request("frobnicate")
                assert exc_info.value.code == "bad_request"

    def test_malformed_line_keeps_connection_usable(self, workspace):
        with _gateway(_daemon(workspace)) as gateway:
            with socket.create_connection((gateway.host, gateway.port)) as sock:
                stream = sock.makefile("rwb")
                stream.write(b"this is not json\n")
                stream.flush()
                reply = json.loads(stream.readline())
                assert reply["error_code"] == "bad_request"
                stream.write(b'{"verb": "ping"}\n')
                stream.flush()
                assert json.loads(stream.readline())["status"] == "ok"


class TestClientRetrySemantics:
    """At-most-once submit: a connection lost mid-flight must raise, not
    silently resend (the gateway may already have admitted the job)."""

    @staticmethod
    def _fake_server():
        server = socket.create_server(("127.0.0.1", 0))
        server.settimeout(2.0)
        return server

    def test_connection_lost_mid_submit_raises_and_never_resends(self):
        server = self._fake_server()
        received = []

        def serve():
            # read the submit, then close without replying; a second
            # connection would carry the forbidden silent resend
            for _ in range(2):
                try:
                    conn, _ = server.accept()
                except TimeoutError:
                    return
                with conn:
                    line = conn.makefile("rb").readline()
                    if line:
                        received.append(json.loads(line))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        host, port = server.getsockname()[:2]
        client = GatewayClient(host, port, timeout_s=5.0, max_retries=4,
                               backoff_base_s=0.01)
        with pytest.raises(GatewayError) as exc_info:
            client.submit("<task/>")
        assert exc_info.value.code == "unreachable"
        thread.join(timeout=10)
        server.close()
        assert len(received) == 1  # exactly one submit hit the wire

    def test_read_only_verb_reconnects_and_retries(self):
        server = self._fake_server()

        def serve():
            conn, _ = server.accept()  # first attempt: drop without replying
            with conn:
                conn.makefile("rb").readline()
            conn2, _ = server.accept()  # retry: answer properly
            with conn2:
                stream = conn2.makefile("rwb")
                request = json.loads(stream.readline())
                stream.write(json.dumps(
                    {"status": "ok", "id": request["id"]}
                ).encode() + b"\n")
                stream.flush()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        host, port = server.getsockname()[:2]
        client = GatewayClient(host, port, timeout_s=5.0, max_retries=4,
                               backoff_base_s=0.01)
        assert client.ping()["status"] == "ok"
        assert client.stats.reconnects == 1
        thread.join(timeout=10)
        server.close()
        client.close()


async def _as_one_batch(gateway, requests):
    """Admit ``requests`` through the verb layer, then run them as ONE
    batch on an executor thread (the gateway's runner is never started,
    so batch composition does not depend on timing)."""
    replies = [asyncio.ensure_future(gateway.handle_request(r)) for r in requests]
    while gateway._pending.qsize() + sum(r.done() for r in replies) < len(requests):
        await asyncio.sleep(0)  # until each is admitted or refused
    batch = [gateway._pending.get_nowait() for _ in range(gateway._pending.qsize())]
    await asyncio.get_running_loop().run_in_executor(
        None, gateway._execute_batch, batch
    )
    return await asyncio.gather(*replies)


def _go_remote(gateway, backend):
    """What enough ``register_worker`` calls do, minus the sockets."""
    slots = len(gateway._daemon.platform.workers)
    gateway._endpoints = [
        WorkerEndpoint(name=f"w{i}", host="127.0.0.1", port=1) for i in range(slots)
    ]
    gateway._remote_backend = backend
    gateway._daemon.set_backend(backend)
    assert gateway._remote_active()


class TestOneRoute:
    """Every submission takes gateway -> service -> daemon -> DispatchCore,
    whatever the backend; nothing is refused or handled differently in
    remote mode."""

    def test_remote_mode_honours_tenant_and_priority(self, workspace):
        obs = Observability.armed()
        daemon = _daemon(workspace, observability=obs)
        gateway = JobGateway(daemon)
        _go_remote(gateway, InMemoryBackend())
        mixed = [("acme", 0), ("default", 5), ("zeta", 1), ("acme", 5)]
        replies = asyncio.run(_as_one_batch(gateway, [
            {"verb": "submit", "spec": TASK_XML, "tenant": tenant,
             "priority": priority}
            for tenant, priority in mixed
        ]))
        assert [r["status"] for r in replies] == ["ok"] * 4  # no 409
        ids = [r["job_id"] for r in replies]
        for job_id in ids:
            job = daemon.job(job_id)
            assert job.state is JobState.DONE
            assert job.report.annotations["backend"] == "in-memory"
        # exclusive whole-platform leases, granted in admission order:
        # priority first, then the least-served tenant, then job id
        granted = obs.ring_events("lease.granted")
        assert [e.fields["job_id"] for e in granted] == [
            ids[1], ids[3], ids[2], ids[0]
        ]
        assert all(e.fields["workers"] == [0, 1, 2, 3] for e in granted)
        records = gateway._service.last_outcome.service.records
        assert gateway._service.last_outcome.service.policy == "fifo"
        starts = {r.job_id: (r.start, r.finish) for r in records}
        order = sorted(ids, key=lambda j: starts[j][0])
        assert order == [ids[1], ids[3], ids[2], ids[0]]
        for earlier, later in zip(order, order[1:]):
            assert starts[earlier][1] <= starts[later][0]  # never concurrent

    def test_one_unrecoverable_job_fails_alone_in_a_batch(self, workspace,
                                                          doom_algorithm):
        daemon = _daemon(workspace)
        gateway = JobGateway(daemon)
        doom_algorithm("simple-2")
        replies = asyncio.run(_as_one_batch(gateway, [
            {"verb": "submit", "spec": TASK_XML},
            {"verb": "submit", "spec": TASK_XML, "algorithm": "simple-2"},
            {"verb": "submit", "spec": TASK_XML},
        ]))
        assert [r["job_id"] for r in replies] == [1, 2, 3]
        assert [daemon.job(j).state.value for j in (1, 2, 3)] == [
            "done", "failed", "done"
        ]
        (entry,) = daemon.dlq_entries()
        assert entry.job_id == 2
        assert any("quarantined" in line for line in entry.failure_chain)

    def test_job_run_links_under_gateway_submit_in_simulation_mode(
        self, workspace
    ):
        obs = Observability.armed()
        gateway = JobGateway(_daemon(workspace, observability=obs))
        (reply,) = asyncio.run(_as_one_batch(
            gateway, [{"verb": "submit", "spec": TASK_XML}]
        ))
        spans = gateway.distributed_trace()["spans"]

        def only(name):
            (span,) = [s for s in spans if s["name"] == name]
            return span

        submit, run, engine = only("gateway.submit"), only("job.run"), only("engine.run")
        assert submit["args"]["job_id"] == reply["job_id"]
        assert run["parent_span_id"] == submit["span_id"]
        assert engine["parent_span_id"] == run["span_id"]
        assert run["trace_id"] == engine["trace_id"] == submit["trace_id"]

    def test_register_worker_with_non_numeric_port_is_bad_request(self, workspace):
        gateway = JobGateway(_daemon(workspace))
        response = asyncio.run(gateway.handle_request(
            {"verb": "register_worker", "host": "127.0.0.1", "port": "http"}
        ))
        assert response["status"] == "error"
        assert response["error_code"] == "bad_request"
        assert "port" in response["message"]


class TestJobIdValidation:
    def test_non_numeric_job_id_is_bad_request_not_internal(self, workspace):
        gateway = JobGateway(_daemon(workspace))
        for verb in ("status", "cancel", "outputs"):
            response = asyncio.run(gateway.handle_request(
                {"verb": verb, "job_id": "nope"}
            ))
            assert response["status"] == "error", verb
            assert response["error_code"] == "bad_request", verb

    def test_non_numeric_submit_fields_are_bad_request(self, workspace):
        gateway = JobGateway(_daemon(workspace))
        response = asyncio.run(gateway.handle_request(
            {"verb": "submit", "spec": TASK_XML, "priority": "urgent"}
        ))
        assert response["status"] == "error"
        assert response["error_code"] == "bad_request"


class TestBackpressure:
    def test_full_queue_rejects_then_recovers(self, workspace):
        """A 1-slot queue under 24 concurrent submissions must bounce some
        (the retry/429 reply) yet lose none: the client SDK backs off and
        resends, and every job ends DONE.
        """
        daemon = _daemon(workspace)
        with _gateway(daemon, max_queue=1, batch_max=4) as gateway:
            results, errors = [], []

            def submitter():
                try:
                    with GatewayClient(
                        gateway.host, gateway.port, max_retries=40
                    ) as client:
                        for _ in range(3):
                            results.append(client.submit(TASK_XML))
                        results.extend([])
                        threads_stats.append(client.stats)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads_stats = []
            threads = [threading.Thread(target=submitter) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert errors == []
            assert len(results) == len(set(results)) == 24
            with GatewayClient(gateway.host, gateway.port) as client:
                stats = client.drain()["stats"]
            assert stats["done"] == 24  # zero lost jobs
            backpressure_seen = gateway.rejected_submissions + sum(
                s.backpressure_retries for s in threads_stats
            )
            assert backpressure_seen > 0

    def test_draining_gateway_rejects_submissions(self, workspace):
        with _gateway(_daemon(workspace)) as gateway:
            with GatewayClient(gateway.host, gateway.port) as client:
                client.submit(TASK_XML)
                drained = client.drain()
                assert drained["drained"] is True
                assert drained["stats"]["done"] == 1
                with pytest.raises(GatewayError) as exc_info:
                    client.submit(TASK_XML)
                assert exc_info.value.code == "draining"


class TestHttpDialect:
    def test_post_submit_and_get_routes(self, workspace):
        obs = Observability.armed()
        with _gateway(_daemon(workspace, observability=obs)) as gateway:
            base = f"http://{gateway.host}:{gateway.port}"
            body = json.dumps({"verb": "submit", "spec": TASK_XML}).encode()
            with urllib.request.urlopen(
                urllib.request.Request(base, data=body, method="POST")
            ) as response:
                assert response.status == 200
                job_id = json.loads(response.read())["job_id"]
            with GatewayClient(gateway.host, gateway.port) as client:
                client.wait(job_id, timeout_s=60)
            with urllib.request.urlopen(f"{base}/stats") as response:
                assert json.loads(response.read())["stats"]["done"] == 1
            with urllib.request.urlopen(f"{base}/healthz") as response:
                assert json.loads(response.read())["status"] == "ok"
            with urllib.request.urlopen(f"{base}/metrics") as response:
                assert b"repro_net_requests_total" in response.read()

    def test_http_error_statuses(self, workspace):
        with _gateway(_daemon(workspace)) as gateway:
            base = f"http://{gateway.host}:{gateway.port}"
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(f"{base}/no/such/route")
            assert exc_info.value.code == 404
            body = json.dumps({"verb": "cancel", "job_id": 42}).encode()
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(
                    urllib.request.Request(base, data=body, method="POST")
                )
            assert exc_info.value.code == 404  # no job with id 42


class TestObservability:
    def test_requests_and_batches_emit_events_and_metrics(self, workspace):
        obs = Observability.armed()
        with _gateway(_daemon(workspace, observability=obs)) as gateway:
            with GatewayClient(gateway.host, gateway.port) as client:
                job_id = client.submit(TASK_XML)
                client.wait(job_id, timeout_s=60)
        verbs = {e.fields["verb"] for e in obs.ring_events(NET_REQUEST)}
        assert "submit" in verbs and "status" in verbs
        batches = obs.ring_events(NET_BATCH_EXECUTED)
        assert len(batches) >= 1
        assert batches[0].fields["admitted"] >= 1
        counter = obs.metrics.counter(
            "repro_net_requests_total", labels={"verb": "submit", "outcome": "ok"}
        )
        assert counter.value == 1
        latency = obs.metrics.histogram("repro_net_submit_latency_seconds")
        assert latency.count == 1


class TestGracefulShutdown:
    def test_shutdown_is_idempotent_and_drains(self, workspace):
        daemon = _daemon(workspace)
        gateway = JobGateway(daemon, config=GatewayConfig())
        gateway.start_in_background()
        with GatewayClient(gateway.host, gateway.port) as client:
            job_id = client.submit(TASK_XML)
        gateway.shutdown()
        gateway.shutdown()  # second call is a no-op, not an error
        gateway.request_shutdown()  # and so is a late signal
        assert daemon.job(job_id).state is JobState.DONE  # admitted => drained

    def test_shutdown_verb_stops_the_server(self, workspace):
        gateway = JobGateway(_daemon(workspace), config=GatewayConfig())
        gateway.start_in_background()
        with GatewayClient(gateway.host, gateway.port) as client:
            assert client.shutdown_server()["shutting_down"] is True
        gateway.join(timeout=30)
        with pytest.raises(GatewayError):
            GatewayClient(gateway.host, gateway.port, max_retries=1).ping()

    def test_shutdown_reaps_gateway_owned_workers(self, workspace):
        """No live children: the no-leak rule extends to socket workers."""
        pool = RemoteWorkerPool()
        pool.spawn(2, app_spec(DigestApp), workspace / "workers")
        daemon = _daemon(workspace, nodes=2)
        gateway = JobGateway(daemon, config=GatewayConfig(), worker_pool=pool)
        gateway.start_in_background()
        try:
            with GatewayClient(gateway.host, gateway.port) as client:
                assert client.ping()["workers"] == 2
                job_id = client.submit(TASK_XML)
                assert client.wait(job_id, timeout_s=120)["state"] == "done"
                assert client.server_stats()["remote_active"] is True
        finally:
            gateway.shutdown()
        assert len(pool.processes) == 2
        for process in pool.processes:
            assert process.poll() is not None  # exited and reaped
