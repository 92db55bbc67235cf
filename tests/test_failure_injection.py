"""Failure-injection tests: worker failures must surface, never hang."""

import pytest

from repro.apst.division import UniformBytesDivision
from repro.core.registry import make_scheduler
from repro.dispatch import DispatchOptions, RetryPolicy
from repro.dispatch.parity import parity_options
from repro.errors import ExecutionError
from repro.execution.appspec import app_spec
from repro.execution.local import DigestApp, LocalExecutionBackend
from repro.execution.process_backend import ProcessExecutionBackend
from repro.execution.testing import FlakyApp, SlowApp
from repro.net.remote import RemoteExecutionBackend, RemoteWorkerPool
from repro.obs import CHUNK_RETRANSMITTED, NET_WORKER_LOST, Observability
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


class TestFlakyApp:
    def test_deterministic_failure_index(self):
        app = FlakyApp(fail_on_calls=[2])
        app.process(b"a")
        with pytest.raises(ExecutionError, match="call 2"):
            app.process(b"b")

    def test_random_failures_seeded(self):
        a = FlakyApp(fail_probability=0.5, seed=1)
        b = FlakyApp(fail_probability=0.5, seed=1)

        def pattern(app):
            out = []
            for _ in range(20):
                try:
                    app.process(b"x")
                    out.append(True)
                except ExecutionError:
                    out.append(False)
            return out

        assert pattern(a) == pattern(b)
        assert not all(pattern(FlakyApp(fail_probability=0.5, seed=2)))

    def test_invalid_probability(self):
        with pytest.raises(ExecutionError):
            FlakyApp(fail_probability=1.5)


class TestLocalBackendFailures:
    def test_mid_run_failure_raises_not_hangs(self, grid, division, tmp_path):
        backend = LocalExecutionBackend(
            tmp_path / "work", app=FlakyApp(fail_on_calls=[5]), time_scale=0.01
        )
        with pytest.raises(ExecutionError, match="injected"):
            backend.execute(grid, make_scheduler("wf"), division, None,
                            probe_units=64.0)

    def test_probe_failure_raises(self, grid, division, tmp_path):
        backend = LocalExecutionBackend(
            tmp_path / "work", app=FlakyApp(fail_on_calls=[1]), time_scale=0.01
        )
        with pytest.raises(ExecutionError, match="probe"):
            backend.execute(grid, make_scheduler("wf"), division, None,
                            probe_units=64.0)


class TestProcessBackendFailures:
    def test_chunk_failure_propagates_from_worker_process(self, grid, division,
                                                          tmp_path):
        # SIMPLE-n does not probe, so each worker process sees only its
        # two real chunks; fail the second one.
        backend = ProcessExecutionBackend(
            tmp_path / "work",
            app_spec=app_spec(FlakyApp, fail_on_calls=[2]),
            time_scale=0.01,
        )
        with pytest.raises(ExecutionError, match="injected|failed"):
            backend.execute(grid, make_scheduler("simple-2"), division, None,
                            probe_units=64.0)

    def test_mid_run_failure_leaves_no_live_children(self, grid, division,
                                                     tmp_path):
        """Every spawned worker process is reaped on the error path."""
        backend = ProcessExecutionBackend(
            tmp_path / "work",
            app_spec=app_spec(FlakyApp, fail_on_calls=[2]),
            time_scale=0.01,
        )
        with pytest.raises(ExecutionError):
            backend.execute(grid, make_scheduler("simple-2"), division, None,
                            probe_units=64.0)
        host = backend.last_substrate.host
        assert len(host.processes) == len(grid.workers)
        for process in host.processes:
            assert process.poll() is not None  # exited and reaped

    def test_slow_app_is_padded_not_fatal(self, grid, division, tmp_path):
        """A slower-than-modeled app stretches times but completes."""
        backend = ProcessExecutionBackend(
            tmp_path / "work",
            app_spec=app_spec(SlowApp, delay_s=0.01),
            time_scale=0.01,
        )
        report = backend.execute(grid, make_scheduler("simple-1"), division,
                                 None, probe_units=64.0)
        report.validate()

    def test_worker_process_death_mid_chunk_fails_fast(self, grid, division,
                                                       tmp_path):
        """Regression: a worker process that dies mid-chunk is reported at
        its pipe's EOF (like a lost socket), so the chunk fails at once
        instead of stalling the master for the whole drain timeout.
        """
        import time

        backend = ProcessExecutionBackend(
            tmp_path / "work",
            app_spec=app_spec(FlakyApp, die_on_calls=[2]),
            time_scale=0.01,
        )
        start = time.monotonic()
        with pytest.raises(ExecutionError, match=r"worker process f-\d+ .*lost"):
            backend.execute(grid, make_scheduler("simple-2"), division, None,
                            options=parity_options())
        assert time.monotonic() - start < 10
        host = backend.last_substrate.host
        assert host.disconnects >= 1
        assert len(host.processes) == len(grid.workers)
        for process in host.processes:
            assert process.poll() is not None  # exited and reaped


class TestRemoteSocketFailures:
    """A socket killed mid-chunk must retransmit, complete, and not leak."""

    def _spawn_with_one_dropper(self, pool, tmp_path, drop_after=1):
        """Two workers: worker 0 severs its connection on chunk N+1.

        Under simple-2 with oracle estimates each worker sees exactly two
        ``process`` requests, so ``drop_after=1`` kills the socket midway
        through worker 0's second chunk.
        """
        pool.spawn(1, app_spec(DigestApp), tmp_path / "workers",
                   drop_after=drop_after, name_prefix="dropper")
        pool.spawn(1, app_spec(DigestApp), tmp_path / "workers",
                   name_prefix="steady")
        return pool.endpoints

    def test_socket_kill_mid_chunk_retransmits_and_completes(
        self, grid, division, tmp_path
    ):
        """The satellite scenario end to end: worker 0's socket dies without
        a reply after its second chunk; the reader thread reports the loss,
        the in-flight chunk fails, RetryPolicy re-ships it, the next send
        reconnects (the worker is back in accept), and the run completes
        with the retransmit visible in events, metrics, and annotations.
        """
        obs = Observability.armed()
        with RemoteWorkerPool() as pool:
            endpoints = self._spawn_with_one_dropper(pool, tmp_path)
            backend = RemoteExecutionBackend(
                endpoints, tmp_path / "results", time_scale=0.01,
                observability=obs,
            )
            report = backend.execute(
                grid, make_scheduler("simple-2"), division, None,
                options=parity_options(
                    retry=RetryPolicy(max_attempts=3), observability=obs
                ),
            )
            host = backend.last_substrate.host
            assert host.disconnects >= 1
        report.validate()  # load conserved, causality holds after the retry
        assert report.annotations["retransmitted_chunks"] >= 1
        retransmits = obs.ring_events(CHUNK_RETRANSMITTED)
        assert len(retransmits) >= 1
        assert retransmits[0].fields["attempt"] == 2
        lost = obs.ring_events(NET_WORKER_LOST)
        assert len(lost) >= 1
        assert lost[0].fields["worker"] == "dropper0"
        counter = obs.metrics.counter("repro_chunks_retransmitted_total")
        assert counter.value >= 1

    def test_socket_kill_without_retry_policy_fails_fast(
        self, grid, division, tmp_path
    ):
        """Default policy: the lost chunk aborts the run with a clear error."""
        with RemoteWorkerPool() as pool:
            endpoints = self._spawn_with_one_dropper(pool, tmp_path)
            backend = RemoteExecutionBackend(
                endpoints, tmp_path / "results", time_scale=0.01
            )
            with pytest.raises(ExecutionError, match="lost mid-chunk"):
                backend.execute(
                    grid, make_scheduler("simple-2"), division, None,
                    options=parity_options(),
                )

    def test_probe_time_loss_emits_terminal_accounting(
        self, grid, division, tmp_path
    ):
        """Regression: a connection lost *during probing* must take the

        same terminal accounting path as a mid-run loss -- net.worker.lost
        event, repro_net_workers_lost_total counter, disconnect tally --
        before the failure surfaces to the probe loop.  Previously the
        probe path raised without recording the loss anywhere.
        """
        obs = Observability.armed()
        with RemoteWorkerPool() as pool:
            endpoints = self._spawn_with_one_dropper(pool, tmp_path,
                                                     drop_after=0)
            backend = RemoteExecutionBackend(
                endpoints, tmp_path / "results", time_scale=0.01,
                observability=obs,
            )
            # "umr" probes; drop_after=0 severs on the first process
            # request, which is the dropper's probe chunk
            with pytest.raises(ExecutionError, match="lost during probe"):
                backend.execute(
                    grid, make_scheduler("umr"), division, None,
                    options=DispatchOptions(observability=obs),
                )
            assert backend.last_substrate.host.disconnects >= 1
        lost = obs.ring_events(NET_WORKER_LOST)
        assert len(lost) >= 1
        assert lost[0].fields["worker"] == "dropper0"
        counter = obs.metrics.counter(
            "repro_net_workers_lost_total",
            "Worker connections lost (mid-run or during probing)",
        )
        assert counter.value >= 1

    def test_pool_stop_leaves_no_live_children(self, grid, division, tmp_path):
        """Every spawned socket worker is reaped, on success and error paths."""
        pool = RemoteWorkerPool()
        endpoints = self._spawn_with_one_dropper(pool, tmp_path)
        backend = RemoteExecutionBackend(
            endpoints, tmp_path / "results", time_scale=0.01
        )
        with pytest.raises(ExecutionError):
            backend.execute(
                grid, make_scheduler("simple-2"), division, None,
                options=parity_options(),
            )
        assert len(pool.processes) == len(grid.workers)
        pool.stop()
        pool.stop()  # idempotent
        for process in pool.processes:
            assert process.poll() is not None  # exited and reaped

    def test_failed_spawn_reaps_partial_fleet(self, tmp_path):
        """A bad app spec on worker 2 must not leak worker 1."""
        pool = RemoteWorkerPool()
        pool.spawn(1, app_spec(DigestApp), tmp_path / "workers")
        with pytest.raises(ExecutionError, match="fatal|failed to start"):
            pool.spawn(1, "no.such.module:Nope", tmp_path / "workers",
                       name_prefix="bad")
        for process in pool.processes:
            assert process.poll() is not None
