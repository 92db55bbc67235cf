"""The wall-clock substrate kit, driven through a fake in-memory channel."""

from pathlib import Path

import pytest

from repro.apst.division import UniformUnitsDivision
from repro.errors import ExecutionError
from repro.execution.substrate import (
    PROBE_CHUNK_ID,
    ChannelHost,
    MeasuredProbeCosts,
    ScaledWallClock,
)
from repro.platform.resources import Cluster, Grid
from repro.simulation.trace import ChunkTrace

SCALE = 0.001


class FakeChannel:
    """Records requests; replies are posted by the test (or a script)."""

    def __init__(self, fail_start=False):
        self.sent = []
        self.stopped = 0
        self.post = None
        self.fail_start = fail_start
        #: replies posted synchronously from within the next send()
        self.on_send = []

    def start(self, on_reply):
        self.post = on_reply
        if self.fail_start:
            raise ExecutionError("worker 1 failed to start")

    def send(self, index, request):
        self.sent.append((index, request))
        for reply in self.on_send:
            self.post(reply)
        self.on_send = []

    def stop(self):
        self.stopped += 1


class RecordingCore:
    def __init__(self):
        self.completed = []
        self.failed = []
        self.traceparents = {}

    def trace_parent_for(self, chunk_id):
        return self.traceparents.get(chunk_id)

    def chunk_completed(self, chunk, result_path=None):
        self.completed.append((chunk.chunk_id, result_path))

    def chunk_failed(self, chunk, message):
        self.failed.append((chunk.chunk_id, message))


@pytest.fixture
def grid():
    return Grid.from_clusters(
        Cluster.homogeneous("f", 2, speed=500.0, bandwidth=5000.0,
                            comm_latency=0.02, comp_latency=0.01)
    )


@pytest.fixture
def kit(grid):
    channel = FakeChannel()
    clock = ScaledWallClock(SCALE)
    host = ChannelHost(grid, channel, clock)
    core = RecordingCore()
    host.bind(core)
    host.start()
    return host, channel, core, clock


def chunk(chunk_id, worker_index, units=10.0):
    trace = ChunkTrace(chunk_id=chunk_id, worker_index=worker_index,
                       worker_name=f"w{worker_index}", units=units,
                       offset=0.0, round_index=0, phase="steady")
    trace.send_end = 0.0
    return trace


def ok(chunk_id, worker_index, wall_time=0.0):
    return {"status": "ok", "worker_index": worker_index, "chunk_id": chunk_id,
            "wall_time": wall_time, "result_path": Path(f"r{chunk_id}.out")}


class TestReplies:
    def test_enqueue_builds_the_request_and_ok_completes_the_chunk(self, kit, grid):
        host, channel, core, clock = kit
        core.traceparents[4] = "00-aa-bb-01"
        c = chunk(4, 1)
        host.enqueue(c, b"payload")
        index, request = channel.sent[0]
        assert index == 1
        assert request == {
            "cmd": "process", "chunk_id": 4, "data": b"payload", "units": 10.0,
            "min_wall_time": grid.workers[1].compute_time(10.0) * SCALE,
            "traceparent": "00-aa-bb-01",
        }
        host.poll()  # nothing yet
        assert core.completed == []
        clock.sleep_model(1.0)
        channel.post(ok(4, 1, wall_time=0.5 * SCALE))
        assert host.wait() is True
        assert core.completed == [(4, Path("r4.out"))]
        # timestamps derived on the master thread from the reply's wall time
        assert c.compute_end == pytest.approx(clock.now(), abs=50.0)
        assert c.compute_end - c.compute_start == pytest.approx(0.5)
        assert host._inflight == {}

    def test_compute_start_never_precedes_arrival(self, kit):
        host, channel, core, clock = kit
        c = chunk(1, 0)
        c.send_end = clock.now()
        host.enqueue(c, b"x")
        channel.post(ok(1, 0, wall_time=3600.0))  # "computed" for longer than the run
        host.poll()
        assert c.compute_start == c.send_end

    def test_error_with_chunk_fails_that_chunk(self, kit):
        host, channel, core, _ = kit
        host.enqueue(chunk(2, 0), b"x")
        channel.post({"status": "error", "worker_index": 0, "chunk_id": 2,
                      "message": "boom"})
        host.poll()
        assert core.failed == [(2, "worker 0 failed: boom")]
        assert host._inflight == {}

    def test_error_without_chunk_aborts(self, kit):
        host, channel, _, _ = kit
        host.enqueue(chunk(2, 0), b"x")
        channel.post({"status": "error", "worker_index": 0,
                      "message": "garbled reply"})
        with pytest.raises(ExecutionError, match="worker 0 failed: garbled"):
            host.poll()

    def test_reply_for_unknown_chunk_aborts(self, kit):
        host, channel, _, _ = kit
        channel.post(ok(99, 0))
        with pytest.raises(ExecutionError, match="unknown chunk"):
            host.poll()

    def test_deferred_reply_is_resolved_at_handling_time(self, kit):
        host, channel, core, _ = kit
        host.enqueue(chunk(5, 0), b"x")
        verdicts = [None, ok(5, 0)]
        channel.post(lambda: verdicts.pop(0))  # withdrawn
        channel.post(lambda: verdicts.pop(0))
        host.poll()
        assert [cid for cid, _ in core.completed] == [5]

    def test_drain_timeout(self, kit, monkeypatch):
        host, _, _, _ = kit
        monkeypatch.setattr(ChannelHost, "DRAIN_TIMEOUT_S", 0.05)
        host.enqueue(chunk(1, 0), b"x")
        with pytest.raises(ExecutionError, match="timed out waiting"):
            host.wait()


class TestLost:
    def test_fails_inflight_on_that_worker_only(self, kit):
        host, channel, core, _ = kit
        for cid, worker in ((3, 0), (7, 0), (9, 1)):
            host.enqueue(chunk(cid, worker), b"x")
        channel.post({"status": "lost", "worker_index": 0,
                      "what": "connection to worker w0"})
        host.poll()
        assert core.failed == [
            (3, "connection to worker w0 lost mid-chunk"),
            (7, "connection to worker w0 lost mid-chunk"),
        ]
        assert set(host._inflight) == {9}
        assert host.disconnects == 1

    def test_honours_the_chunk_being_resent(self, kit):
        host, channel, core, _ = kit
        for cid, worker in ((3, 0), (7, 0), (9, 1)):
            host.enqueue(chunk(cid, worker), b"x")
        channel.post({"status": "lost", "worker_index": 0,
                      "what": "connection to worker w0", "exclude": 7})
        host.poll()
        assert [cid for cid, _ in core.failed] == [3]
        assert set(host._inflight) == {7, 9}

    def test_idle_worker_loss_is_only_counted(self, kit):
        host, channel, core, _ = kit
        channel.post({"status": "lost", "worker_index": 1, "what": "worker w1"})
        host.poll()
        assert core.failed == []
        assert host.disconnects == 1


class TestProbe:
    def test_probe_sends_a_probe_request_and_waits_for_its_reply(self, kit, grid):
        host, channel, _, _ = kit
        channel.on_send = [ok(PROBE_CHUNK_ID, 1)]
        host.probe(1, b"probe-bytes", 64.0)
        index, request = channel.sent[0]
        assert index == 1
        assert request["chunk_id"] == PROBE_CHUNK_ID
        assert request["data"] == b"probe-bytes"
        assert request["min_wall_time"] == pytest.approx(
            grid.workers[1].compute_time(64.0) * SCALE
        )
        assert "traceparent" not in request

    def test_probe_sets_foreign_replies_aside_for_the_main_loop(self, kit):
        host, channel, core, _ = kit
        host.enqueue(chunk(8, 0), b"x")
        channel.on_send = [
            ok(8, 0),  # a real chunk's reply
            ok(PROBE_CHUNK_ID, 0),  # another worker's probe reply
            {"status": "lost", "worker_index": 0, "what": "worker w0"},
            ok(PROBE_CHUNK_ID, 1),
        ]
        host.probe(1, b"p", 1.0)
        assert core.completed == [] and host.disconnects == 0
        channel.post(ok(PROBE_CHUNK_ID, 0))
        with pytest.raises(ExecutionError, match="unknown chunk"):
            host.poll()  # recycled in order: chunk 8, then the stray probe reply
        assert [cid for cid, _ in core.completed] == [8]

    def test_probe_error_raises(self, kit):
        host, channel, _, _ = kit
        channel.on_send = [{"status": "error", "worker_index": 0,
                            "chunk_id": PROBE_CHUNK_ID, "message": "boom"}]
        with pytest.raises(ExecutionError, match="probe computation on worker 0"):
            host.probe(0, b"p", 1.0)

    def test_probe_time_loss_is_accounted_then_raised(self, kit):
        host, channel, _, _ = kit
        channel.on_send = [{"status": "lost", "worker_index": 0,
                            "what": "connection to worker w0"}]
        with pytest.raises(ExecutionError,
                           match="connection to worker w0 lost during probe"):
            host.probe(0, b"p", 1.0)
        assert host.disconnects == 1

    def test_probe_survives_a_loss_the_channel_already_recovered(self, kit):
        host, channel, _, _ = kit
        channel.on_send = [
            {"status": "lost", "worker_index": 0, "what": "connection to worker w0",
             "exclude": PROBE_CHUNK_ID},
            ok(PROBE_CHUNK_ID, 0),
        ]
        host.probe(0, b"p", 1.0)
        assert host.disconnects == 1

    def test_probe_timeout(self, kit, monkeypatch):
        host, _, _, _ = kit
        monkeypatch.setattr(ChannelHost, "DRAIN_TIMEOUT_S", 0.05)
        with pytest.raises(ExecutionError, match="timed out waiting"):
            host.probe(0, b"p", 1.0)

    def test_measured_costs(self, kit, grid):
        host, channel, _, clock = kit
        costs = MeasuredProbeCosts(
            grid, UniformUnitsDivision(total=1000.0, step=1.0), host, clock, 1 << 20
        )
        # zero-unit (no-op) job: modeled directly, nothing sent
        assert costs.realized_compute_time(0, 0.0) == grid.workers[0].comp_latency
        assert channel.sent == []
        channel.on_send = [ok(PROBE_CHUNK_ID, 0)]
        assert costs.realized_compute_time(0, 64.0) > 0
        assert len(channel.sent[0][1]["data"]) == 64
        # transfers are slept for their modeled duration
        assert costs.realized_transfer_time(0, 100.0) >= grid.workers[0].transfer_time(100.0)


class TestLifecycle:
    def test_failed_start_stops_the_partial_fleet(self, grid):
        channel = FakeChannel(fail_start=True)
        host = ChannelHost(grid, channel, ScaledWallClock(SCALE))
        with pytest.raises(ExecutionError, match="failed to start"):
            host.start()
        assert channel.stopped == 1

    def test_stop_and_leak_check_surface(self, kit):
        host, channel, _, _ = kit
        assert host.processes == []  # in-process channel: no children
        host.stop()
        assert channel.stopped == 1
        assert host.idle_tick() is True and host.time_advances_when_idle
