"""End-to-end tests for MultiJobService over the APST daemon."""

import asyncio

import pytest

from repro.apst.daemon import APSTDaemon, DaemonConfig, JobState
from repro.errors import ServiceError, SpecificationError
from repro.net import JobGateway
from repro.net.gateway import _Submission
from repro.obs import Observability
from repro.platform.presets import das2_cluster
from repro.service import MultiJobService


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "load.bin").write_bytes(bytes(255) * 80)  # 20400 bytes
    (tmp_path / "probe.bin").write_bytes(bytes(100))
    return tmp_path


TASK_XML = """
<task executable="app" input="load.bin">
  <divisibility input="load.bin" method="uniform" start="0"
                steptype="bytes" stepsize="10" algorithm="umr"
                probe="probe.bin"/>
</task>
"""


def _daemon(workspace, **kwargs):
    grid = das2_cluster(nodes=4, total_load=20400.0)
    return APSTDaemon(grid, config=DaemonConfig(base_dir=workspace, seed=3, **kwargs))


class TestRun:
    def test_jobs_end_up_done_with_reports(self, workspace):
        service = MultiJobService(_daemon(workspace), policy="fair-share")
        ids = [
            service.submit(TASK_XML, tenant="alice"),
            service.submit(TASK_XML, tenant="bob", arrival=50.0),
        ]
        outcome = service.run()
        assert set(outcome.reports) == set(ids)
        for job_id in ids:
            job = service.daemon.job(job_id)
            assert job.state is JobState.DONE
            assert service.daemon.report(job_id) is outcome.reports[job_id]

    def test_single_fifo_job_matches_run_pending_exactly(self, workspace):
        """Degeneration: one job under the service == the sequential daemon
        == the same job through the gateway (one route, three fronts)."""
        sequential = _daemon(workspace)
        seq_id = sequential.submit(TASK_XML)
        sequential.run_pending()

        service = MultiJobService(_daemon(workspace), policy="fifo")
        svc_id = service.submit(TASK_XML)
        outcome = service.run()

        assert outcome.reports[svc_id] == sequential.report(seq_id)

        fronted = _daemon(workspace)
        submission = _Submission(TASK_XML, {})
        JobGateway(fronted)._execute_batch([submission])
        gw_id = submission.future.result(timeout=1)
        assert fronted.report(gw_id) == sequential.report(seq_id)
        assert asyncio.run(
            JobGateway(fronted).handle_request({"verb": "status", "job_id": gw_id})
        )["jobs"][0]["makespan"] == sequential.report(seq_id).makespan

    def test_single_fair_share_job_also_degenerates(self, workspace):
        sequential = _daemon(workspace)
        seq_id = sequential.submit(TASK_XML)
        sequential.run_pending()

        service = MultiJobService(_daemon(workspace), policy="fair-share")
        svc_id = service.submit(TASK_XML)
        assert service.run().reports[svc_id] == sequential.report(seq_id)

    def test_prepare_failure_fails_that_job_only(self, workspace):
        service = MultiJobService(_daemon(workspace))
        good = service.submit(TASK_XML)
        bad = service.submit(TASK_XML.replace("load.bin", "missing.bin"))
        outcome = service.run()
        assert service.daemon.job(bad).state is JobState.FAILED
        assert "missing.bin" in service.daemon.job(bad).error
        assert service.daemon.job(good).state is JobState.DONE
        assert set(outcome.reports) == {good}

    def test_unrecoverable_job_fails_alone(self, workspace, doom_algorithm):
        """Batch-mates of a failed job run to completion; only the job
        whose segment raised is FAILED and parked."""
        service = MultiJobService(_daemon(workspace), policy="fair-share")
        ids = [
            service.submit(TASK_XML),
            service.submit(TASK_XML, algorithm="simple-2"),
            service.submit(TASK_XML),
        ]
        doom_algorithm("simple-2")
        outcome = service.run()  # does not raise
        states = [service.daemon.job(j).state for j in ids]
        assert states == [JobState.DONE, JobState.FAILED, JobState.DONE]
        assert set(outcome.reports) == {ids[0], ids[2]}
        assert set(outcome.failures) == {ids[1]}
        (entry,) = service.daemon.dlq_entries()
        assert entry.job_id == ids[1]
        assert entry.failure_chain[0].startswith("worker w1 quarantined")

    @pytest.mark.parametrize("policy, slots, segment_is_baseline",
                             [("fair-share", None, True), ("static", 2, False)])
    def test_armed_service_run_counts_each_chunk_once(
        self, workspace, policy, slots, segment_is_baseline
    ):
        """The dedicated-makespan baseline is a counterfactual: it must
        not show up in the metrics or the event stream."""
        obs = Observability.armed()
        service = MultiJobService(
            _daemon(workspace, observability=obs), policy=policy, slots=slots
        )
        job_id = service.submit(TASK_XML)
        outcome = service.run()
        report = outcome.reports[job_id]
        dispatched = sum(
            m.value for m in obs.metrics.metrics()
            if m.name == "repro_chunks_dispatched_total"
        )
        assert dispatched == report.num_chunks
        for name in ("chunk.dispatched", "chunk.completed"):
            assert len(obs.ring_events(name)) == report.num_chunks, name
        (record,) = outcome.service.records
        if segment_is_baseline:
            # one full-platform segment is its own baseline: nothing re-run
            assert record.dedicated_makespan == report.makespan
        else:
            # half the platform: the baseline really ran (un-observed)
            assert record.dedicated_makespan < report.makespan

    def test_tenants_are_charged_worker_seconds(self, workspace):
        service = MultiJobService(_daemon(workspace), policy="fair-share")
        service.submit(TASK_XML, tenant="alice")
        service.submit(TASK_XML, tenant="bob")
        service.run()
        accounts = {a.tenant: a for a in service.manager.accounts()}
        assert accounts["alice"].worker_seconds > 0
        assert accounts["bob"].completed == 1

    def test_empty_run_is_a_no_op(self, workspace):
        service = MultiJobService(_daemon(workspace))
        outcome = service.run()
        assert outcome.reports == {}
        assert outcome.service.num_jobs == 0

    def test_bad_policy_fails_at_construction(self, workspace):
        with pytest.raises(ServiceError, match="unknown lease policy"):
            MultiJobService(_daemon(workspace), policy="lottery")

    def test_submit_validates_metadata(self, workspace):
        service = MultiJobService(_daemon(workspace))
        with pytest.raises(ServiceError, match="weight"):
            service.submit(TASK_XML, weight=0.0)
        with pytest.raises(ServiceError, match="arrival"):
            service.submit(TASK_XML, arrival=-1.0)


class TestLifecycleVerbs:
    def test_cancel_queued_job(self, workspace):
        service = MultiJobService(_daemon(workspace))
        job_id = service.submit(TASK_XML)
        service.cancel(job_id)
        assert service.daemon.job(job_id).state is JobState.CANCELLED
        outcome = service.run()
        assert job_id not in outcome.reports

    def test_duplicate_cancel_raises(self, workspace):
        service = MultiJobService(_daemon(workspace))
        job_id = service.submit(TASK_XML)
        service.cancel(job_id)
        with pytest.raises(SpecificationError, match="cancelled"):
            service.cancel(job_id)

    def test_cancel_done_job_raises(self, workspace):
        service = MultiJobService(_daemon(workspace))
        job_id = service.submit(TASK_XML)
        service.run()
        with pytest.raises(SpecificationError, match="done"):
            service.cancel(job_id)

    def test_drain_runs_then_refuses_submissions(self, workspace):
        service = MultiJobService(_daemon(workspace))
        job_id = service.submit(TASK_XML)
        outcome = service.drain()
        assert job_id in outcome.reports
        with pytest.raises(SpecificationError, match="draining"):
            service.submit(TASK_XML)

    def test_stats_counts_states(self, workspace):
        service = MultiJobService(_daemon(workspace))
        done = service.submit(TASK_XML)
        service.run()
        cancelled = service.submit(TASK_XML)
        service.cancel(cancelled)
        stats = service.stats()
        assert stats["done"] == 1
        assert stats["cancelled"] == 1
        assert stats["total"] == 2
