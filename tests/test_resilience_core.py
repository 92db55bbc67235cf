"""The resilience tier inside DispatchCore: speculation, escalation, DLQ.

Scenario wrappers come from the parity harness; these tests pin the
report annotations, events, metrics, and daemon-level dead-lettering
that sit on top of the (separately pinned) decision sequences.
"""

import pytest

from repro.apst.division import UniformBytesDivision
from repro.core.registry import make_scheduler
from repro.dispatch.core import DispatchCore
from repro.dispatch.parity import (
    FAILURE_TARGET,
    _CrashHost,
    _ProbeCrashCosts,
    _SlowdownHost,
    failure_grid,
    parity_options,
)
from repro.dispatch.protocols import RetryPolicy
from repro.errors import ExecutionError, JobUnrecoverableError
from repro.obs import (
    CHUNK_ESCALATED,
    CHUNK_SPECULATED,
    CHUNK_SPECULATION_LOST,
    CHUNK_SPECULATION_WON,
    WORKER_QUARANTINED,
    Observability,
)
from repro.resilience import (
    EscalationPolicy,
    ResiliencePolicy,
    StragglerPolicy,
)
from repro.simulation.master import SimulationOptions, build_substrate


@pytest.fixture
def division(tmp_path):
    load = tmp_path / "load.bin"
    load.write_bytes(bytes(range(256)) * 4)
    return UniformBytesDivision(load, stepsize=64)


def _run(division, algorithm, options, *, host_wrap=None, probe_costs=None):
    grid = failure_grid()
    substrate = build_substrate(
        grid, seed=0, options=SimulationOptions(**vars(options))
    )
    if host_wrap is not None:
        substrate.host = host_wrap(substrate.host)
    if probe_costs is not None:
        substrate.probe_costs = probe_costs
    core = DispatchCore(
        grid,
        make_scheduler(algorithm),
        division.total_units,
        substrate=substrate,
        division=division,
        options=options,
    )
    return core, core.run()


class TestSpeculation:
    def test_won_speculation_annotations_events_and_metrics(self, division):
        obs = Observability.armed()
        options = parity_options(
            resilience=ResiliencePolicy(straggler=StragglerPolicy(min_wait=5.0)),
            observability=obs,
        )
        core, report = _run(
            division,
            "simple-1",
            options,
            host_wrap=lambda host: _SlowdownHost(host, FAILURE_TARGET),
        )
        report.validate()
        assert report.annotations["speculated_chunks"] == 1
        assert report.annotations["speculation_wins"] == 1
        assert report.annotations["speculation_losses"] == 0
        assert report.annotations["resilience_log"] == [
            ["speculate", 1, 1, 0],
            ["speculation_won", 1, 1, 0],
        ]
        (spec,) = obs.ring_events(CHUNK_SPECULATED)
        assert spec.fields["chunk_id"] == 1
        assert spec.fields["from_worker"] == f"w{FAILURE_TARGET}"
        assert spec.fields["to_worker"] == "w0"
        assert len(obs.ring_events(CHUNK_SPECULATION_WON)) == 1
        assert obs.ring_events(CHUNK_SPECULATION_LOST) == []
        from repro.obs.metrics import parse_prometheus

        samples = parse_prometheus(obs.metrics.render_prometheus())
        assert samples["repro_resilience_speculations_total"] == 1
        assert samples["repro_resilience_speculation_wins_total"] == 1
        assert samples["repro_resilience_speculation_losses_total"] == 0

    def test_every_unit_of_load_is_counted_exactly_once(self, division):
        """The abandoned original must not double-count its units."""
        options = parity_options(
            resilience=ResiliencePolicy(straggler=StragglerPolicy(min_wait=5.0)),
        )
        _core, report = _run(
            division,
            "simple-1",
            options,
            host_wrap=lambda host: _SlowdownHost(host, FAILURE_TARGET),
        )
        assert sum(c.units for c in report.chunks) == report.total_load

    def test_speculation_disabled_by_default(self, division):
        """No resilience policy -> a swallowed chunk hangs until the

        simulator's stall guard trips, not until a twin rescues it.
        """
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="no further progress"):
            _run(
                division,
                "simple-1",
                parity_options(),
                host_wrap=lambda host: _SlowdownHost(host, FAILURE_TARGET),
            )


class TestEscalation:
    def test_crash_escalates_then_quarantines(self, division):
        obs = Observability.armed()
        options = parity_options(
            retry=RetryPolicy(max_attempts=2),
            resilience=ResiliencePolicy(
                escalation=EscalationPolicy(quarantine_after=2)
            ),
            observability=obs,
        )
        core, report = _run(
            division,
            "simple-5",
            options,
            host_wrap=lambda host: _CrashHost(host, FAILURE_TARGET),
        )
        report.validate()
        assert report.annotations["escalated_chunks"] == 2
        assert report.annotations["quarantined_workers"] == [FAILURE_TARGET]
        assert core.quarantined_workers == {FAILURE_TARGET}
        assert len(obs.ring_events(CHUNK_ESCALATED)) == 2
        (quarantine,) = obs.ring_events(WORKER_QUARANTINED)
        assert quarantine.fields["worker_index"] == FAILURE_TARGET
        # the failure chain narrates the whole recovery
        assert any("quarantined" in line for line in core.failure_chain)
        # every chunk ended up on a live worker
        assert all(c.worker_index != FAILURE_TARGET for c in report.chunks)

    def test_escalation_disabled_preserves_fail_fast(self, division):
        options = parity_options(retry=RetryPolicy(max_attempts=2))
        with pytest.raises(ExecutionError, match="injected"):
            _run(
                division,
                "simple-5",
                options,
                host_wrap=lambda host: _CrashHost(host, FAILURE_TARGET),
            )

    def test_every_worker_dead_raises_unrecoverable_with_chain(self, division):
        options = parity_options(
            resilience=ResiliencePolicy(
                escalation=EscalationPolicy(quarantine_after=1)
            ),
        )
        with pytest.raises(JobUnrecoverableError) as excinfo:
            _run(
                division,
                "simple-2",
                options,
                host_wrap=lambda host: _AllCrashHost(host),
            )
        chain = excinfo.value.failure_chain
        assert len(chain) >= 3  # one failure + quarantine per worker at least
        assert any("quarantined" in line for line in chain)


class _AllCrashHost(_CrashHost):
    """Every worker crashes every chunk: the job is unrecoverable."""

    def __init__(self, inner) -> None:
        super().__init__(inner, target=-1)

    def enqueue(self, chunk, payload) -> None:
        self._core.chunk_failed(chunk, "injected: total grid failure")


class TestProbeFailureTolerance:
    def test_probe_crash_quarantines_before_first_dispatch(self, division):
        options = parity_options(
            estimate_source="probe",
            resilience=ResiliencePolicy(escalation=EscalationPolicy()),
        )
        core, report = _run(
            division,
            "umr",
            options,
            probe_costs=_ProbeCrashCosts(failure_grid(), FAILURE_TARGET),
        )
        report.validate()
        assert core.resilience_log[0] == ("probe_failure", FAILURE_TARGET)
        assert core.resilience_log[1] == ("quarantine", FAILURE_TARGET)
        assert all(c.worker_index != FAILURE_TARGET for c in report.chunks)

    def test_all_probes_failing_is_unrecoverable(self, division):
        options = parity_options(
            estimate_source="probe",
            resilience=ResiliencePolicy(escalation=EscalationPolicy()),
        )

        class _AllProbesFail(_ProbeCrashCosts):
            def realized_compute_time(self, index, units, **kwargs):
                raise ExecutionError(f"injected: worker {index} dead")

        with pytest.raises(JobUnrecoverableError, match="every worker"):
            _run(
                division,
                "umr",
                options,
                probe_costs=_AllProbesFail(failure_grid(), FAILURE_TARGET),
            )


class TestDaemonDeadLetterQueue:
    def _daemon(self, tmp_path, monkeypatch, *, fail_times):
        from repro.apst.daemon import APSTDaemon, DaemonConfig

        daemon = APSTDaemon(
            failure_grid(),
            config=DaemonConfig(base_dir=tmp_path, seed=0),
        )
        state = {"left": fail_times}

        original = APSTDaemon.run_segment

        def flaky(self, *args, **kwargs):
            if state["left"] > 0:
                state["left"] -= 1
                raise JobUnrecoverableError(
                    "every worker failed its probe",
                    failure_chain=["worker w1 quarantined: probe failure"],
                )
            return original(self, *args, **kwargs)

        monkeypatch.setattr(APSTDaemon, "run_segment", flaky)
        return daemon

    def _submit(self, daemon, tmp_path):
        load = tmp_path / "load.bin"
        if not load.exists():
            load.write_bytes(bytes(range(256)) * 4)
        spec = f"""
        <task executable="app" input="{load}">
          <divisibility input="{load}" method="uniform" start="0"
                        steptype="bytes" stepsize="64" algorithm="simple-2"/>
        </task>
        """
        xml = tmp_path / "task.xml"
        xml.write_text(spec)
        return daemon.submit(xml)

    def test_unrecoverable_job_parks_with_failure_chain(
        self, tmp_path, monkeypatch
    ):
        daemon = self._daemon(tmp_path, monkeypatch, fail_times=1)
        job_id = self._submit(daemon, tmp_path)
        daemon.run_pending(raise_on_error=False)
        from repro.apst.daemon import JobState

        assert daemon.job(job_id).state is JobState.FAILED
        (entry,) = daemon.dlq_entries()
        assert entry.job_id == job_id
        assert entry.replayed_as is None
        assert any("quarantined" in line for line in entry.failure_chain)
        assert any("JobUnrecoverableError" in line for line in entry.failure_chain)

    def test_replay_resubmits_and_marks_entry(self, tmp_path, monkeypatch):
        daemon = self._daemon(tmp_path, monkeypatch, fail_times=1)
        job_id = self._submit(daemon, tmp_path)
        daemon.run_pending(raise_on_error=False)
        (entry,) = daemon.dlq_entries()
        new_id = daemon.dlq_replay(entry.entry_id)
        assert new_id != job_id
        daemon.run_pending(raise_on_error=False)
        from repro.apst.daemon import JobState

        assert daemon.job(new_id).state is JobState.DONE
        (entry,) = daemon.dlq_entries()
        assert entry.replayed_as == new_id

    def test_replay_unknown_entry_and_purge(self, tmp_path, monkeypatch):
        from repro.errors import ServiceError

        daemon = self._daemon(tmp_path, monkeypatch, fail_times=1)
        self._submit(daemon, tmp_path)
        daemon.run_pending(raise_on_error=False)
        with pytest.raises(ServiceError, match="no DLQ entry with id 99"):
            daemon.dlq_replay(99)
        assert daemon.dlq_purge() == 1
        assert daemon.dlq_entries() == []
        assert daemon.dlq_purge() == 0

    def test_recoverable_failures_do_not_park(self, tmp_path, monkeypatch):
        from repro.apst.daemon import APSTDaemon, DaemonConfig

        daemon = APSTDaemon(
            failure_grid(), config=DaemonConfig(base_dir=tmp_path, seed=0)
        )

        def broken(self, *args, **kwargs):
            raise ExecutionError("transient: not a dead-letter case")

        monkeypatch.setattr(APSTDaemon, "run_segment", broken)
        self._submit(daemon, tmp_path)
        daemon.run_pending(raise_on_error=False)
        assert daemon.dlq_entries() == []
