"""Shared fixtures for the APST-DV reproduction test suite."""

from __future__ import annotations

import pytest

from repro.analysis import lockwatch
from repro.platform.resources import Cluster, Grid, WorkerSpec


@pytest.fixture(autouse=True)
def _no_lock_order_cycles():
    """When REPRO_LOCKWATCH=1, fail any test that grew a lock-order cycle.

    The watcher is process-global and edges accumulate across tests by
    design (orderings from different tests can combine into a hazard no
    single test exhibits); asserting after every test pins down the
    first test whose acquisitions closed a cycle.
    """
    yield
    if lockwatch.enabled():
        lockwatch.watcher().assert_no_cycles()


@pytest.fixture
def doom_algorithm(monkeypatch):
    """``doom_algorithm("simple-2")``: every run of that algorithm raises
    :class:`JobUnrecoverableError` inside the dispatch core -- where real
    unrecoverable failures surface -- so the injection does not depend on
    which route led to the core."""
    from repro.dispatch.core import DispatchCore
    from repro.errors import JobUnrecoverableError

    def arm(name: str) -> None:
        original = DispatchCore.run

        def run(core):
            if core._scheduler.name == name:
                raise JobUnrecoverableError(
                    "every worker failed its probe",
                    failure_chain=["worker w1 quarantined: probe failure"],
                )
            return original(core)

        monkeypatch.setattr(DispatchCore, "run", run)

    return arm


@pytest.fixture
def small_grid() -> Grid:
    """A tiny homogeneous grid: 4 workers, mild latencies, r = 10."""
    return Grid.from_clusters(
        Cluster.homogeneous(
            "test", 4, speed=1.0, bandwidth=10.0, comm_latency=0.5, comp_latency=0.2
        )
    )


@pytest.fixture
def hetero_grid() -> Grid:
    """A heterogeneous 3-worker grid (speeds 2:1:0.5, distinct links)."""
    workers = (
        WorkerSpec("fast", speed=2.0, bandwidth=20.0, comm_latency=0.2,
                   comp_latency=0.1, cluster="h"),
        WorkerSpec("mid", speed=1.0, bandwidth=10.0, comm_latency=0.4,
                   comp_latency=0.2, cluster="h"),
        WorkerSpec("slow", speed=0.5, bandwidth=5.0, comm_latency=0.8,
                   comp_latency=0.4, cluster="h"),
    )
    return Grid(workers=workers)


@pytest.fixture
def latency_free_grid() -> Grid:
    """Homogeneous grid with zero start-up costs (pure linear model)."""
    return Grid.from_clusters(
        Cluster.homogeneous("lin", 4, speed=1.0, bandwidth=8.0)
    )


@pytest.fixture
def load_file(tmp_path):
    """A 10 kB binary input file."""
    path = tmp_path / "load.bin"
    path.write_bytes(bytes(range(256)) * 40)
    return path
