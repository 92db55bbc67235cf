"""End-to-end durability: SIGKILL a gateway, restart or fail over, no job lost.

These tests drive real ``apst-dv serve`` processes over a shared SQLite
store file -- the deployment shape the durable store exists for:

* crash recovery: kill a gateway mid-batch, restart it on the same
  store, and every admitted job still reaches a terminal state exactly
  once (no loss, no double-run);
* two-daemon sharding: two gateways partition tenants by consistent
  hash with zero double-claims, and when one is killed the survivor
  steals its expired leases and finishes its jobs.
"""

import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.net import GatewayClient
from repro.store import TERMINAL_STATES, SqliteStore, tenant_shard

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

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


def _spawn_gateway(workspace, store_path, *extra_args):
    """Start ``apst-dv serve --store`` as a real process; returns (proc, port)."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--base-dir", str(workspace),
            "--store", str(store_path),
            *extra_args,
        ],
        cwd=str(workspace),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 30.0
    port = None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if "gateway listening on" in line:
            port = int(line.rsplit(":", 1)[1])
            break
    if port is None:
        proc.kill()
        raise RuntimeError("gateway did not report a listening port")
    return proc, port


def _stop(proc):
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def _wait_all_terminal(port, expected_total, *, timeout_s=90.0):
    """Poll /stats until every job in the store is terminal; returns stats."""
    deadline = time.monotonic() + timeout_s
    with GatewayClient("127.0.0.1", port, timeout_s=10.0) as client:
        while time.monotonic() < deadline:
            stats = client.server_stats()
            terminal = sum(stats[state] for state in TERMINAL_STATES)
            if stats["total"] >= expected_total and terminal == stats["total"]:
                return stats
            time.sleep(0.2)
    raise AssertionError(f"jobs did not all finish within {timeout_s}s: {stats}")


def _assert_exactly_once(store, job_ids):
    """Every job is DONE and entered a terminal state exactly once."""
    for job_id in job_ids:
        assert store.get_job(job_id).state == "done"
    terminal_entries = Counter(
        t.job_id
        for t in store.transitions()
        if t.to_state in TERMINAL_STATES
    )
    doubled = {j: n for j, n in terminal_entries.items() if n != 1}
    assert not doubled, f"jobs finished more than once: {doubled}"
    assert set(job_ids) <= set(terminal_entries)


def test_gateway_crash_recovery_is_exactly_once(workspace, tmp_path):
    """SIGKILL mid-batch + restart on the same store loses nothing."""
    store_path = tmp_path / "jobs.db"
    proc, port = _spawn_gateway(workspace, store_path, "--lease", "1")
    job_ids = []
    try:
        with GatewayClient("127.0.0.1", port, timeout_s=10.0) as client:
            for _ in range(8):
                job_ids.append(client.submit(TASK_XML))
        # admitted (durably recorded) but batches may be mid-flight: the
        # crash must not lose queued jobs or double-run running ones
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
    finally:
        _stop(proc)

    assert len(job_ids) == 8
    restarted, port = _spawn_gateway(workspace, store_path, "--lease", "1")
    try:
        _wait_all_terminal(port, len(job_ids))
    finally:
        _stop(restarted)

    store = SqliteStore(store_path)
    try:
        _assert_exactly_once(store, job_ids)
        # the restart shows up in the audit as a second owner generation:
        # claims from the dead instance, then claims/steals from the new one
        owners = {record.owner for record in store.claim_audit()}
        assert len(owners) >= 2
    finally:
        store.close()


def test_two_daemon_sharding_with_failover(workspace, tmp_path):
    """Two gateways on one store: disjoint claims, survivor takes over."""
    store_path = tmp_path / "jobs.db"
    tenants = ["alpha", "beta", "gamma", "delta"]
    # consistent hashing fixes each tenant's shard; precompute both sides
    shard_of = {tenant: tenant_shard(tenant, 2) for tenant in tenants}
    assert set(shard_of.values()) == {0, 1}, shard_of

    proc_a, port_a = _spawn_gateway(
        workspace, store_path, "--shard", "0/2", "--lease", "3")
    proc_b, port_b = _spawn_gateway(
        workspace, store_path, "--shard", "1/2", "--lease", "3")
    try:
        # -- phase 1: 100 jobs across 4 tenants, both daemons healthy ------
        job_ids = []
        with GatewayClient("127.0.0.1", port_a, timeout_s=10.0) as ca, \
                GatewayClient("127.0.0.1", port_b, timeout_s=10.0) as cb:
            for i in range(100):
                client = ca if i % 2 == 0 else cb
                job_ids.append(
                    client.submit(TASK_XML, tenant=tenants[i % 4])
                )
        _wait_all_terminal(port_a, 100)

        store = SqliteStore(store_path)
        try:
            audit = store.claim_audit()
            claims_per_job = Counter(r.job_id for r in audit)
            doubled = {j: n for j, n in claims_per_job.items() if n != 1}
            assert not doubled, f"double-claimed jobs: {doubled}"
            assert not [r for r in audit if r.kind == "steal"]
            # claims partition by tenant hash: each shard's jobs were all
            # claimed by one owner, and both owners did work
            owner_of_job = {r.job_id: r.owner for r in audit}
            owner_of_shard = {}
            for job_id in job_ids:
                record = store.get_job(job_id)
                shard = shard_of[record.tenant]
                owner_of_shard.setdefault(shard, set()).add(owner_of_job[job_id])
            assert all(len(owners) == 1 for owners in owner_of_shard.values())
            assert owner_of_shard[0] != owner_of_shard[1]
            _assert_exactly_once(store, job_ids)
        finally:
            store.close()

        # -- phase 2: kill daemon A while it holds leases; B steals them ---
        (owner_a,) = owner_of_shard[0]
        (owner_b,) = owner_of_shard[1]
        shard0_tenant = next(t for t in tenants if shard_of[t] == 0)
        more_ids = []
        # A is paused while the wave is queued, so that on resuming it claims
        # the whole shard-0 wave in one sweep and is still working through
        # it, leases held, when the kill lands.  (Left running, A drains the
        # wave as fast as it is submitted and is usually killed idle, holding
        # no lease -- the starvation case ROADMAP's first open item is about,
        # not the failover this test is about.)
        os.kill(proc_a.pid, signal.SIGSTOP)
        try:
            with GatewayClient("127.0.0.1", port_b, timeout_s=10.0) as cb:
                for _ in range(200):
                    more_ids.append(cb.submit(TASK_XML, tenant=shard0_tenant))
        finally:
            os.kill(proc_a.pid, signal.SIGCONT)
        store = SqliteStore(store_path)
        try:
            deadline = time.monotonic() + 30.0
            wave = set(more_ids)
            while time.monotonic() < deadline:
                claimed = {
                    r.job_id for r in store.claim_audit()
                    if r.owner == owner_a and r.job_id in wave
                }
                if claimed:
                    break
                time.sleep(0.01)
            assert claimed, "daemon A never claimed its shard's wave"
        finally:
            store.close()
        os.kill(proc_a.pid, signal.SIGKILL)
        proc_a.wait()

        _wait_all_terminal(port_b, 300, timeout_s=120.0)
        store = SqliteStore(store_path)
        try:
            _assert_exactly_once(store, job_ids + more_ids)
            steals = [r for r in store.claim_audit() if r.kind == "steal"]
            assert steals, "survivor never stole the dead daemon's leases"
            assert {r.owner for r in steals} == {owner_b}
        finally:
            store.close()
    finally:
        _stop(proc_a)
        _stop(proc_b)
