"""Bit-identity pin for the simulator's reference sweep.

A simulator speed-up must leave every simulated statistic identical --
not merely close.  The digest below was recorded on the commit *before*
the per-chunk hot path was rewritten (ISSUE 15) and covers every chunk's
placement, size, four timestamps (by ``repr``, so the last bit counts),
round and phase, plus each run's makespan and scheduler annotations.
A change that reorders a float addition anywhere in engine, link,
compute host, dispatch core, load tracker or a scheduler moves it.

The digest was recorded on CPython 3.11.  From 3.12 the builtin ``sum()``
adds floats with compensated summation, which may move the last bit of
the schedulers' sums (UMR's plan totals, Weighted Factoring's speed sum)
with no change to this repository -- so the pin applies below 3.12 only;
the reference benchmark's coarser ``SIM_DIGEST`` covers the rest.
"""

import hashlib
import sys

import pytest

from repro.core.registry import PAPER_ALGORITHMS, make_scheduler
from repro.platform.presets import das2_cluster, mixed_grid
from repro.simulation import simulate_run

GOLDEN_SHA256 = "cfbacc245184575123c030540d9f187f3b9732930d0a6bf37877cb776e56c42a"

GAMMAS = (0.0, 0.1)
TOTAL_LOAD = 10_000.0
SEED = 1


def sweep_digest() -> str:
    digest = hashlib.sha256()
    grids = {"das2": das2_cluster(16), "mixed": mixed_grid()}
    for platform, grid in grids.items():
        for gamma in GAMMAS:
            for algorithm in PAPER_ALGORITHMS:
                report = simulate_run(
                    grid, make_scheduler(algorithm), TOTAL_LOAD, gamma=gamma, seed=SEED
                )
                digest.update(f"{platform} {algorithm} {gamma!r}\n".encode())
                for c in report.chunks:
                    row = (
                        c.worker_index, repr(c.units), repr(c.send_start),
                        repr(c.send_end), repr(c.compute_start), repr(c.compute_end),
                        c.round_index, c.phase,
                    )
                    digest.update(f"{row}\n".encode())
                digest.update(f"{report.makespan!r}\n".encode())
                digest.update(f"{sorted(report.annotations.items())!r}\n".encode())
    return digest.hexdigest()


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="builtin sum() of floats is compensated from 3.12; digest recorded on 3.11",
)
def test_reference_sweep_is_bit_identical():
    assert sweep_digest() == GOLDEN_SHA256
