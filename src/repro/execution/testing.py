"""Failure-injection applications for backend robustness testing.

Real Grid deployments lose workers mid-run; the execution backends must
surface such failures as :class:`~repro.errors.ExecutionError` rather
than hanging or silently dropping load.  These processors make failures
reproducible:

* :class:`FlakyApp` fails deterministically on chosen chunk indices or
  randomly with a seeded probability -- or kills its whole worker
  process mid-chunk;
* :class:`SlowApp` sleeps a fixed wall time per chunk (for timeout and
  padding tests), or at construction (a worker that hangs at startup).

They are import-safe for worker subprocesses (usable via
:func:`repro.execution.appspec.app_spec`).

:class:`InMemoryBackend` is the cheapest wall-clock backend: the
substrate kit over an in-memory channel -- no threads, processes or
sockets -- for tests that need "some real backend" and nothing more.
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np

from ..errors import ExecutionError
from .substrate import ScaledWallClock, channel_substrate, process_padded


class FlakyApp:
    """Digest processor that fails on demand.

    Parameters
    ----------
    fail_on_calls:
        1-based call indices that raise (e.g. ``[3]`` fails the third
        chunk this instance processes).
    fail_probability:
        Seeded random failure rate applied to every call.
    die_on_calls:
        1-based call indices on which the hosting *process* exits
        without replying (``os._exit``): a worker crash mid-chunk, as
        opposed to a chunk failure the worker survives.  Only for
        out-of-process workers.
    """

    def __init__(
        self,
        fail_on_calls: list[int] | None = None,
        fail_probability: float = 0.0,
        seed: int = 0,
        die_on_calls: list[int] | None = None,
    ) -> None:
        if not 0.0 <= fail_probability <= 1.0:
            raise ExecutionError("fail_probability must be in [0, 1]")
        self._fail_on = set(fail_on_calls or [])
        self._die_on = set(die_on_calls or [])
        self._probability = fail_probability
        self._rng = np.random.default_rng(seed)
        self._calls = 0

    def process(self, data: bytes, units: float | None = None) -> bytes:
        self._calls += 1
        if self._calls in self._die_on:
            os._exit(3)
        if self._calls in self._fail_on:
            raise ExecutionError(f"injected failure on call {self._calls}")
        if self._probability > 0 and self._rng.random() < self._probability:
            raise ExecutionError(f"injected random failure on call {self._calls}")
        return hashlib.sha256(data).digest()


class SlowApp:
    """Digest processor with a fixed wall-clock delay per chunk.

    ``startup_delay_s`` sleeps in the constructor instead: the worker
    process hosting it hangs before it can announce itself ready.
    """

    def __init__(self, delay_s: float = 0.05, startup_delay_s: float = 0.0) -> None:
        if delay_s < 0 or startup_delay_s < 0:
            raise ExecutionError("delay must be >= 0")
        self._delay = delay_s
        time.sleep(startup_delay_s)

    def process(self, data: bytes, units: float | None = None) -> bytes:
        time.sleep(self._delay)
        return hashlib.sha256(data).digest()


class InMemoryBackend:
    """Execution backend whose channel computes on the calling thread."""

    def __init__(self, app=None, *, time_scale: float = 1e-6) -> None:
        self._app = app or FlakyApp()  # never fails unless told to
        self._scale = time_scale

    def substrate(self, grid, division, task=None):
        clock = ScaledWallClock(self._scale)
        return channel_substrate(
            grid, division, self, clock, 1 << 20, {"backend": "in-memory"}
        )

    # -- the WorkerChannel: each request is answered before send() returns --
    def start(self, on_reply) -> None:
        self._post = on_reply

    def send(self, index: int, request: dict) -> None:
        reply = {"worker_index": index, "chunk_id": request["chunk_id"]}
        try:
            _, wall_time = process_padded(
                self._app, request["data"], request["units"], 0.0
            )
            reply.update(status="ok", wall_time=wall_time, result_path=None)
        except ExecutionError as exc:
            reply.update(status="error", message=str(exc))
        self._post(reply)

    def stop(self) -> None:
        pass
