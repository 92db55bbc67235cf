"""Real local execution backend: threads, real bytes, real computation.

The paper deploys chunks to remote workers over Ssh/Scp/Globus; APST hides
those mechanisms from the scheduler.  This backend is our local stand-in
with the same shape: the shared wall-clock substrate kit
(:mod:`repro.execution.substrate` -- scaled clock, serialized-link
transport, completion-queue host, measured probe costs) over a
:class:`_ThreadChannel`, one thread per worker that *really computes* on
the chunk bytes via a pluggable application processor.

Because the computation and the thread scheduling are real, observed
times carry hardware noise on top of the model -- this backend is how the
repository demonstrates the full APST-DV code path end to end, including
the case study's split/encode/merge pipeline.
"""

from __future__ import annotations

import queue
import threading
from pathlib import Path
from typing import Callable, Protocol

from ..apst.division import DivisionMethod
from ..apst.xmlspec import TaskSpec
from ..dispatch.core import DispatchOptions
from ..dispatch.protocols import DispatchSubstrate
from ..errors import ExecutionError
from ..platform.resources import Grid
from ..simulation.trace import ExecutionReport
from .substrate import Reply, ScaledWallClock, channel_substrate, process_padded, run


class AppProcessor(Protocol):
    """A divisible application: processes chunk bytes, returns result bytes."""

    def process(self, data: bytes, units: float | None = None) -> bytes:
        ...


class DigestApp:
    """Minimal real application: hash the chunk (used when none is given)."""

    def process(self, data: bytes, units: float | None = None) -> bytes:
        import hashlib

        return hashlib.sha256(data).digest()


class _ThreadChannel:
    """One thread per worker, running the app in-process on chunk bytes."""

    def __init__(self, grid: Grid, app: AppProcessor, workdir: Path) -> None:
        self._grid = grid
        self._app = app
        self._workdir = workdir
        self._inboxes: "list[queue.Queue[dict | None]]" = [
            queue.Queue() for _ in grid.workers
        ]
        self._threads: list[threading.Thread] = []
        self._on_reply: Callable[[Reply], None] | None = None

    def start(self, on_reply: Callable[[Reply], None]) -> None:
        self._on_reply = on_reply
        for index, spec in enumerate(self._grid.workers):
            (self._workdir / spec.name).mkdir(parents=True, exist_ok=True)
            thread = threading.Thread(
                target=self._worker_loop, args=(index,), daemon=True,
                name=f"apstdv-worker-{spec.name}",
            )
            self._threads.append(thread)
            thread.start()

    def send(self, index: int, request: dict) -> None:
        if not self._threads[index].is_alive():
            raise ExecutionError(
                f"worker thread {self._grid.workers[index].name} died"
            )
        self._inboxes[index].put(request)

    def stop(self) -> None:
        for inbox in self._inboxes:
            inbox.put(None)
        for thread in self._threads:
            thread.join(timeout=30.0)

    def _worker_loop(self, index: int) -> None:
        name = self._grid.workers[index].name
        try:
            while True:
                request = self._inboxes[index].get()
                if request is None:
                    return
                reply = {"worker_index": index, "chunk_id": request["chunk_id"]}
                try:
                    in_path = self._workdir / name / f"chunk_{request['chunk_id']}.in"
                    in_path.write_bytes(request["data"])
                    result, wall = process_padded(
                        self._app, request["data"], request["units"],
                        request["min_wall_time"],
                    )
                    out_path = in_path.with_suffix(".out")
                    out_path.write_bytes(result)
                except Exception as exc:
                    # per-chunk failure: report it, keep serving (the core's
                    # retry policy may re-ship the chunk to this worker)
                    reply.update(status="error",
                                 message=f"worker thread failed: {exc}")
                else:
                    reply.update(status="ok", wall_time=wall, result_path=out_path)
                self._on_reply(reply)
        except BaseException as exc:  # the worker itself died
            self._on_reply({
                "status": "lost", "worker_index": index,
                "what": f"worker thread {name} ({type(exc).__name__}: {exc})",
            })
            raise


class LocalExecutionBackend:
    """Threaded master-worker execution on the local machine.

    Parameters
    ----------
    workdir:
        Directory for chunk and result files (one subdirectory per worker).
    app:
        The application run on each chunk; defaults to :class:`DigestApp`.
        For the case study pass a video-encoding processor.
    time_scale:
        Wall seconds per modeled second (default 0.002: a 6000 s modeled
        run takes ~12 s of wall clock).
    """

    def __init__(
        self,
        workdir: str | Path,
        *,
        app: AppProcessor | None = None,
        time_scale: float = 0.002,
        payload_cap_bytes: int = 1 << 20,
    ) -> None:
        if time_scale <= 0:
            raise ExecutionError("time_scale must be positive")
        self._workdir = Path(workdir)
        self._workdir.mkdir(parents=True, exist_ok=True)
        self._app: AppProcessor = app if app is not None else DigestApp()
        self._scale = time_scale
        self._payload_cap = payload_cap_bytes
        #: result files of the most recent run, ordered by chunk offset
        self.last_outputs: list[Path] = []

    # -- ExecutionBackend interface --------------------------------------------
    def substrate(
        self,
        grid: Grid,
        division: DivisionMethod,
        task: TaskSpec | None = None,
    ) -> DispatchSubstrate:
        """Fresh single-use dispatch substrate for one run on ``grid``."""
        return channel_substrate(
            grid,
            division,
            _ThreadChannel(grid, self._app, self._workdir),
            ScaledWallClock(self._scale),
            self._payload_cap,
            {"backend": "local-execution", "time_scale": self._scale},
        )

    def execute(
        self,
        grid: Grid,
        scheduler,
        division: DivisionMethod,
        task: TaskSpec | None = None,
        *,
        probe_units: float | None = None,
        options: DispatchOptions | None = None,
    ) -> ExecutionReport:
        report, self.last_outputs = run(
            self.substrate(grid, division, task), grid, scheduler, division,
            probe_units=probe_units, options=options,
        )
        return report
