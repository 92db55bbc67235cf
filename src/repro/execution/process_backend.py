"""Multi-process execution backend: one OS process per worker.

Where :class:`~repro.execution.local.LocalExecutionBackend` runs workers
as threads, this backend launches each worker as a *separate Python
process* (``python -m repro.execution.worker_proc``) and drives it over a
JSON-lines pipe protocol -- the closest local analogue of APST's
Ssh-launched remote workers: real process isolation, real serialization
of chunk data to disk, real IPC.

The scheduling loop is literally the same code as the other backends --
the shared :class:`~repro.dispatch.core.DispatchCore` -- over the shared
wall-clock substrate kit (:mod:`repro.execution.substrate`); this module
contributes only the :class:`_PipeChannel`: it writes the chunk file,
sends the pipe command, and streams worker replies back through reader
threads.  Computation time on a worker is whatever the process actually
takes, padded up to the modeled cost, so observed times carry genuine
process-level noise.

Worker teardown is owned by the channel's ``stop()``, which the dispatch
core invokes (through the compute host) on *every* exit path (success,
scheduler error, worker failure, timeout, failed startup): each spawned
process is tracked from the moment ``Popen`` returns, asked to shut
down, then waited on and killed if unresponsive -- no error path leaks
child processes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..apst.division import DivisionMethod
from ..apst.xmlspec import TaskSpec
from ..dispatch.core import DispatchOptions
from ..dispatch.protocols import DispatchSubstrate
from ..errors import ExecutionError
from ..platform.resources import Grid
from ..simulation.trace import ExecutionReport
from .substrate import Reply, ScaledWallClock, await_ready_line, channel_substrate, run


@dataclass
class _WorkerProc:
    name: str
    process: subprocess.Popen
    reader: threading.Thread | None = None


class _PipeChannel:
    """One OS process per worker, driven over JSON-lines pipes."""

    def __init__(
        self, grid: Grid, workdir: Path, app_spec: str, startup_timeout: float
    ) -> None:
        self._grid = grid
        self._workdir = workdir
        self._app_spec = app_spec
        self._startup_timeout = startup_timeout
        self._workers: list[_WorkerProc] = []
        self._on_reply: Callable[[Reply], None] | None = None
        self._stopping = False

    @property
    def processes(self) -> list[subprocess.Popen]:
        """Every child process spawned by this channel (for leak checks)."""
        return [w.process for w in self._workers]

    # -- lifecycle -----------------------------------------------------------
    def start(self, on_reply: Callable[[Reply], None]) -> None:
        self._on_reply = on_reply
        for spec in self._grid.workers:
            worker_dir = self._workdir / spec.name
            worker_dir.mkdir(parents=True, exist_ok=True)
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.execution.worker_proc",
                 self._app_spec, str(worker_dir)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
            # track the handle before anything can fail, so stop() reaps
            # partially spawned fleets too
            self._workers.append(_WorkerProc(name=spec.name, process=process))
        for index, runtime in enumerate(self._workers):
            await_ready_line(runtime.process, runtime.name, self._startup_timeout)
            runtime.reader = threading.Thread(
                target=self._reader_loop, args=(index, runtime), daemon=True,
                name=f"apstdv-reader-{runtime.name}",
            )
            runtime.reader.start()

    def stop(self) -> None:
        self._stopping = True
        for runtime in self._workers:
            if runtime.reader is None:
                runtime.process.kill()  # never said ready: nobody is listening
                continue
            try:
                if runtime.process.stdin:
                    runtime.process.stdin.write(json.dumps({"cmd": "shutdown"}) + "\n")
                    runtime.process.stdin.flush()
            except (BrokenPipeError, OSError):
                pass
        for runtime in self._workers:
            try:
                runtime.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                runtime.process.kill()
                runtime.process.wait()
            if runtime.reader is not None:
                runtime.reader.join(timeout=5.0)

    def send(self, index: int, request: dict) -> None:
        runtime = self._workers[index]
        if runtime.process.poll() is not None:
            raise ExecutionError(
                f"worker {runtime.name} died (exit {runtime.process.returncode})"
            )
        # real serialization of chunk data to disk: the worker reads the file
        chunk_path = self._workdir / runtime.name / f"chunk_{request['chunk_id']}.in"
        chunk_path.write_bytes(request["data"])
        wire = {k: v for k, v in request.items() if k != "data"}
        wire["path"] = str(chunk_path)
        assert runtime.process.stdin is not None
        runtime.process.stdin.write(json.dumps(wire) + "\n")
        runtime.process.stdin.flush()

    def _reader_loop(self, index: int, runtime: _WorkerProc) -> None:
        for line in runtime.process.stdout:
            line = line.strip()
            if not line:
                continue
            try:
                reply = json.loads(line)
            except json.JSONDecodeError:
                reply = {"status": "error", "message": f"garbled reply: {line!r}"}
            if reply.get("status") == "bye":
                return
            reply["worker_index"] = index
            if reply.get("status") == "ok":
                reply["result_path"] = Path(reply["result_path"])
            self._on_reply(reply)
        # EOF without a shutdown handshake: the process died, and whatever
        # it was computing will never reply
        if not self._stopping:
            self._on_reply({
                "status": "lost", "worker_index": index,
                "what": f"worker process {runtime.name} "
                        f"(exit {runtime.process.wait()})",
            })


class ProcessExecutionBackend:
    """Backend running each worker as a separate OS process.

    Parameters
    ----------
    workdir:
        Directory for chunk/result files (one subdirectory per worker).
    app_spec:
        The application as a spec string (see
        :func:`repro.execution.appspec.app_spec`); it must be importable
        by the worker processes.
    time_scale:
        Wall seconds per modeled second.
    """

    def __init__(
        self,
        workdir: str | Path,
        *,
        app_spec: str,
        time_scale: float = 0.002,
        payload_cap_bytes: int = 1 << 20,
        startup_timeout_s: float = 30.0,
    ) -> None:
        if time_scale <= 0:
            raise ExecutionError("time_scale must be positive")
        if not app_spec:
            raise ExecutionError("app_spec is required")
        self._workdir = Path(workdir)
        self._workdir.mkdir(parents=True, exist_ok=True)
        self._app_spec = app_spec
        self._scale = time_scale
        self._payload_cap = payload_cap_bytes
        self._startup_timeout = startup_timeout_s
        self.last_outputs: list[Path] = []
        #: substrate of the most recent execute(); its host exposes the
        #: spawned process handles (used by teardown/leak tests)
        self.last_substrate: DispatchSubstrate | None = None

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
            _PipeChannel(grid, self._workdir, self._app_spec, self._startup_timeout),
            ScaledWallClock(self._scale),
            self._payload_cap,
            {"backend": "process-execution", "workers": len(grid.workers)},
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
        self.last_substrate = self.substrate(grid, division, task)
        report, self.last_outputs = run(
            self.last_substrate, grid, scheduler, division,
            probe_units=probe_units, options=options,
        )
        return report
