"""Shared machinery of the benchmark suite.

Paths, order statistics, the in-memory span recorder of the traced pass,
temp-dir and ``serve``-subprocess lifetime.  Nothing here imports
``repro``: the setup-time measurement starts before that import.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import math
import os
import select
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
#: every temp file lives here (inside the checkout) and is removed on exit
WORK_DIR = SUITE_DIR / ".work"
RESULTS_DIR = SUITE_DIR / "results"

SERVE_READY_TIMEOUT_S = 30.0
SERVE_STOP_TIMEOUT_S = 10.0
_LIBC = ctypes.CDLL(None)


def require_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; exit 2 without it."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"benchmark needs the program source at {SRC_DIR}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


# -- statistics ---------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- span recorder ------------------------------------------------------------

class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The untraced pass: ``span`` hands back one shared no-op context."""

    def span(self, name: str, trace: int):
        return _NULL_SPAN

    def new_trace(self) -> int:
        return 0


class Recorder:
    """In-memory spans around the calls a driver makes into a layer.

    One span is ``(trace, id, parent, name, thread, start, end)``; spans
    of one operation share ``trace``; the parent is the enclosing span on
    the same thread.  Nothing is written until :meth:`write_chrome_trace`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._local = threading.local()

    def new_trace(self) -> int:
        return next(self._traces)

    @contextmanager
    def span(self, name: str, trace: int):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (trace, span_id, parent, name, threading.get_ident(), start, end)
            )

    def self_seconds(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self time = duration minus child spans)."""
        child_time: dict[int, float] = {}
        for _trace, _sid, parent, _name, _tid, start, end in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, tuple[int, float]] = {}
        for _trace, sid, _parent, name, _tid, start, end in self.spans:
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child_time.get(sid, 0.0))
        return out

    def write_chrome_trace(self, path: Path) -> None:
        """Dump every span as a Chrome-trace ("X" complete event) JSON."""
        if not self.spans:
            return
        origin = min(span[5] for span in self.spans)
        threads: dict[int, int] = {}
        events = [
            {
                "name": name, "ph": "X", "pid": 1,
                "tid": threads.setdefault(tid, len(threads) + 1),
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"trace": trace, "id": sid, "parent": parent},
            }
            for trace, sid, parent, name, tid, start, end in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


# -- what one block of work reports ---------------------------------------------

@dataclass
class Block:
    """One fixed-size block of a workload's operations, timed as a whole."""

    ops: int                      # operations that completed correctly
    wall_s: float
    cpu_s: float                  # CPU of the process that does the work
    latencies_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0               # failed + refused + incorrect
    #: the program under test is gone; further blocks would only wait
    fatal: bool = False


# -- temp dirs and the serve subprocess -------------------------------------------

@contextmanager
def workdir():
    """A fresh temp dir under ``.work``; removed on every exit path."""
    WORK_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # only succeeds once no run is using it
        except OSError:
            pass


class ServeProcess:
    """``python -m repro.cli serve`` on an ephemeral port, default config."""

    def __init__(self, base_dir: Path, platform_xml: Path, store: Path | None) -> None:
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--platform", str(platform_xml), "--base-dir", str(base_dir),
            "--seed", "1", "--port", "0",
        ]
        if store is not None:
            cmd += ["--store", str(store)]
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        self._last_cpu_s = 0.0
        self._last_rss_mb = 0.0
        self._stderr = open(base_dir / "serve.stderr", "w")
        self.proc = subprocess.Popen(
            cmd, cwd=base_dir, env=env, bufsize=0,
            stdout=subprocess.PIPE, stderr=self._stderr,
        )
        clock = ctypes.c_int()
        _LIBC.clock_getcpuclockid(self.proc.pid, ctypes.byref(clock))
        self._cpu_clock = clock.value
        try:
            self.host, self.port = self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self) -> tuple[str, int]:
        """Parse ``gateway listening on host:port`` from the raw stdout pipe."""
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + SERVE_READY_TIMEOUT_S
        seen = b""
        while True:
            for line in seen.split(b"\n")[:-1]:
                if line.startswith(b"gateway listening on "):
                    host, _, port = line.split()[-1].decode().rpartition(":")
                    return host, int(port)
            remaining = max(0.0, deadline - time.monotonic())
            ready, _, _ = select.select([fd], [], [], remaining)
            data = os.read(fd, 4096) if ready else b""
            if not data:
                raise RuntimeError(
                    f"serve did not become ready (exit code {self.proc.poll()})"
                )
            seen += data

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_seconds(self) -> float:
        """CPU time of the server so far (last reading once it is gone).

        Read from the server's process CPU-time clock: every thread, user
        and system, in nanoseconds.  ``/proc/<pid>/stat`` counts the same
        time in 10 ms ticks, 5 % of one block of ``gw_small``.
        """
        try:
            self._last_cpu_s = time.clock_gettime_ns(self._cpu_clock) / 1e9
        except OSError:
            pass
        return self._last_cpu_s

    def peak_rss_mb(self) -> float:
        try:
            for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    self._last_rss_mb = int(line.split()[1]) / 1024
        except (OSError, IndexError, ValueError):
            pass
        return self._last_rss_mb

    def stop(self) -> None:
        """SIGTERM, then SIGKILL; always reaps the child."""
        try:
            if self.proc.poll() is None:
                self.proc.terminate()
                try:
                    self.proc.wait(SERVE_STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._stderr.close()
