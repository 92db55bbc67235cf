"""Worker process: the remote end of the process execution backend.

Launched as::

    python -m repro.execution.worker_proc APP_SPEC WORKDIR

and driven over a JSON-lines protocol on stdin/stdout (the local analogue
of APST's Ssh-launched remote workers):

request  ``{"cmd": "process", "chunk_id": 7, "path": "...", "units": 12.0,
            "min_wall_time": 0.05}``
reply    ``{"chunk_id": 7, "status": "ok", "result_path": "...",
            "wall_time": 0.0512}``

``min_wall_time`` (seconds, optional) lets the master enforce the modeled
computation cost: the worker pads its real processing up to it, so reply
arrival times are meaningful to the scheduler.

request  ``{"cmd": "shutdown"}`` -- exit cleanly.

Any failure is reported as ``{"status": "error", "message": ...}`` for
that request; the worker keeps serving (a bad chunk must not take the
node down).  Diagnostics go to stderr only -- stdout carries exclusively
protocol lines.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .appspec import load_app
from .substrate import process_padded


def serve(app_spec: str, workdir: str, stdin=None, stdout=None) -> int:
    """Serve requests until shutdown/EOF.  Returns the exit status."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    try:
        app = load_app(app_spec)
    except Exception as exc:
        print(json.dumps({"status": "fatal", "message": str(exc)}), file=stdout, flush=True)
        return 1
    out_dir = Path(workdir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(json.dumps({"status": "ready"}), file=stdout, flush=True)

    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            print(json.dumps({"status": "error", "message": f"bad request: {exc}"}),
                  file=stdout, flush=True)
            continue
        cmd = request.get("cmd")
        if cmd == "shutdown":
            print(json.dumps({"status": "bye"}), file=stdout, flush=True)
            return 0
        if cmd != "process":
            print(json.dumps({"status": "error",
                              "message": f"unknown cmd {cmd!r}"}),
                  file=stdout, flush=True)
            continue
        chunk_id = request.get("chunk_id", -1)
        try:
            result, wall = process_padded(
                app,
                Path(request["path"]).read_bytes(),
                request.get("units"),
                float(request.get("min_wall_time", 0.0)),
            )
            result_path = out_dir / f"result_{chunk_id}.out"
            result_path.write_bytes(result)
            print(
                json.dumps({
                    "chunk_id": chunk_id,
                    "status": "ok",
                    "result_path": str(result_path),
                    "wall_time": wall,
                }),
                file=stdout, flush=True,
            )
        except Exception as exc:
            print(
                json.dumps({
                    "chunk_id": chunk_id,
                    "status": "error",
                    "message": f"{type(exc).__name__}: {exc}",
                }),
                file=stdout, flush=True,
            )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python -m repro.execution.worker_proc APP_SPEC WORKDIR",
              file=sys.stderr)
        return 2
    return serve(args[0], args[1])


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
