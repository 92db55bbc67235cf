"""Execution traces and the "detailed execution report".

The paper repeatedly relies on APST-DV's *detailed execution report* (it is
how the authors diagnosed RUMR's late phase switch).  This module is that
report: a chunk-level trace of every dispatch decision -- when the chunk
occupied the master link, when it started and finished computing, which
scheduling round/phase produced it -- plus derived statistics (makespan,
per-worker utilization, observed per-chunk compute-time CoV, link
utilization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable

from .._util import coefficient_of_variation, format_seconds
from ..errors import SimulationError


@dataclass(slots=True)
class ChunkTrace:
    """Lifecycle of a single chunk of load."""

    chunk_id: int
    worker_index: int
    worker_name: str
    units: float
    offset: float
    round_index: int
    phase: str
    send_start: float = -1.0
    send_end: float = -1.0
    compute_start: float = -1.0
    compute_end: float = -1.0
    predicted_compute: float = -1.0

    @property
    def transfer_time(self) -> float:
        """Seconds on the master link; NaN until the transfer has finished."""
        if self.send_start < 0.0 or self.send_end < 0.0:
            return math.nan
        return self.send_end - self.send_start

    @property
    def compute_time(self) -> float:
        """Seconds computing; NaN until the computation has finished."""
        if self.compute_start < 0.0 or self.compute_end < 0.0:
            return math.nan
        return self.compute_end - self.compute_start

    @property
    def queue_time(self) -> float:
        """Seconds the chunk sat on the worker before computation started.

        NaN while the chunk is still in transfer or not yet started -- a
        difference of the ``-1.0`` "unset" sentinels is meaningless, not
        merely zero.
        """
        if self.send_end < 0.0 or self.compute_start < 0.0:
            return math.nan
        return self.compute_start - self.send_end

    @property
    def completed(self) -> bool:
        return self.compute_end >= 0.0

    def shifted(
        self,
        dt: float,
        *,
        worker_index: int | None = None,
        chunk_id: int | None = None,
    ) -> "ChunkTrace":
        """Copy with all timestamps moved by ``dt``.

        The multi-job service layer simulates each lease segment on its own
        clock starting at zero; assembling a per-job report re-bases the
        segment's chunks onto the job timeline (and remaps sub-grid worker
        indices back to platform indices).
        """
        return replace(
            self,
            chunk_id=self.chunk_id if chunk_id is None else chunk_id,
            worker_index=self.worker_index if worker_index is None else worker_index,
            send_start=self.send_start + dt,
            send_end=self.send_end + dt,
            compute_start=self.compute_start + dt,
            compute_end=self.compute_end + dt,
        )

    def validate(self) -> None:
        """Causality checks; a violation is a simulator bug."""
        if not self.completed:
            raise SimulationError(f"chunk {self.chunk_id} never completed")
        if not (self.send_start <= self.send_end <= self.compute_start <= self.compute_end):
            raise SimulationError(
                f"chunk {self.chunk_id} violates causality: "
                f"send [{self.send_start}, {self.send_end}] "
                f"compute [{self.compute_start}, {self.compute_end}]"
            )


@dataclass
class WorkerSummary:
    """Per-worker aggregate over one run."""

    worker_index: int
    worker_name: str
    chunks: int
    units: float
    busy_time: float
    first_start: float
    last_end: float

    @property
    def utilization(self) -> float:
        """Busy fraction of the span during which the worker was active."""
        span = self.last_end
        return self.busy_time / span if span > 0 else 0.0


@dataclass
class ExecutionReport:
    """Full record of one application run under one scheduling algorithm."""

    algorithm: str
    total_load: float
    makespan: float
    probe_time: float
    chunks: list[ChunkTrace]
    link_busy_time: float
    gamma_configured: float
    seed: int | None = None
    events: list[str] = field(default_factory=list)
    #: Scheduler-specific annotations (e.g. RUMR phase-switch outcome).
    annotations: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Check causality, load conservation, and link exclusivity."""
        if self.makespan <= 0:
            raise SimulationError("non-positive makespan")
        total = 0.0
        for c in self.chunks:
            c.validate()
            total += c.units
        if abs(total - self.total_load) > 1e-6 * max(1.0, self.total_load):
            raise SimulationError(
                f"load not conserved: dispatched {total}, expected {self.total_load}"
            )
        # Transfers must not overlap (serialized master link).
        intervals = sorted((c.send_start, c.send_end) for c in self.chunks)
        for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
            if s2 < e1 - 1e-9:
                raise SimulationError(
                    f"overlapping transfers on serialized link: "
                    f"[{s1}, {e1}] and starting {s2}"
                )

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    @property
    def num_rounds(self) -> int:
        return 1 + max((c.round_index for c in self.chunks), default=0)

    @property
    def link_utilization(self) -> float:
        return self.link_busy_time / self.makespan if self.makespan > 0 else 0.0

    def observed_gamma(self) -> float:
        """CoV of (actual / predicted) chunk compute times.

        This is the quantity online-RUMR estimates during execution; here it
        is computed post hoc over all completed chunks with a usable
        prediction.
        """
        ratios = [
            c.compute_time / c.predicted_compute
            for c in self.chunks
            if c.predicted_compute > 0 and c.completed
        ]
        return coefficient_of_variation(ratios)

    def completed_by(self, at: float, *, tolerance: float = 1e-9) -> list[ChunkTrace]:
        """Chunks whose computation finished by (relative) time ``at``.

        This is the preemption boundary the service layer uses when a lease
        change interrupts a run mid-flight: finished chunks are retained,
        everything in transfer or still computing is re-dispatched on the
        new lease.
        """
        return [c for c in self.chunks if c.completed and c.compute_end <= at + tolerance]

    def completed_units_by(self, at: float) -> float:
        """Load units whose computation finished by (relative) time ``at``."""
        return sum(c.units for c in self.completed_by(at))

    def worker_summaries(self) -> list[WorkerSummary]:
        """Aggregate chunk traces per worker."""
        by_worker: dict[int, list[ChunkTrace]] = {}
        for c in self.chunks:
            by_worker.setdefault(c.worker_index, []).append(c)
        out = []
        for idx in sorted(by_worker):
            cs = by_worker[idx]
            out.append(
                WorkerSummary(
                    worker_index=idx,
                    worker_name=cs[0].worker_name,
                    chunks=len(cs),
                    units=sum(c.units for c in cs),
                    busy_time=sum(c.compute_time for c in cs),
                    first_start=min(c.compute_start for c in cs),
                    last_end=max(c.compute_end for c in cs),
                )
            )
        return out

    def phase_load(self) -> dict[str, float]:
        """Load units dispatched per scheduling phase."""
        out: dict[str, float] = {}
        for c in self.chunks:
            out[c.phase] = out.get(c.phase, 0.0) + c.units
        return out

    def gantt_rows(self) -> list[tuple[str, float, float, str]]:
        """(worker, start, end, phase) rows for plotting / text Gantt."""
        return [
            (c.worker_name, c.compute_start, c.compute_end, c.phase)
            for c in sorted(self.chunks, key=lambda c: (c.worker_index, c.compute_start))
        ]

    def render(self, *, max_chunks: int = 0) -> str:
        """Human-readable report (the APST-DV 'detailed execution report')."""
        lines = [
            f"=== Execution report: {self.algorithm} ===",
            f"makespan        : {format_seconds(self.makespan)} ({self.makespan:.1f}s)",
            f"probe time      : {format_seconds(self.probe_time)}",
            f"total load      : {self.total_load:.1f} units in {self.num_chunks} chunks, "
            f"{self.num_rounds} round(s)",
            f"link utilization: {self.link_utilization:.1%}",
            f"observed gamma  : {self.observed_gamma():.1%} "
            f"(configured {self.gamma_configured:.1%})",
        ]
        for key, value in sorted(self.annotations.items()):
            lines.append(f"{key:16s}: {value}")
        lines.append("--- per-worker ---")
        for w in self.worker_summaries():
            lines.append(
                f"  {w.worker_name:14s} chunks={w.chunks:3d} units={w.units:10.1f} "
                f"busy={w.busy_time:9.1f}s util={w.utilization:6.1%}"
            )
        if max_chunks:
            lines.append("--- chunks ---")
            for c in self.chunks[:max_chunks]:
                lines.append(
                    f"  #{c.chunk_id:4d} {c.worker_name:14s} {c.units:9.1f}u "
                    f"round={c.round_index:2d} phase={c.phase:10s} "
                    f"send=[{c.send_start:9.1f},{c.send_end:9.1f}] "
                    f"comp=[{c.compute_start:9.1f},{c.compute_end:9.1f}]"
                )
        return "\n".join(lines)


def merge_makespans(reports: Iterable[ExecutionReport]) -> list[float]:
    """Makespans of a batch of runs (helper for the analysis layer)."""
    return [r.makespan for r in reports]
