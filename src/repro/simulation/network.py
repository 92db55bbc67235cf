"""Serialized master network link.

The defining communication constraint of the paper's platform model (and of
all single-level-tree DLS work) is that the master sends to **one worker at
a time**: outgoing transfers are serialized on the master's uplink.  The
paper leans on this repeatedly -- it is why communication stays on the
critical path even when the communication/computation ratio ``r`` is large
("communications to workers are serialized ... communication represents a
more significant part of the makespan as the number of workers increases").

:class:`SerializedLink` models that uplink as a FIFO resource on top of the
event engine: requests queue, each occupies the link for an affine duration
(latency + size/bandwidth, optionally noisy), and a completion callback
fires when the payload has fully arrived at the worker.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from ..errors import SimulationError
from .compute import ComputeModel
from .engine import SimulationEngine


@dataclass(slots=True)
class TransferRecord:
    """Completed transfer: who, how much, and when it occupied the link."""

    worker_index: int
    units: float
    start_time: float
    end_time: float
    tag: object = None

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


class SerializedLink:
    """FIFO master uplink with affine per-transfer cost.

    ``submit()`` enqueues a transfer; the link serves requests in submission
    order.  ``on_idle`` (if set) is invoked whenever the link becomes free
    with nothing queued -- the master driver uses it to pull the next
    dispatch decision from the scheduling algorithm.
    """

    def __init__(self, engine: SimulationEngine, compute_model: ComputeModel) -> None:
        self._engine = engine
        self._model = compute_model
        #: True while a transfer is in flight.  A plain attribute (the
        #: drive loop reads it on every iteration); only the link sets it.
        self.busy = False
        self._queue: deque[
            tuple[int, float, Callable[[TransferRecord], None], object]
        ] = deque()
        self._records: list[TransferRecord] = []
        self._busy_time = 0.0
        #: Hook called (with no arguments) when the link drains.
        self.on_idle: Callable[[], None] | None = None

    @property
    def queued(self) -> int:
        """Number of transfers waiting behind the in-flight one."""
        return len(self._queue)

    @property
    def records(self) -> list[TransferRecord]:
        """Completed transfers, in completion order."""
        return self._records

    @property
    def busy_time(self) -> float:
        """Total simulated seconds the link spent transferring."""
        return self._busy_time

    def utilization(self, makespan: float) -> float:
        """Fraction of ``makespan`` the link was busy."""
        if makespan <= 0:
            raise SimulationError("makespan must be positive for utilization")
        return self._busy_time / makespan

    def submit(
        self,
        worker_index: int,
        units: float,
        on_complete: Callable[[TransferRecord], None],
        *,
        tag: object = None,
    ) -> None:
        """Enqueue a transfer of ``units`` load units to ``worker_index``.

        ``on_complete(record)`` fires when the chunk has fully arrived.
        Zero-unit transfers are legal (no-op probe jobs still pay latency).
        """
        if units < 0:
            raise SimulationError(f"cannot transfer negative load ({units})")
        self._queue.append((worker_index, units, on_complete, tag))
        if not self.busy:
            self._start_next()

    def _start_next(self) -> None:
        if self.busy:
            raise SimulationError("link already busy")
        if not self._queue:
            return
        worker_index, units, on_complete, tag = self._queue.popleft()
        duration = self._model.realized_transfer_time(worker_index, units)
        start = self._engine.now
        self.busy = True
        self._busy_time += duration
        record = TransferRecord(
            worker_index=worker_index,
            units=units,
            start_time=start,
            end_time=start + duration,
            tag=tag,
        )
        self._engine.schedule(duration, self._finish, record, on_complete)

    def _finish(
        self, record: TransferRecord, on_complete: Callable[[TransferRecord], None]
    ) -> None:
        self.busy = False
        self._records.append(record)
        on_complete(record)
        # The completion callback may have submitted more work.
        if not self.busy and self._queue:
            self._start_next()
        if not self.busy and not self._queue and self.on_idle is not None:
            self.on_idle()
