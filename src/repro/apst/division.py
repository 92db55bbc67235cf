"""Load division methods (paper Section 3.4).

In the ideal divisible-load model the input can be cut anywhere; real
applications only admit *valid cut-off points* (byte multiples, record
separators, video frames...).  APST-DV lets the user declare where the load
may be divided and snaps every size requested by the scheduling algorithm
to the nearest valid cut-off.  The three methods of the paper:

* **uniform** -- cut-offs every ``stepsize`` load units (``bytes`` step
  type) or at occurrences of a separator character (``separator`` type);
* **index** -- an index file lists every valid cut-off (byte offsets);
* **callback** -- an external user program extracts a chunk given an offset
  and size in application-specific *work units* (the case study wraps
  ``avisplit`` this way).

Chunks are produced *on the fly* -- only the chunk currently being shipped
exists as data -- "thereby avoiding creating a prohibitive number of files
for each individual chunk" (Section 3.3).

:class:`LoadTracker` layers sequential consumption on top of a division
method: the load is consumed front to back, each ``take()`` snapping the
requested size to a valid cut-off and absorbing un-dispatchable tails.
"""

from __future__ import annotations

import bisect
import math
import subprocess
import tempfile
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .._util import check_positive
from ..errors import DivisionError


@dataclass(frozen=True)
class ChunkExtent:
    """A contiguous range of the load: [offset, offset + units)."""

    offset: float
    units: float

    @property
    def end(self) -> float:
        return self.offset + self.units


class DivisionMethod(ABC):
    """Maps requested cut-off positions onto valid ones."""

    #: human-readable method name matching the XML ``method`` attribute
    method_name: str = "abstract"

    @property
    @abstractmethod
    def total_units(self) -> float:
        """Total size of the load in this method's unit."""

    @abstractmethod
    def nearest_cutoff(self, position: float) -> float:
        """Valid cut-off closest to ``position`` (ties resolve downward)."""

    @abstractmethod
    def next_cutoff(self, position: float) -> float:
        """Smallest valid cut-off strictly greater than ``position``.

        The end of the load is always a valid cut-off.
        """

    def extract(self, extent: ChunkExtent) -> "ChunkPayload | None":
        """Materialize the chunk's data; None for abstract (simulated) loads."""
        return None

    def validate_extent(self, extent: ChunkExtent) -> None:
        if extent.offset < 0 or extent.units <= 0:
            raise DivisionError(f"invalid extent {extent}")
        if extent.end > self.total_units + 1e-9:
            raise DivisionError(
                f"extent {extent} exceeds load of {self.total_units} units"
            )


@dataclass(frozen=True)
class ChunkPayload:
    """Materialized chunk data: either in-memory bytes or a file on disk."""

    extent: ChunkExtent
    data: bytes | None = None
    path: Path | None = None

    def __post_init__(self) -> None:
        if (self.data is None) == (self.path is None):
            raise DivisionError("payload must have exactly one of data/path")

    def read_bytes(self) -> bytes:
        if self.data is not None:
            return self.data
        assert self.path is not None
        return self.path.read_bytes()

    @property
    def nbytes(self) -> int:
        if self.data is not None:
            return len(self.data)
        assert self.path is not None
        return self.path.stat().st_size


class UniformUnitsDivision(DivisionMethod):
    """Uniform division in an abstract unit space (simulation workloads).

    Equivalent to the paper's ``method="uniform" steptype="bytes"`` applied
    to an abstract load of ``total`` units with cut-offs every ``step``.
    """

    method_name = "uniform"

    def __init__(self, total: float, step: float = 1.0, start: float = 0.0) -> None:
        check_positive("total", total, DivisionError)
        check_positive("step", step, DivisionError)
        if start < 0 or start >= total:
            raise DivisionError(f"start offset {start} outside load [0, {total})")
        self._total = float(total)
        self._step = float(step)
        self._start = float(start)

    @property
    def total_units(self) -> float:
        return self._total

    @property
    def step(self) -> float:
        return self._step

    def nearest_cutoff(self, position: float) -> float:
        position = min(max(position, self._start), self._total)
        # half-up rounding: ties snap to the later cut-off, deterministically
        k = math.floor((position - self._start) / self._step + 0.5)
        snapped = self._start + k * self._step
        if snapped > self._total:
            snapped -= self._step
        # the end of the load is always valid, and closer than the last step
        if abs(self._total - position) < abs(snapped - position):
            return self._total
        return max(self._start, min(snapped, self._total))

    def next_cutoff(self, position: float) -> float:
        if position >= self._total:
            raise DivisionError(f"no cut-off beyond end of load ({position})")
        k = int((position - self._start) / self._step) + 1
        candidate = self._start + k * self._step
        while candidate <= position + 1e-12:
            candidate += self._step
        return min(candidate, self._total)


class _OffsetListDivision(DivisionMethod):
    """Shared logic for methods defined by an explicit sorted cut-off list."""

    def __init__(self, cutoffs: Sequence[float], total: float) -> None:
        if total <= 0:
            raise DivisionError("empty load")
        pts = sorted({float(c) for c in cutoffs if 0 <= c <= total})
        if not pts or pts[0] != 0.0:
            pts.insert(0, 0.0)
        if pts[-1] != total:
            pts.append(float(total))
        self._cutoffs = pts
        self._total = float(total)

    @property
    def total_units(self) -> float:
        return self._total

    @property
    def cutoffs(self) -> list[float]:
        return list(self._cutoffs)

    def nearest_cutoff(self, position: float) -> float:
        position = min(max(position, 0.0), self._total)
        i = bisect.bisect_left(self._cutoffs, position)
        if i == 0:
            return self._cutoffs[0]
        if i >= len(self._cutoffs):
            return self._cutoffs[-1]
        before, after = self._cutoffs[i - 1], self._cutoffs[i]
        return before if position - before <= after - position else after

    def next_cutoff(self, position: float) -> float:
        if position >= self._total:
            raise DivisionError(f"no cut-off beyond end of load ({position})")
        i = bisect.bisect_right(self._cutoffs, position + 1e-12)
        if i >= len(self._cutoffs):
            return self._total
        return self._cutoffs[i]


class UniformBytesDivision(UniformUnitsDivision):
    """``method="uniform" steptype="bytes"`` over a real input file."""

    method_name = "uniform"

    def __init__(self, path: str | Path, stepsize: int, start: int = 0) -> None:
        self._path = Path(path)
        if not self._path.is_file():
            raise DivisionError(f"input file not found: {self._path}")
        size = self._path.stat().st_size
        if size == 0:
            raise DivisionError(f"input file is empty: {self._path}")
        super().__init__(total=float(size), step=float(stepsize), start=float(start))

    @property
    def path(self) -> Path:
        return self._path

    def extract(self, extent: ChunkExtent) -> ChunkPayload:
        self.validate_extent(extent)
        with self._path.open("rb") as fh:
            fh.seek(int(extent.offset))
            data = fh.read(int(extent.units))
        if len(data) != int(extent.units):
            raise DivisionError(
                f"short read extracting {extent} from {self._path}"
            )
        return ChunkPayload(extent=extent, data=data)


class SeparatorDivision(_OffsetListDivision):
    """``method="uniform" steptype="separator"``: cut after each separator.

    A valid cut-off point lies immediately *after* each occurrence of the
    separator byte, so every chunk ends with a complete record.
    """

    method_name = "uniform"

    def __init__(self, path: str | Path, separator: bytes | str) -> None:
        self._path = Path(path)
        if not self._path.is_file():
            raise DivisionError(f"input file not found: {self._path}")
        if isinstance(separator, str):
            separator = separator.encode()
        if len(separator) != 1:
            raise DivisionError("separator must be a single byte/character")
        data = self._path.read_bytes()
        if not data:
            raise DivisionError(f"input file is empty: {self._path}")
        cutoffs = [i + 1 for i, b in enumerate(data) if bytes([b]) == separator]
        super().__init__(cutoffs=cutoffs, total=float(len(data)))
        self._separator = separator

    @property
    def path(self) -> Path:
        return self._path

    def extract(self, extent: ChunkExtent) -> ChunkPayload:
        self.validate_extent(extent)
        with self._path.open("rb") as fh:
            fh.seek(int(extent.offset))
            data = fh.read(int(extent.units))
        return ChunkPayload(extent=extent, data=data)


class IndexDivision(_OffsetListDivision):
    """``method="index"``: valid cut-offs listed one-per-line in an index file.

    Offsets are byte positions from the start of the load file, per the
    paper's ``indexfile`` attribute.
    """

    method_name = "index"

    def __init__(self, path: str | Path, index_path: str | Path) -> None:
        self._path = Path(path)
        idx = Path(index_path)
        if not self._path.is_file():
            raise DivisionError(f"input file not found: {self._path}")
        if not idx.is_file():
            raise DivisionError(f"index file not found: {idx}")
        size = self._path.stat().st_size
        if size == 0:
            raise DivisionError(f"input file is empty: {self._path}")
        cutoffs: list[float] = []
        for lineno, line in enumerate(idx.read_text().splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = int(line)
            except ValueError as exc:
                raise DivisionError(
                    f"bad offset {line!r} at {idx}:{lineno}"
                ) from exc
            if value < 0 or value > size:
                raise DivisionError(
                    f"offset {value} at {idx}:{lineno} outside file of {size} bytes"
                )
            cutoffs.append(float(value))
        super().__init__(cutoffs=cutoffs, total=float(size))

    @property
    def path(self) -> Path:
        return self._path

    def extract(self, extent: ChunkExtent) -> ChunkPayload:
        self.validate_extent(extent)
        with self._path.open("rb") as fh:
            fh.seek(int(extent.offset))
            data = fh.read(int(extent.units))
        return ChunkPayload(extent=extent, data=data)


#: In-process callback signature: (offset_units, size_units, output_path) -> None
CallbackFunction = Callable[[int, int, Path], None]


class CallbackDivision(DivisionMethod):
    """``method="callback"``: a user program extracts chunks by work unit.

    The load is measured in application-specific *work units* (e.g. video
    frames; the paper's case study uses ``load="1830"`` frames).  Valid
    cut-offs fall on whole work units.  Extraction is delegated either to

    * an external program, invoked as
      ``prog [user args...] OFFSET SIZE OUTPUT_PATH`` (mirroring the
      paper's ``callback_avisplit.pl`` contract), or
    * an in-process Python callable with the same ``(offset, size, path)``
      contract, for tests and the simulated backend.
    """

    method_name = "callback"

    def __init__(
        self,
        load_units: int,
        *,
        program: Sequence[str] | None = None,
        function: CallbackFunction | None = None,
        workdir: str | Path | None = None,
    ) -> None:
        if load_units <= 0:
            raise DivisionError("load must be a positive number of work units")
        if (program is None) == (function is None):
            raise DivisionError("exactly one of program/function must be given")
        self._total = int(load_units)
        self._program = list(program) if program is not None else None
        self._function = function
        self._workdir = Path(workdir) if workdir else Path(tempfile.gettempdir())
        self._counter = 0

    @property
    def total_units(self) -> float:
        return float(self._total)

    def nearest_cutoff(self, position: float) -> float:
        return float(min(max(round(position), 0), self._total))

    def next_cutoff(self, position: float) -> float:
        if position >= self._total:
            raise DivisionError(f"no cut-off beyond end of load ({position})")
        return float(min(int(position) + 1, self._total))

    def extract(self, extent: ChunkExtent) -> ChunkPayload:
        self.validate_extent(extent)
        offset, size = int(extent.offset), int(extent.units)
        self._counter += 1
        out = self._workdir / f"apstdv_chunk_{offset}_{size}_{self._counter}.part"
        if self._function is not None:
            self._function(offset, size, out)
        else:
            assert self._program is not None
            cmd = [*self._program, str(offset), str(size), str(out)]
            result = subprocess.run(cmd, capture_output=True, text=True)
            if result.returncode != 0:
                raise DivisionError(
                    f"callback program failed ({result.returncode}): "
                    f"{' '.join(cmd)}\n{result.stderr.strip()}"
                )
        if not out.is_file():
            raise DivisionError(f"callback produced no output file at {out}")
        return ChunkPayload(extent=extent, path=out)


class LoadTracker:
    """Sequential front-to-back consumption of a divisible load.

    Each ``take(requested)`` returns a :class:`ChunkExtent` whose size is
    the requested one snapped to valid cut-offs, with two guarantees:

    * every chunk has positive size (a too-small request advances to the
      next valid cut-off);
    * a leftover smaller than the next step is absorbed into the final
      chunk, so the load is consumed exactly.
    """

    def __init__(self, division: DivisionMethod) -> None:
        self._division = division
        self._position = 0.0
        # A division's total never changes; ``exhausted`` runs several
        # times per chunk, so its two operands are fixed here.
        self._total = division.total_units
        self._tolerance = 1e-9 * max(1.0, self._total)

    @property
    def division(self) -> DivisionMethod:
        return self._division

    @property
    def total_units(self) -> float:
        return self._total

    @property
    def consumed(self) -> float:
        return self._position

    @property
    def remaining(self) -> float:
        return self._total - self._position

    @property
    def exhausted(self) -> bool:
        return self._total - self._position <= self._tolerance

    def take(self, requested_units: float) -> ChunkExtent:
        """Consume ~``requested_units`` from the front of the load."""
        if self.exhausted:
            raise DivisionError("load exhausted")
        if requested_units <= 0:
            raise DivisionError(f"requested chunk must be positive ({requested_units})")
        division = self._division
        position = self._position
        total = self._total
        target = min(position + requested_units, total)
        snapped = division.nearest_cutoff(target)
        if snapped <= position:
            snapped = division.next_cutoff(position)
        # absorb a tail that no further cut-off could split off
        if snapped < total:
            after = division.next_cutoff(snapped)
            if after >= total and (total - snapped) < (snapped - position):
                # leftover is smaller than this chunk: absorb it now
                snapped = total
        extent = ChunkExtent(offset=position, units=snapped - position)
        self._position = snapped
        return extent

    def take_exact_rest(self) -> ChunkExtent:
        """Consume everything that remains as one chunk."""
        if self.exhausted:
            raise DivisionError("load exhausted")
        extent = ChunkExtent(offset=self._position, units=self.remaining)
        self._position = self._total
        return extent
