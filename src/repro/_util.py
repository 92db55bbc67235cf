"""Small shared helpers (validation, numerics, formatting)."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence


def require(condition: bool, exc_type: type[Exception], message: str) -> None:
    """Raise ``exc_type(message)`` unless ``condition`` holds."""
    if not condition:
        raise exc_type(message)


def check_positive(name: str, value: float, exc_type: type[Exception]) -> None:
    """Validate that ``value`` is a finite, strictly positive number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise exc_type(f"{name} must be a number, got {type(value).__name__}")
    if not math.isfinite(value) or value <= 0:
        raise exc_type(f"{name} must be finite and > 0, got {value!r}")


def check_nonnegative(name: str, value: float, exc_type: type[Exception]) -> None:
    """Validate that ``value`` is a finite number >= 0."""
    # Hot path (once per simulated transfer and computation): an exact
    # float in [0, inf) passes on two comparisons; anything else takes
    # the full checks below.
    if type(value) is float and 0.0 <= value < math.inf:
        return
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise exc_type(f"{name} must be a number, got {type(value).__name__}")
    if not math.isfinite(value) or value < 0:
        raise exc_type(f"{name} must be finite and >= 0, got {value!r}")


def almost_equal(a: float, b: float, *, rel: float = 1e-9, absolute: float = 1e-9) -> bool:
    """Tolerant float comparison used throughout load-conservation checks."""
    return math.isclose(a, b, rel_tol=rel, abs_tol=absolute)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input (an empty mean is a bug here)."""
    if not values:
        raise ValueError("mean() of empty sequence")
    return sum(values) / len(values)


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Sample coefficient of variation (std / mean), 0.0 for < 2 samples.

    Uses the unbiased (n-1) variance estimator, which is what the online
    gamma estimator in RUMR relies on.
    """
    n = len(values)
    if n < 2:
        return 0.0
    m = mean(values)
    if m == 0:
        return 0.0
    var = sum((v - m) ** 2 for v in values) / (n - 1)
    return math.sqrt(var) / m


def cumulative_sums(values: Iterable[float]) -> list[float]:
    """Running cumulative sums as a list."""
    total = 0.0
    out: list[float] = []
    for v in values:
        total += v
        out.append(total)
    return out


def format_seconds(seconds: float) -> str:
    """Human-readable duration, e.g. ``1h 42m 10s``."""
    if seconds < 0:
        return "-" + format_seconds(-seconds)
    s = int(round(seconds))
    h, rem = divmod(s, 3600)
    m, sec = divmod(rem, 60)
    if h:
        return f"{h}h {m:02d}m {sec:02d}s"
    if m:
        return f"{m}m {sec:02d}s"
    return f"{seconds:.2f}s"
