"""Tail extrapolation of a sampled descent histogram.

A low-degree polynomial is fitted to the logarithm of the histogram's
coefficient estimates over the degrees it populates well, and read
where the histogram is empty or unreliable.  `mc-hist --extrapolate`
is the only command that loads this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import CapExceededError

if TYPE_CHECKING:
    from .descentpoly import DescentHistogram


class TailFit(NamedTuple):
    """Polynomial fit to log coefficient estimates over a degree window.

    `coefficients[k]` multiplies (d - center)^k in the log-scale model.
    `residual_rms` is the root mean square log residual over the window.
    """

    window: tuple[int, int]
    degree: int
    center: Fraction
    coefficients: tuple[Fraction, ...]
    residual_rms: float
    min_count: int

    def log_predict(self, d: int | float) -> float:
        return _log_model(self.coefficients, self.center, d)

    def predict(self, d: int | float) -> float:
        """Estimated coefficient at degree `d` (may be far from the window)."""
        return math.exp(self.log_predict(d))


def _log_model(
    coefficients: tuple[Fraction, ...], center: Fraction, d: int | float
) -> float:
    """sum_k coefficients[k] * (d - center)^k, by Horner's rule in floats."""
    u = float(Fraction(d) - center)
    acc = 0.0
    for c in reversed(coefficients):
        acc = acc * u + float(c)
    return acc


def _solve_rational(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction]:
    """Exact Gaussian elimination with partial pivoting."""
    m = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(m):
        pivot = max(range(col, m), key=lambda r: abs(aug[r][col]))
        if aug[pivot][col] == 0:
            raise ArithmeticError("singular normal equations")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][m] for i in range(m)]


def _fit_window(counts: tuple[int, ...], min_count: int) -> tuple[int, int]:
    """Longest contiguous run of degrees with at least `min_count` samples.

    Ties go to the lowest starting degree.
    """
    best = None
    d = 0
    n = len(counts)
    while d < n:
        if counts[d] < min_count:
            d += 1
            continue
        start = d
        while d < n and counts[d] >= min_count:
            d += 1
        if best is None or d - start > best[1] - best[0] + 1:
            best = (start, d - 1)
    if best is None:
        raise CapExceededError(
            f"no degree reaches {min_count} samples; cannot place a fit window"
        )
    return best


def tail_extrapolate(
    hist: DescentHistogram,
    degree: int = 4,
    min_count: int = 400,
    window: tuple[int, int] | None = None,
) -> TailFit:
    """Fit log coefficient estimates over the well-populated degrees.

    The window defaults to the longest run of degrees with at least
    `min_count` samples and must contain at least degree + 2 points.
    The least-squares system is solved in exact rational arithmetic on
    degree values centered at the window midpoint; only the logarithms
    themselves are floating point.  Raises `ValueError` for a negative
    degree.
    """
    if degree < 0:
        raise ValueError(f"fit degree must be at least 0, got {degree}")
    if window is None:
        window = _fit_window(hist.counts, min_count)
    lo, hi = window
    if not 0 <= lo <= hi < hist.n:
        raise ValueError(f"window {window} out of range")
    points = [d for d in range(lo, hi + 1) if hist.counts[d] > 0]
    if len(points) < degree + 2:
        raise CapExceededError(
            f"window {window} has {len(points)} usable degrees; "
            f"a degree-{degree} fit needs at least {degree + 2}"
        )
    estimates = hist.coefficient_estimates()
    center = Fraction(sum(points), len(points))
    ys = [Fraction(math.log(float(estimates[d]))) for d in points]
    us = [Fraction(d) - center for d in points]
    m = degree + 1
    moments = [sum(u**k for u in us) for k in range(2 * m - 1)]
    matrix = [[moments[r + c] for c in range(m)] for r in range(m)]
    rhs = [sum(y * u**r for y, u in zip(ys, us)) for r in range(m)]
    beta = tuple(_solve_rational(matrix, rhs))
    sq = 0.0
    for d, y in zip(points, ys):
        r = float(y) - _log_model(beta, center, d)
        sq += r * r
    return TailFit(
        window=(lo, hi),
        degree=degree,
        center=center,
        coefficients=beta,
        residual_rms=math.sqrt(sq / len(points)),
        min_count=min_count,
    )
