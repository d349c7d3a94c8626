"""Approximating descent coefficients without full enumeration.

Two routes are provided.  The first computes the exact mean and variance
of the descent count of a uniform transition and places a discretized
normal curve with those moments; this scales to decks far beyond
enumeration.  The second fits a low-degree polynomial to the logarithm
of sampled coefficient estimates over the degrees a histogram populates
well, then reads the fit where the histogram is empty or unreliable.

Moment computation works purely with target-position statistics.  Write
P_c for the sorted target positions of label c.  A uniform transition
assigns each source card an independent uniform draw from its label's
positions, conditioned on same-label draws being distinct.  Descent
indicators at different boundaries couple only through shared labels,
and every joint expectation reduces to counting monotone pairs and
triples of positions, which the `PairStatistics` helper tabulates.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .deck import Deck, label_positions, transition_cardinality
from .errors import CapExceededError, DegenerateDistributionError
from .descentpoly import DescentHistogram


@dataclass(frozen=True)
class DescentMoments:
    """Exact first two moments of the descent count of a uniform transition."""

    n: int
    mean: Fraction
    variance: Fraction

    @property
    def sigma(self) -> float:
        return math.sqrt(float(self.variance))


class PairStatistics:
    """Position-order statistics of one target deck, with memoized counts.

    All counts refer to 1-based positions in the target deck.  `below`
    and `above` count positions of one label strictly below or above a
    given position; `descending_pairs(a, b)` counts pairs with the
    a-position above the b-position; `descending_triples(a, b, c)`
    counts position triples x > y > z with x from P_a, y from P_b,
    z from P_c (distinct positions by construction).
    """

    def __init__(self, target: Deck):
        self.target = target
        self.positions = label_positions(target)
        self.sizes = {lab: len(p) for lab, p in self.positions.items()}
        self._pairs: dict[tuple[int, int], int] = {}
        self._triples: dict[tuple[int, int, int], int] = {}
        self._sums: dict[tuple, int] = {}

    def below(self, lab: int, pos: int) -> int:
        return bisect_left(self.positions[lab], pos)

    def above(self, lab: int, pos: int) -> int:
        return self.sizes[lab] - bisect_right(self.positions[lab], pos)

    def descending_pairs(self, a: int, b: int) -> int:
        key = (a, b)
        val = self._pairs.get(key)
        if val is None:
            val = sum(self.below(b, x) for x in self.positions[a])
            self._pairs[key] = val
        return val

    def descending_triples(self, a: int, b: int, c: int) -> int:
        key = (a, b, c)
        val = self._triples.get(key)
        if val is None:
            val = sum(
                self.above(a, y) * self.below(c, y)
                for y in self.positions[b]
            )
            self._triples[key] = val
        return val

    def product_sum(self, over: int, f1: tuple[str, int], f2: tuple[str, int]) -> int:
        """Sum over positions p of label `over` of g1(p) * g2(p), where
        each factor is ("below", lab) or ("above", lab) applied at p."""
        key = (over, f1, f2) if f1 <= f2 else (over, f2, f1)
        val = self._sums.get(key)
        if val is None:
            def make(spec):
                side, lab = spec
                return (
                    (lambda p: self.below(lab, p))
                    if side == "below"
                    else (lambda p: self.above(lab, p))
                )

            g1, g2 = make(f1), make(f2)
            val = sum(g1(p) * g2(p) for p in self.positions[over])
            self._sums[key] = val
        return val


def _single_expectation(st: PairStatistics, a: int, b: int) -> tuple[int, int]:
    """E[descent at a boundary with labels (a, b)] as (num, den)."""
    if a == b:
        return 1, 2
    return st.descending_pairs(a, b), st.sizes[a] * st.sizes[b]


def _adjacent_expectation(
    st: PairStatistics, a: int, b: int, c: int
) -> tuple[int, int]:
    """E[product of descents at consecutive boundaries with labels a,b,c].

    The product is 1 exactly when the three drawn positions strictly
    decrease.  Numerator counts decreasing triples with distinct
    positions; the denominator is the count of injective draws, a
    falling factorial per repeated label.
    """
    num = st.descending_triples(a, b, c)
    den = 1
    for lab in set((a, b, c)):
        m = (a, b, c).count(lab)
        size = st.sizes[lab]
        for t in range(m):
            den *= size - t
    return num, den


def _disjoint_expectation(
    st: PairStatistics, a: int, b: int, c: int, d: int
) -> tuple[int, int]:
    """E[product of descents at two non-touching boundaries], labels
    (a, b) at the first and (c, d) at the second.

    When a boundary compares two cards of one label, its indicator is an
    independent fair coin no matter what else is drawn (swapping the two
    draws is measure preserving and flips only that indicator), so it
    contributes a factor 1/2.  Otherwise the count of favorable draws is
    the product of the two pair counts, corrected for draws that collide
    in a shared label.
    """
    if a == b and c == d:
        return 1, 4
    if a == b:
        num, den = _single_expectation(st, c, d)
        return num, 2 * den
    if c == d:
        num, den = _single_expectation(st, a, b)
        return num, 2 * den
    na, nb, nc, nd = st.sizes[a], st.sizes[b], st.sizes[c], st.sizes[d]
    r = st.descending_pairs
    if len({a, b, c, d}) == 4:
        return r(a, b) * r(c, d), na * nb * nc * nd
    if a == c and b == d:
        num = (
            r(a, b) * r(a, b)
            - st.product_sum(a, ("below", b), ("below", b))
            - st.product_sum(b, ("above", a), ("above", a))
            + r(a, b)
        )
        return num, na * (na - 1) * nb * (nb - 1)
    if a == d and b == c:
        num = (
            r(a, b) * r(b, a)
            - st.product_sum(a, ("below", b), ("above", b))
            - st.product_sum(b, ("below", a), ("above", a))
        )
        return num, na * (na - 1) * nb * (nb - 1)
    if a == c:
        num = r(a, b) * r(a, d) - st.product_sum(
            a, ("below", b), ("below", d)
        )
        return num, na * (na - 1) * nb * nd
    if a == d:
        num = r(a, b) * r(c, a) - st.product_sum(
            a, ("below", b), ("above", c)
        )
        return num, na * (na - 1) * nb * nc
    if b == c:
        num = r(a, b) * r(b, d) - st.product_sum(
            b, ("above", a), ("below", d)
        )
        return num, nb * (nb - 1) * na * nd
    # b == d
    num = r(a, b) * r(c, b) - st.product_sum(b, ("above", a), ("above", c))
    return num, nb * (nb - 1) * na * nc


class _RationalAccumulator:
    """Sum of many small rationals, grouped by denominator."""

    def __init__(self) -> None:
        self._acc: dict[int, int] = {}

    def add(self, num: int, den: int) -> None:
        if num:
            self._acc[den] = self._acc.get(den, 0) + num

    def value(self) -> Fraction:
        out = Fraction(0)
        for den, num in self._acc.items():
            out += Fraction(num, den)
        return out


def descent_moments(
    d1: Deck, d2: Deck, stats: PairStatistics | None = None
) -> DescentMoments:
    """Exact mean and variance of the descent count of a uniform
    permutation carrying `d1` onto `d2`.

    Callers sweeping many source decks against one target can pass the
    target's `PairStatistics` to reuse its memoized position counts.
    """
    transition_cardinality(d1, d2)
    n = d1.n
    if stats is not None and stats.target is not d2 and stats.target != d2:
        raise ValueError("stats was built for a different target deck")
    st = stats if stats is not None else PairStatistics(d2)
    cards = d1.cards
    mean_acc = _RationalAccumulator()
    singles: list[tuple[int, int]] = []
    for i in range(n - 1):
        num, den = _single_expectation(st, cards[i], cards[i + 1])
        singles.append((num, den))
        mean_acc.add(num, den)
    mean = mean_acc.value()
    square_acc = _RationalAccumulator()
    for num, den in singles:
        square_acc.add(num, den)
    adj_memo: dict[tuple[int, int, int], tuple[int, int]] = {}
    dis_memo: dict[tuple[int, int, int, int], tuple[int, int]] = {}
    for i in range(n - 1):
        a, b = cards[i], cards[i + 1]
        for j in range(i + 1, n - 1):
            c, d = cards[j], cards[j + 1]
            if j == i + 1:
                key3 = (a, b, d)
                term = adj_memo.get(key3)
                if term is None:
                    term = _adjacent_expectation(st, a, b, d)
                    adj_memo[key3] = term
            else:
                key4 = (a, b, c, d)
                term = dis_memo.get(key4)
                if term is None:
                    term = _disjoint_expectation(st, a, b, c, d)
                    dis_memo[key4] = term
            square_acc.add(2 * term[0], term[1])
    variance = square_acc.value() - mean * mean
    if variance < 0:
        raise ArithmeticError(f"negative variance {variance}; this is a bug")
    return DescentMoments(n, mean, variance)


# ---------------------------------------------------------------------------
# Normal-curve coefficient estimates


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def normal_coefficient_estimate(
    d: int, moments: DescentMoments, cardinality: int
) -> float:
    """Estimate the degree-`d` coefficient as cardinality times the mass
    a normal with the transition's moments puts on (d-1/2, d+1/2).

    Raises `DegenerateDistributionError` when the variance vanishes; the
    distribution is then a point mass and needs no curve.
    """
    if moments.variance == 0:
        raise DegenerateDistributionError(
            "descent count is deterministic; normal curve does not apply"
        )
    if not 0 <= d <= moments.n - 1:
        raise ValueError(f"degree {d} out of range 0..{moments.n - 1}")
    mu = float(moments.mean)
    sigma = moments.sigma
    hi = _phi((d + 0.5 - mu) / sigma)
    lo = _phi((d - 0.5 - mu) / sigma)
    return cardinality * (hi - lo)


def normal_error_bound_applies(moments: DescentMoments) -> bool:
    """Whether the transition is in the regime where the normal estimate
    carries a proven multiplicative error guarantee near the mean.

    The sufficient condition is variance^3 > 294^2 * mean^2, checked
    exactly.  Outside the regime the estimate is still often usable; this
    flag only reports whether the guarantee applies.
    """
    return moments.variance**3 > 294**2 * moments.mean**2


def normal_polynomial_estimate(
    d1: Deck, d2: Deck
) -> tuple[DescentMoments, tuple[float, ...]]:
    """All degrees at once: moments plus the estimated coefficient vector."""
    moments = descent_moments(d1, d2)
    m = transition_cardinality(d1, d2)
    est = tuple(
        normal_coefficient_estimate(d, moments, m) for d in range(d1.n)
    )
    return moments, est


# ---------------------------------------------------------------------------
# Tail extrapolation from a sampled histogram


@dataclass(frozen=True)
class TailFit:
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
        u = float(Fraction(d) - self.center)
        acc = 0.0
        for k in range(self.degree, -1, -1):
            acc = acc * u + float(self.coefficients[k])
        return acc

    def predict(self, d: int | float) -> float:
        """Estimated coefficient at degree `d` (may be far from the window)."""
        return math.exp(self.log_predict(d))


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
    themselves are floating point.
    """
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
    beta = _solve_rational(matrix, rhs)
    fit = TailFit(
        window=(lo, hi),
        degree=degree,
        center=center,
        coefficients=tuple(beta),
        residual_rms=0.0,
        min_count=min_count,
    )
    sq = 0.0
    for d, y in zip(points, ys):
        r = float(y) - fit.log_predict(d)
        sq += r * r
    return TailFit(
        window=(lo, hi),
        degree=degree,
        center=center,
        coefficients=tuple(beta),
        residual_rms=math.sqrt(sq / len(points)),
        min_count=min_count,
    )
