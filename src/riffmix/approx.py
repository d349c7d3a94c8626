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
from collections import Counter
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .deck import Deck, label_positions, transition_cardinality
from .errors import CapExceededError, DegenerateDistributionError

if TYPE_CHECKING:
    from .descentpoly import DescentHistogram


class DescentMoments(NamedTuple):
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

    The descent terms `single`, `adjacent_covariance` and
    `disjoint_covariance` depend only on the labels at the boundaries
    involved.  They are memoized too, as unreduced (num, den) pairs, so
    one instance serves every source deck carried onto its target.
    """

    def __init__(self, target: Deck):
        self.target = target
        self.positions = label_positions(target)
        self.sizes = {lab: len(p) for lab, p in self.positions.items()}
        self._factors: dict[tuple[str, str, str], list[int]] = {}
        self._sums: dict[tuple, int] = {}
        self._single: dict[tuple[str, str], tuple[int, int]] = {}
        self._adjacent: dict[tuple[str, str, str], tuple[int, int]] = {}
        self._disjoint: dict[tuple, tuple[int, int]] = {}

    def below(self, lab: str, pos: int) -> int:
        return bisect_left(self.positions[lab], pos)

    def above(self, lab: str, pos: int) -> int:
        return self.sizes[lab] - bisect_right(self.positions[lab], pos)

    def _at(self, side: str, lab: str, over: str) -> list[int]:
        """`below` (side "below") or `above` of `lab` at each position of
        label `over`."""
        key = (side, lab, over)
        val = self._factors.get(key)
        if val is None:
            val = self._factors[key] = list(
                map(getattr(self, side), repeat(lab), self.positions[over])
            )
        return val

    def descending_pairs(self, a: str, b: str) -> int:
        return sum(self._at("below", b, a))

    def descending_triples(self, a: str, b: str, c: str) -> int:
        return self.product_sum(b, ("above", a), ("below", c))

    def product_sum(self, over: str, f1: tuple[str, str], f2: tuple[str, str]) -> int:
        """Sum over positions p of label `over` of g1(p) * g2(p), where
        each factor is ("below", lab) or ("above", lab) applied at p."""
        key = (over, f1, f2) if f1 <= f2 else (over, f2, f1)
        val = self._sums.get(key)
        if val is None:
            val = self._sums[key] = sum(
                map(mul, self._at(*f1, over), self._at(*f2, over))
            )
        return val

    def single(self, a: str, b: str) -> tuple[int, int]:
        """Descent probability at a boundary with labels (a, b), as
        (num, den).  Two cards of one label descend with probability 1/2
        by symmetry."""
        val = self._single.get((a, b))
        if val is None:
            val = self._single[a, b] = (
                (1, 2)
                if a == b
                else (self.descending_pairs(a, b), self.sizes[a] * self.sizes[b])
            )
        return val

    def adjacent_covariance(self, a: str, b: str, c: str) -> tuple[int, int]:
        """Covariance of the descents at consecutive boundaries with
        labels a, b, c, as (num, den).

        Both descend exactly when the three drawn positions strictly
        decrease, which `descending_triples` counts.
        """
        key = (a, b, c)
        val = self._adjacent.get(key)
        if val is None:
            val = self._adjacent[key] = self._covariance(
                self.descending_triples(a, b, c), key, (a, b), (b, c)
            )
        return val

    def disjoint_covariance(
        self, t: tuple[str, str], u: tuple[str, str]
    ) -> tuple[int, int]:
        """Covariance of the descents at two non-touching boundaries of
        types t = (a, b) and u = (c, d), where a != b, c != d and the
        types share a label, as (num, den).

        A boundary that compares two cards of one label is an
        independent fair coin (swapping the two draws is measure
        preserving and flips only that indicator), and boundaries with
        no label in common draw independently, so every other pair of
        non-touching boundaries has covariance 0.  Here the count of
        favorable draws is the product of the two pair counts, less the
        draws that put two cards of a shared label on one position, by
        inclusion-exclusion.  Each shared label must have two cards for
        the boundaries to be disjoint.
        """
        key = (t, u) if t <= u else (u, t)
        val = self._disjoint.get(key)
        if val is None:
            (a, b), (c, d) = t, u
            r, ps = self.descending_pairs, self.product_sum
            num = r(a, b) * r(c, d)
            if a == c:
                num -= ps(a, ("below", b), ("below", d))
            if a == d:
                num -= ps(a, ("below", b), ("above", c))
            if b == c:
                num -= ps(b, ("above", a), ("below", d))
            if b == d:
                num -= ps(b, ("above", a), ("above", c))
            if t == u:
                num += r(a, b)
            val = self._disjoint[key] = self._covariance(num, (a, b, c, d), t, u)
        return val

    def _covariance(
        self,
        hits: int,
        labels: tuple[str, ...],
        t: tuple[str, str],
        u: tuple[str, str],
    ) -> tuple[int, int]:
        """hits / draws - single(t) * single(u), unreduced, where draws
        counts the injective draws of positions for cards with `labels`:
        a falling factorial per repeated label."""
        draws = 1
        for lab in set(labels):
            size = self.sizes[lab]
            for i in range(labels.count(lab)):
                draws *= size - i
        (sn, sd), (un, ud) = self.single(*t), self.single(*u)
        return hits * sd * ud - draws * sn * un, draws * sd * ud


def _total(acc: Counter[int]) -> Fraction:
    """The sum of num/den over the entries den -> num of `acc`."""
    den = math.lcm(*acc)
    return Fraction(sum(num * (den // d) for d, num in acc.items()), den)


def descent_moments(
    d1: Deck, d2: Deck, stats: PairStatistics | None = None
) -> DescentMoments:
    """Exact mean and variance of the descent count of a uniform
    permutation carrying `d1` onto `d2`.

    The count sums one indicator per boundary, and each term depends
    only on boundary types, a boundary's (left label, right label) pair.
    The mean sums `single` over boundaries.  The variance sums s(1 - s)
    over boundaries, twice the `adjacent_covariance` of each pair of
    consecutive boundaries, and twice the `disjoint_covariance` of each
    pair of non-touching boundaries whose types share a label and are
    not monochrome; all other pairs are independent.  So the work per
    call grows with the number of distinct types, not with n^2.

    Callers sweeping many source decks against one target can pass the
    target's `PairStatistics` to reuse its memoized terms.
    """
    transition_cardinality(d1, d2)
    if stats is not None and stats.target is not d2 and stats.target != d2:
        raise ValueError("stats was built for a different target deck")
    st = stats if stats is not None else PairStatistics(d2)
    cards = d1.cards
    types = Counter(zip(cards, cards[1:]))
    # Sums of fractions, kept as denominator -> numerator until the end.
    mean_sum: Counter[int] = Counter()
    var_sum: Counter[int] = Counter()
    for (a, b), k in types.items():
        num, den = st.single(a, b)
        mean_sum[den] += k * num
        var_sum[den * den] += k * num * (den - num)
    # Consecutive mixed boundaries, by unordered type pair; the products
    # of type counts below count them too, and they are not disjoint.
    touching: Counter[tuple[tuple[str, str], tuple[str, str]]] = Counter()
    for (a, b, c), k in Counter(zip(cards, cards[1:], cards[2:])).items():
        num, den = st.adjacent_covariance(a, b, c)
        var_sum[den] += 2 * k * num
        if a != b != c:
            touching[min((a, b), (b, c)), max((a, b), (b, c))] += k
    # Mixed (not monochrome) types, listed under each of their labels.
    mixed = [t for t in types if t[0] != t[1]]
    by_label: dict[str, set[tuple[str, str]]] = {}
    for t in mixed:
        for lab in t:
            by_label.setdefault(lab, set()).add(t)
    for t in mixed:
        for u in by_label[t[0]] | by_label[t[1]]:
            if t <= u:
                # Disjoint pairs of boundaries with types t and u.
                k = types[t] * (types[u] - 1) // 2 if t == u else types[t] * types[u]
                k -= touching[t, u]
                if k:
                    num, den = st.disjoint_covariance(t, u)
                    var_sum[den] += 2 * k * num
    mean, variance = _total(mean_sum), _total(var_sum)
    if variance < 0:
        raise ArithmeticError(f"negative variance {variance}; this is a bug")
    return DescentMoments(d1.n, mean, variance)


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
    d1: Deck, d2: Deck, stats: PairStatistics | None = None
) -> tuple[DescentMoments, tuple[int, ...] | tuple[float, ...]]:
    """All degrees at once: moments plus the estimated coefficient vector.

    When the descent count is deterministic the vector is the exact point
    mass, every transition at the one degree, in integers.  `stats` is
    passed on to `descent_moments`.
    """
    moments = descent_moments(d1, d2, stats)
    m = transition_cardinality(d1, d2)
    if moments.variance == 0:
        d = int(moments.mean)
        if moments.mean != d:
            raise ArithmeticError(
                "deterministic descent count is not an integer; this is a bug"
            )
        return moments, tuple(m if j == d else 0 for j in range(d1.n))
    est = tuple(
        normal_coefficient_estimate(d, moments, m) for d in range(d1.n)
    )
    return moments, est


# ---------------------------------------------------------------------------
# Tail extrapolation from a sampled histogram


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
