"""Approximating descent coefficients without full enumeration.

The exact mean and variance of the descent count of a uniform transition
place a discretized normal curve with those moments; this scales to
decks far beyond enumeration.  (The other approximation, a tail fit to a
sampled histogram, is in `tailfit`.)

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
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import repeat
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .deck import Deck, label_positions, transition_cardinality
from .errors import CapExceededError, DegenerateDistributionError

if TYPE_CHECKING:
    from fractions import Fraction


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


def _total(acc: dict[int, int]) -> tuple[int, int]:
    """The sum of num/den over the entries den -> num of `acc`, as an
    unreduced (num, den) pair."""
    den = math.lcm(*acc)
    return sum(num * (den // d) for d, num in acc.items()), den


def _moment_sums(
    cards: tuple[str, ...], st: PairStatistics
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Mean and variance of the descent count of a uniform permutation
    carrying the deck `cards` onto `st.target`, which holds the same
    cards, as unreduced (num, den) int pairs with den > 0; the formula is
    that of `descent_moments`.  Each term is read from `st`'s memo by the
    key this loop already holds, and computed only on a miss."""
    types = Counter(zip(cards, cards[1:]))
    # Sums of fractions, kept as denominator -> numerator until the end:
    # the mean, the variances s(1 - s) of single boundaries, and the
    # covariances, which the variance counts twice.
    mean_sum: dict[int, int] = {}
    var_sum: dict[int, int] = {}
    cov_sum: dict[int, int] = {}
    mean_get, var_get, cov_get = mean_sum.get, var_sum.get, cov_sum.get
    memo = st._single.get
    for t, k in types.items():
        num, den = memo(t) or st.single(*t)
        mean_sum[den] = mean_get(den, 0) + k * num
        num, den = k * num * (den - num), den * den
        var_sum[den] = var_get(den, 0) + num
    # Consecutive mixed boundaries, by ordered type pair; the products
    # of type counts below count them too, and they are not disjoint.
    touching: dict[tuple[tuple[str, str], tuple[str, str]], int] = {}
    touching_get = touching.get
    memo = st._adjacent.get
    for abc, k in Counter(zip(cards, cards[1:], cards[2:])).items():
        num, den = memo(abc) or st.adjacent_covariance(*abc)
        cov_sum[den] = cov_get(den, 0) + k * num
        a, b, c = abc
        if a != b != c:
            pair = ((a, b), (b, c)) if (a, b) < (b, c) else ((b, c), (a, b))
            touching[pair] = touching_get(pair, 0) + k
    # Mixed (not monochrome) types, listed under each of their labels.
    mixed = [t for t in types if t[0] != t[1]]
    by_label: dict[str, set[tuple[str, str]]] = {}
    for t in mixed:
        for lab in t:
            by_label.setdefault(lab, set()).add(t)
    memo = st._disjoint.get
    for t in mixed:
        kt = types[t]
        for u in by_label[t[0]] | by_label[t[1]]:
            if t <= u:
                # Disjoint pairs of boundaries with types t and u.
                pair = (t, u)
                k = kt * (kt - 1) // 2 if t == u else kt * types[u]
                k -= touching_get(pair, 0)
                if k:
                    num, den = memo(pair) or st.disjoint_covariance(t, u)
                    cov_sum[den] = cov_get(den, 0) + k * num
    (vn, vd), (cn, cd) = _total(var_sum), _total(cov_sum)
    variance = vn * cd + 2 * cn * vd, vd * cd
    if variance[0] < 0:
        raise ArithmeticError(
            f"negative variance {variance[0]}/{variance[1]}; this is a bug"
        )
    return _total(mean_sum), variance


def _target_statistics(target: Deck, stats: PairStatistics | None) -> PairStatistics:
    """`stats` when it was built for `target`, else fresh statistics."""
    if stats is None:
        return PairStatistics(target)
    if stats.target is not target and stats.target != target:
        raise ValueError("stats was built for a different target deck")
    return stats


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
    call grows with the number of distinct types, not with n^2.  The
    sums are kept as integers per denominator, and made `Fraction`s only
    at the end.

    Callers sweeping many source decks against one target can pass the
    target's `PairStatistics` to reuse its memoized terms.
    """
    from fractions import Fraction

    transition_cardinality(d1, d2)
    mean, variance = _moment_sums(d1.cards, _target_statistics(d2, stats))
    return DescentMoments(d1.n, Fraction(*mean), Fraction(*variance))


# ---------------------------------------------------------------------------
# Normal-curve coefficient estimates

_SQRT2 = math.sqrt(2.0)


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def _float_count(count: int, what: str) -> float:
    """`count` as a float, as normal estimates are computed and scored.

    Raises `CapExceededError`, naming `what`, beyond the float range.
    """
    try:
        return float(count)
    except OverflowError:
        raise CapExceededError(
            f"{what} of about 10^{math.log10(count):.0f} exceeds the float "
            f"range (at most {sys.float_info.max:.4g}) of normal estimates"
        ) from None


def normal_coefficient_estimate(
    d: int, moments: DescentMoments, cardinality: int
) -> float:
    """Estimate the degree-`d` coefficient as cardinality times the mass
    a normal with the transition's moments puts on (d-1/2, d+1/2).

    Raises `DegenerateDistributionError` when the variance vanishes; the
    distribution is then a point mass and needs no curve.  Raises
    `CapExceededError` when `cardinality` exceeds the float range.
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
    return _float_count(cardinality, "transition count") * (hi - lo)


def _bound_applies(mean: tuple[int, int], variance: tuple[int, int]) -> bool:
    """`normal_error_bound_applies` for (num, den) int pairs, by
    cross-multiplying the positive denominators."""
    (mn, md), (vn, vd) = mean, variance
    return vn**3 * md**2 > 294**2 * mn**2 * vd**3


def normal_error_bound_applies(moments: DescentMoments) -> bool:
    """Whether the transition is in the regime where the normal estimate
    carries a proven multiplicative error guarantee near the mean.

    The sufficient condition is variance^3 > 294^2 * mean^2, checked
    exactly.  Outside the regime the estimate is still often usable; this
    flag only reports whether the guarantee applies.
    """
    mean, variance = moments.mean, moments.variance
    return _bound_applies(
        (mean.numerator, mean.denominator),
        (variance.numerator, variance.denominator),
    )


def _normal_vector(
    n: int, mean: tuple[int, int], variance: tuple[int, int], cardinality: int
) -> tuple[int, ...] | tuple[float, ...]:
    """The estimated coefficients at degrees 0..n-1 of a transition with
    `cardinality` members and the (num, den) moments `mean` and `variance`.

    A zero variance gives the exact point mass in integers.  Otherwise the
    n + 1 cell edges d - 1/2 take one CDF point each, and degree d gets
    the float cardinality times the difference of its two edges: d + 1/2
    and (d + 1) - 1/2 are one float, so each value is bit for bit
    `normal_coefficient_estimate`'s.
    """
    if variance[0] == 0:
        d, rem = divmod(*mean)
        if rem:
            raise ArithmeticError(
                "deterministic descent count is not an integer; this is a bug"
            )
        return tuple(cardinality if j == d else 0 for j in range(n))
    scale = _float_count(cardinality, "transition count")
    mu = mean[0] / mean[1]
    sigma = math.sqrt(variance[0] / variance[1])
    edges = [_phi((d - 0.5 - mu) / sigma) for d in range(n + 1)]
    return tuple([scale * (hi - lo) for lo, hi in zip(edges, edges[1:])])


def normal_polynomial_estimate(
    d1: Deck, d2: Deck, stats: PairStatistics | None = None
) -> tuple[DescentMoments, tuple[int, ...] | tuple[float, ...]]:
    """All degrees at once: moments plus the estimated coefficient vector,
    equal at each degree to `normal_coefficient_estimate`.

    When the descent count is deterministic the vector is the exact point
    mass, every transition at the one degree, in integers.  `stats` is
    used as by `descent_moments`.  Raises `CapExceededError`, before any
    moment is computed, when the transition count exceeds the float range.
    """
    from fractions import Fraction

    m = transition_cardinality(d1, d2)
    _float_count(m, "transition count")
    mean, variance = _moment_sums(d1.cards, _target_statistics(d2, stats))
    moments = DescentMoments(d1.n, Fraction(*mean), Fraction(*variance))
    return moments, _normal_vector(d1.n, mean, variance, m)
