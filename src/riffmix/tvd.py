"""Distance from uniform after shuffling, for full and partial orderings.

The quantity of interest is the total variation distance between the
deck distribution after an `a`-way shuffle and the uniform distribution
on all arrangements.  Only terms where uniform exceeds the shuffle
probability contribute:

    TVD = sum over arrangements X of max(0, 1/N - P(X))

where N is the number of distinct arrangements.  A scenario fixes one
side of the transition: either the starting order is known and the
distribution is over results (fixed source), or only the chance of
reaching one distinguished order matters (fixed target, by symmetry of
the sum over the other side).

For decks of distinct cards the sum collapses to a closed form over
descent counts.  For small repeated-label decks it is summed exactly.
Beyond that, sampling arrangements uniformly gives the estimator

    Y = (1/k) * sum over k sampled arrangements of max(0, 1 - N * P(X))

which is unbiased and concentrates at rate 1/sqrt(k): the chance that
|Y - TVD| exceeds alpha/sqrt(k) is below 4/alpha^4.
"""

from __future__ import annotations

import hashlib
import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from pathlib import Path

from .approx import descent_moments, normal_coefficient_estimate, tail_extrapolate
from .deck import (
    Deck,
    arrangement_count,
    deck_text,
    enumerate_arrangements,
    parse_deck,
    sample_uniform_rearrangement,
    transition_cardinality,
)
from .descentpoly import (
    descent_polynomial_family,
    eulerian_row,
    exact_descent_polynomial,
    mc_descent_histogram,
    probability_from_coefficients,
    shuffle_weights,
)
from .errors import CapExceededError
from .rng import PURPOSE_TVD, STREAMS, KahanSum, quotas, substream

# Deviation bounds for the sampling estimator: (alpha, P(exceed) bound).
ALPHA_TABLE: tuple[tuple[float, float], ...] = (
    (math.sqrt(10.0), 0.04),
    (10.0 * math.sqrt(10.0), 4e-6),
)

FIXED_SOURCE = "fixed-source"
FIXED_TARGET = "fixed-target"


@dataclass(frozen=True)
class Scenario:
    """A named mixing question: one anchored deck plus which side it anchors."""

    name: str
    kind: str
    anchor: Deck

    def __post_init__(self) -> None:
        if self.kind not in (FIXED_SOURCE, FIXED_TARGET):
            raise ValueError(f"unknown scenario kind {self.kind!r}")

    @property
    def arrangements(self) -> int:
        return arrangement_count(self.anchor)

    def pair(self, counterpart: Deck) -> tuple[Deck, Deck]:
        """(source, target) for one sampled counterpart arrangement."""
        if self.kind == FIXED_SOURCE:
            return self.anchor, counterpart
        return counterpart, self.anchor


_REGISTRY: dict[str, tuple[str, str]] = {
    "BayerDiaconis": (",".join(str(i) for i in range(1, 53)), FIXED_SOURCE),
    "Blackjack1": (",".join(f"{v}^4" for v in range(1, 14)), FIXED_SOURCE),
    "Blackjack2": (
        "(" + ",".join(str(v) for v in range(1, 14)) + ")^4",
        FIXED_SOURCE,
    ),
    "Bridge1": ("N^13,E^13,S^13,W^13", FIXED_TARGET),
    "Bridge2": ("(N,E,S,W)^13", FIXED_TARGET),
    "RedBlack1": ("R^26,B^26", FIXED_SOURCE),
    "RedBlack2": ("(R,B)^26", FIXED_SOURCE),
    "AliceBob1": ("R^26,B^26", FIXED_TARGET),
    "AliceBob2": ("(R,B)^26", FIXED_TARGET),
}


def scenario_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def scenario(name: str) -> Scenario:
    """Look up a named scenario (case-insensitive)."""
    for key, (expr, kind) in _REGISTRY.items():
        if key.lower() == name.lower():
            return Scenario(key, kind, parse_deck(expr))
    raise KeyError(
        f"unknown scenario {name!r}; known: {', '.join(_REGISTRY)}"
    )


def custom_scenario(deck: Deck | str, kind: str, name: str | None = None) -> Scenario:
    if isinstance(deck, str):
        deck = parse_deck(deck)
    # Deck expressions contain commas; keep generated names CSV-safe.
    default = "custom-" + deck_text(deck).replace(",", "+")
    return Scenario(name or default, kind, deck)


# ---------------------------------------------------------------------------
# Exact routes


def riffles_to_packets(shuffles: int) -> int:
    """Packet count equivalent to `shuffles` successive riffles."""
    if shuffles < 0:
        raise ValueError("shuffle count must be nonnegative")
    return 2**shuffles


def bayer_diaconis_tvd(n: int, shuffles: int) -> Fraction:
    """Exact distance from uniform for `n` distinct cards after
    `shuffles` riffles, via the closed form over descent counts."""
    if n < 1:
        raise ValueError("need at least one card")
    weights, denom = shuffle_weights(n, riffles_to_packets(shuffles))
    fact = math.factorial(n)
    excess = sum(
        c * max(0, denom - fact * w) for c, w in zip(eulerian_row(n), weights)
    )
    return Fraction(excess, fact * denom)


def exact_tvd_curve(
    s: Scenario,
    packets: Sequence[int],
    arrangement_cap: int = 10**6,
    transition_cap: int = 10**8,
) -> list[Fraction]:
    """Sum the distance exactly over every arrangement, at each packet
    count in `packets`.

    Uses a single permutation sweep when the anchor is small enough,
    falling back to per-arrangement enumeration; either way each
    arrangement's coefficients are found once for all packet counts.
    Raises `CapExceededError` when the arrangement count exceeds
    `arrangement_cap` or a transition set exceeds `transition_cap`.
    """
    n = s.anchor.n
    weighted = [shuffle_weights(n, a) for a in packets]
    count = s.arrangements
    if count > arrangement_cap:
        raise CapExceededError(
            f"scenario has {count} arrangements, above the cap of {arrangement_cap}"
        )
    role = "source" if s.kind == FIXED_SOURCE else "target"
    rows: Iterable[Sequence[int]]
    if n <= 10 and math.factorial(n) <= transition_cap:
        family = descent_polynomial_family(s.anchor, role=role, cap=transition_cap)
        if len(family.codes) != count:
            raise ArithmeticError(
                "sweep row count disagrees with arrangement count; this is a bug"
            )
        rows = family.counts.tolist()
    else:
        rows = (
            exact_descent_polynomial(*s.pair(c), cap=transition_cap).coefficients
            for c in enumerate_arrangements(s.anchor, cap=arrangement_cap)
        )
    # 1/N - num/a^n is (a^n - N*num) / (N*a^n): sum the integer numerators.
    excess = [0] * len(weighted)
    for row in rows:
        for i, (weights, denom) in enumerate(weighted):
            gap = denom - count * sum(map(operator.mul, row, weights))
            if gap > 0:
                excess[i] += gap
    return [
        Fraction(e, count * denom) for e, (_, denom) in zip(excess, weighted)
    ]


def exact_tvd_small(
    s: Scenario,
    a: int,
    arrangement_cap: int = 10**6,
    transition_cap: int = 10**8,
) -> Fraction:
    """`exact_tvd_curve` at the single packet count `a`."""
    return exact_tvd_curve(s, [a], arrangement_cap, transition_cap)[0]


# ---------------------------------------------------------------------------
# Sampling estimator


@dataclass(frozen=True)
class TvdEstimate:
    """Result of the sampling estimator.

    `alpha_bounds` lists (alpha, halfwidth, chance) rows: the estimate is
    within `halfwidth` of the true distance except with the stated chance.
    """

    scenario: str
    method: str
    a: int
    value: float
    k: int
    seed: int
    alpha_bounds: tuple[tuple[float, float, float], ...]
    hist_samples: int | None = None


def _alpha_bounds(k: int) -> tuple[tuple[float, float, float], ...]:
    return tuple(
        (alpha, alpha / math.sqrt(k), bound) for alpha, bound in ALPHA_TABLE
    )


def _deck_fingerprint(deck: Deck) -> int:
    digest = hashlib.sha256(deck_text(deck).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _exact_coefficients(
    s: Scenario, counterpart: Deck, transition_cap: int
) -> tuple[int, ...]:
    """Exact transition polynomial (small decks only)."""
    d1, d2 = s.pair(counterpart)
    return exact_descent_polynomial(d1, d2, cap=transition_cap).coefficients


def _histogram_coefficients(
    s: Scenario,
    counterpart: Deck,
    seed: int,
    hist_samples: int,
    extrapolate: bool,
    fit_degree: int,
    min_count: int,
    window: tuple[int, int] | None,
    cache_dir: str | Path | None,
    threads: int,
) -> tuple[Fraction, ...] | tuple[float, ...]:
    """Coefficient estimates from a sampled histogram, seeded by the
    arrangement itself; with `extrapolate`, degrees outside the fit
    window with fewer than `min_count` samples take the tail fit."""
    d1, d2 = s.pair(counterpart)
    hist_seed = (_deck_fingerprint(counterpart) ^ seed) & ((1 << 63) - 1)
    hist = mc_descent_histogram(
        d1,
        d2,
        samples=hist_samples,
        seed=hist_seed,
        cache_dir=cache_dir,
        threads=threads,
    )
    estimates = hist.coefficient_estimates()
    if not extrapolate:
        return estimates
    fit = tail_extrapolate(
        hist, degree=fit_degree, min_count=min_count, window=window
    )
    lo, hi = fit.window
    return tuple(
        float(e) if lo <= d <= hi or hist.counts[d] >= min_count else fit.predict(d)
        for d, e in enumerate(estimates)
    )


def _normal_coefficients(
    s: Scenario, counterpart: Deck
) -> tuple[int, ...] | tuple[float, ...]:
    """Moment-matched normal curve, or the exact point mass when the
    descent count is deterministic."""
    d1, d2 = s.pair(counterpart)
    moments = descent_moments(d1, d2)
    m = transition_cardinality(d1, d2)
    if moments.variance == 0:
        d = int(moments.mean)
        if moments.mean != d:
            raise ArithmeticError(
                "deterministic descent count is not an integer; this is a bug"
            )
        return tuple(m if j == d else 0 for j in range(d1.n))
    return tuple(normal_coefficient_estimate(j, moments, m) for j in range(d1.n))


def _term(arrangements: int, p: Fraction | float) -> float:
    """One arrangement's share max(0, 1 - N * P) of the distance."""
    val = 1 - arrangements * p
    return float(val) if val > 0 else 0.0


def _probabilities(
    coefficients: Sequence, packets: Sequence[int], ratios: list[list[float]]
) -> list[Fraction] | list[float]:
    """P(a) at each packet count.  Vectors of ints or `Fraction`s are
    evaluated exactly; float vectors are summed in degree order against
    `ratios`, the weights over a^n of each packet count."""
    if not isinstance(coefficients[0], float):
        return [probability_from_coefficients(coefficients, a) for a in packets]
    out = []
    for row in ratios:
        p = 0.0
        for c, r in zip(coefficients, row):
            p += c * r
        out.append(p)
    return out


BACKENDS = ("exact-oracle", "mc-histogram", "normal-approx")


def mc_tvd_curve(
    s: Scenario,
    packets: Sequence[int],
    k: int,
    seed: int,
    backend: str = "exact-oracle",
    transition_cap: int = 10**8,
    hist_samples: int = 10**6,
    extrapolate: bool = False,
    fit_degree: int = 4,
    min_count: int = 400,
    window: tuple[int, int] | None = None,
    cache_dir: str | Path | None = None,
    threads: int = 1,
) -> list[TvdEstimate]:
    """Estimate the distance from uniform by sampling `k` arrangements,
    at each packet count in `packets`.

    The estimator averages max(0, 1 - N * P(arrangement)) over uniform
    arrangement draws, where P comes from the coefficient vector the
    chosen backend gives each arrangement:

    - "exact-oracle": exact transition polynomials (small decks only);
    - "mc-histogram": sampled histograms of size `hist_samples`, with an
      optional log-scale tail fit when `extrapolate` is set;
    - "normal-approx": moment-matched normal curves.

    Arrangements are drawn once for all packet counts.  Sampling is split
    over fixed logical streams and merged in stream order, so the value
    depends only on the arguments; `threads` only splits the streams of
    each histogram.  Repeated arrangements reuse their first terms, and
    histogram seeds are derived from the arrangement itself, so reuse is
    consistent.
    """
    if k < 1:
        raise ValueError("sample count must be positive")
    if backend == "exact-oracle":
        method = "mc-exact-backend"
        coefficients = partial(_exact_coefficients, transition_cap=transition_cap)
    elif backend == "mc-histogram":
        method = backend
        coefficients = partial(
            _histogram_coefficients,
            seed=seed,
            hist_samples=hist_samples,
            extrapolate=extrapolate,
            fit_degree=fit_degree,
            min_count=min_count,
            window=window,
            cache_dir=cache_dir,
            threads=threads,
        )
    elif backend == "normal-approx":
        method = "normal"
        coefficients = _normal_coefficients
    else:
        raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS}")
    ratios = [
        [w / denom for w in weights]
        for weights, denom in (shuffle_weights(s.anchor.n, a) for a in packets)
    ]
    count = s.arrangements
    memo: dict[tuple[int, ...], list[float]] = {}
    totals = [KahanSum() for _ in packets]
    for idx, quota in enumerate(quotas(k, STREAMS)):
        parts = [KahanSum() for _ in packets]
        if quota:
            gen = substream(seed, PURPOSE_TVD, idx)
        for _ in range(quota):
            counterpart = sample_uniform_rearrangement(s.anchor, gen)
            terms = memo.get(counterpart.cards)
            if terms is None:
                probs = _probabilities(coefficients(s, counterpart), packets, ratios)
                terms = memo[counterpart.cards] = [_term(count, p) for p in probs]
            for part, val in zip(parts, terms):
                part.add(val)
        for total, part in zip(totals, parts):
            total.add(part.total)
    return [
        TvdEstimate(
            scenario=s.name,
            method=method,
            a=a,
            value=total.total / k,
            k=k,
            seed=seed,
            alpha_bounds=_alpha_bounds(k),
            hist_samples=hist_samples if backend == "mc-histogram" else None,
        )
        for a, total in zip(packets, totals)
    ]


def mc_tvd(
    s: Scenario,
    a: int,
    k: int,
    seed: int,
    backend: str = "exact-oracle",
    transition_cap: int = 10**8,
    hist_samples: int = 10**6,
    extrapolate: bool = False,
    fit_degree: int = 4,
    min_count: int = 400,
    window: tuple[int, int] | None = None,
    cache_dir: str | Path | None = None,
    threads: int = 1,
) -> TvdEstimate:
    """`mc_tvd_curve` at the single packet count `a`."""
    return mc_tvd_curve(
        s, [a], k, seed, backend, transition_cap, hist_samples, extrapolate,
        fit_degree, min_count, window, cache_dir, threads,
    )[0]
