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
descent counts.  For repeated-label decks with few enough arrangements it
is summed exactly.
Beyond that, sampling arrangements uniformly gives the estimator

    Y = (1/k) * sum over k sampled arrangements of max(0, 1 - N * P(X))

which is unbiased and concentrates at rate 1/sqrt(k): the chance that
|Y - TVD| exceeds alpha/sqrt(k) is below 4/alpha^4.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Sequence
from functools import partial, reduce
from typing import TYPE_CHECKING, NamedTuple

from .deck import (
    Deck,
    _capped_cardinality,
    _frozen,
    arrangement_count,
    deck_text,
    enumerate_arrangements,
    parse_deck,
    sample_uniform_rearrangement,
    transition_cardinality,
)
from .errors import CapExceededError
from .rng import PURPOSE_TVD, PermutationStream

if TYPE_CHECKING:
    from fractions import Fraction
    from pathlib import Path

    from .approx import PairStatistics
    from .descentpoly import DescentHistogram

# Deviation bounds for the sampling estimator: (alpha, P(exceed) bound).
ALPHA_TABLE: tuple[tuple[float, float], ...] = (
    (math.sqrt(10.0), 0.04),
    (10.0 * math.sqrt(10.0), 4e-6),
)

FIXED_SOURCE = "fixed-source"
FIXED_TARGET = "fixed-target"


class Scenario:
    """A named mixing question: one anchored deck plus which side it
    anchors; immutable, compared and hashed by its fields."""

    name: str
    kind: str
    anchor: Deck

    def __init__(self, name: str, kind: str, anchor: Deck) -> None:
        if kind not in (FIXED_SOURCE, FIXED_TARGET):
            raise ValueError(f"unknown scenario kind {kind!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "anchor", anchor)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.kind, self.anchor) == (
            other.name,
            other.kind,
            other.anchor,
        )

    def __hash__(self) -> int:
        return hash((self.name, self.kind, self.anchor))

    def __repr__(self) -> str:
        return (
            f"Scenario(name={self.name!r}, kind={self.kind!r}, "
            f"anchor={self.anchor!r})"
        )

    __setattr__ = __delattr__ = _frozen

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


def distinct_scenario(n: int) -> Scenario:
    """The fixed-source scenario of the `n` distinct cards 1..n."""
    if n < 1:
        raise ValueError("need at least one card")
    return Scenario(f"bd:{n}", FIXED_SOURCE, Deck(tuple(map(str, range(1, n + 1)))))


def bayer_diaconis_tvd(n: int, shuffles: int) -> Fraction:
    """Exact distance from uniform for `n` distinct cards after
    `shuffles` riffles, via the closed form over descent counts."""
    return exact_tvd_curve(distinct_scenario(n), [riffles_to_packets(shuffles)])[0]


def _gaps(
    coefficients: Sequence, weighted: Sequence[tuple[tuple[int, ...], int]], count: int
) -> list:
    """a^n - N * sum_d c_d w_d, for one of `count` = N arrangements, at
    each `shuffle_weights` pair (w, a^n) of `weighted`: the arrangement's
    share 1/N - P(a) of the distance times N * a^n, exactly."""
    return [
        denom - count * sum(map(operator.mul, coefficients, weights))
        for weights, denom in weighted
    ]


def exact_tvd_curve(
    s: Scenario,
    packets: Sequence[int],
    arrangement_cap: int = 10**6,
    transition_cap: int = 10**8,
) -> list[Fraction]:
    """Sum the distance exactly over every arrangement, at each packet
    count in `packets`: the `Fraction`s of the pairs of `_exact_excess`,
    which documents the routes and caps."""
    from fractions import Fraction

    return [
        Fraction(*pair)
        for pair in _exact_excess(s, packets, arrangement_cap, transition_cap)
    ]


def _exact_excess(
    s: Scenario,
    packets: Sequence[int],
    arrangement_cap: int = 10**6,
    transition_cap: int = 10**8,
) -> list[tuple[int, int]]:
    """The exact distance from uniform at each packet count in `packets`,
    as an unreduced (num, den) int pair: the summed excess of uniform
    over the shuffle, times N * a^n, and N * a^n itself.  Its true
    division is the correctly rounded float of the distance.

    The deck alone picks the route: distinct cards take the closed form,
    other block decks (each label's cards together) one DP over all
    counterparts (`blockfamily.family_rows`), other decks of up to
    `_SWEEP_MAX_N` cards one permutation sweep, and larger ones one
    `exact_descent_polynomial` per arrangement, each found once for all
    packet counts.  Only the sweep loads numpy.  Unless the cards are
    distinct, raises `CapExceededError` when the arrangement count
    exceeds `arrangement_cap`; when the deck is not a block deck, also
    when the transition set exceeds `transition_cap`, since the sweep and
    the per-arrangement route enumerate it.  The caps pick no route.
    """
    from .shuffle import eulerian_row, shuffle_weights

    n = s.anchor.n
    weighted = [shuffle_weights(n, a) for a in packets]
    count = s.arrangements
    role = "source" if s.kind == FIXED_SOURCE else "target"
    # Arrangements sharing a coefficient vector share their terms, so each
    # distinct vector is scored once and weighted by how often it occurs.
    if len(s.anchor.counts) == n:
        # The permutations with d descents share the unit vector at degree d.
        unit = [(0,) * d + (1,) + (0,) * (n - d - 1) for d in range(n)]
        rows = Counter(dict(zip(unit, eulerian_row(n))))
    else:
        from .blockfamily import family_rows, is_block

        if count > arrangement_cap:
            raise CapExceededError(
                f"scenario has {count} arrangements, above the cap of {arrangement_cap}"
            )
        if is_block(s.anchor):
            rows = family_rows(s.anchor, role)
        else:
            from .descentpoly import _SWEEP_MAX_N, descent_polynomial_family

            # Every arrangement's transition set has the anchor's size.
            _capped_cardinality(s.anchor, s.anchor, transition_cap)
            if n <= _SWEEP_MAX_N:
                family = descent_polynomial_family(s.anchor, role=role)
                if len(family.codes) != count:
                    raise ArithmeticError(
                        "sweep row count disagrees with arrangement count; this is a bug"
                    )
                rows = Counter(map(tuple, family.counts.tolist()))
            else:
                rows = Counter(
                    _exact_coefficients(s, c, transition_cap)
                    for c in enumerate_arrangements(s.anchor, cap=arrangement_cap)
                )
    excess = [0] * len(weighted)
    for row, times in rows.items():
        for i, gap in enumerate(_gaps(row, weighted, count)):
            if gap > 0:
                excess[i] += times * gap
    return [(e, count * denom) for e, (_, denom) in zip(excess, weighted)]


# ---------------------------------------------------------------------------
# Sampling estimator


class TvdEstimate(NamedTuple):
    """Result of the sampling estimator.

    `alpha_bounds` lists (alpha, halfwidth, chance) rows: the estimate is
    within `halfwidth` of the true distance except with the stated chance.
    `unproven`, set by the normal backend only, counts the distinct
    sampled arrangements whose normal curve lies outside the regime of
    `normal_error_bound_applies`.  `unfitted`, set by the histogram
    backend when it extrapolates over an automatic window, counts the
    distinct sampled arrangements whose histogram was too sparse for the
    tail fit and kept its unbiased, unpatched estimates.  `uninformed`,
    set by the histogram backend, counts the distinct sampled
    arrangements whose estimated coefficients are all 0 below degree `a`:
    their term is 1 by construction, whatever their true probability.
    """

    scenario: str
    method: str
    a: int
    value: float
    k: int
    seed: int
    alpha_bounds: tuple[tuple[float, float, float], ...]
    hist_samples: int | None = None
    unproven: int | None = None
    unfitted: int | None = None
    uninformed: int | None = None


def _alpha_bounds(k: int) -> tuple[tuple[float, float, float], ...]:
    return tuple(
        (alpha, alpha / math.sqrt(k), bound) for alpha, bound in ALPHA_TABLE
    )


def _deck_fingerprint(deck: Deck) -> int:
    import hashlib

    digest = hashlib.sha256(deck_text(deck).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _exact_coefficients(
    s: Scenario, counterpart: Deck, transition_cap: int
) -> tuple[int, ...]:
    """Exact transition polynomial: the block-deck walk when the pair has
    one (`block_row`), else enumeration, refused above `transition_cap`."""
    from .blockfamily import block_row

    pair = s.pair(counterpart)
    row = block_row(*pair)
    if row is not None:
        return row
    from .descentpoly import exact_descent_polynomial

    return exact_descent_polynomial(*pair, cap=transition_cap).coefficients


def _histograms(
    s: Scenario,
    counterparts: list[Deck],
    seed: int,
    hist_samples: int,
    cache_dir: str | Path | None,
) -> dict[Deck, DescentHistogram]:
    """The sampled histogram of each distinct counterpart, seeded by the
    counterpart itself; drawn by one `descent_histograms` call, in
    first-appearance order."""
    from .workers import descent_histograms

    distinct = list(dict.fromkeys(counterparts))
    jobs = [
        (*s.pair(c), (_deck_fingerprint(c) ^ seed) & ((1 << 63) - 1))
        for c in distinct
    ]
    return dict(zip(distinct, descent_histograms(jobs, hist_samples, cache_dir)))


def _histogram_coefficients(
    s: Scenario,
    counterpart: Deck,
    histograms: dict[Deck, DescentHistogram],
    extrapolate: bool,
    fit_degree: int,
    min_count: int,
    window: tuple[int, int] | None,
    unfitted: list[tuple[str, ...]] | None,
) -> tuple[Fraction, ...] | tuple[float, ...]:
    """Coefficient estimates from the counterpart's sampled histogram in
    `histograms`; with `extrapolate`, degrees outside the fit window with
    fewer than `min_count` samples take the tail fit.  When the window is
    automatic and the histogram too sparse for a fit, the estimates stay
    unpatched and the cards are appended to `unfitted`.  A fitted vector
    takes the exact c_0 instead of any estimate."""
    hist = histograms[counterpart]
    estimates = hist.coefficient_estimates()
    if not extrapolate:
        return estimates
    from .tailfit import tail_extrapolate

    try:
        fit = tail_extrapolate(
            hist, degree=fit_degree, min_count=min_count, window=window
        )
    except CapExceededError:
        if window is not None:
            raise
        unfitted.append(counterpart.cards)
        return estimates
    lo, hi = fit.window
    # The identity is the only permutation without descents, so c_0 is
    # known exactly: 1 when the decks are equal, 0 otherwise.
    return (float(hist.source == hist.target),) + tuple(
        float(e) if lo <= d <= hi or hist.counts[d] >= min_count else fit.predict(d)
        for d, e in enumerate(estimates[1:], start=1)
    )


def _normal_coefficients(
    s: Scenario,
    counterpart: Deck,
    stats: PairStatistics | None,
    cardinality: int,
    unproven: list[tuple[str, ...]],
) -> tuple[int, ...] | tuple[float, ...]:
    """`normal_polynomial_estimate`'s vector for one pair, from the int
    moments of `approx._moment_sums`.  `stats` is the target's, when every
    counterpart shares one target, and `cardinality` every pair's
    transition count.  The cards of a counterpart whose curve has no
    proven error bound are appended to `unproven`."""
    from .approx import PairStatistics, _bound_applies, _moment_sums, _normal_vector

    source, target = s.pair(counterpart)
    mean, variance = _moment_sums(source.cards, stats or PairStatistics(target))
    if variance[0] and not _bound_applies(mean, variance):
        unproven.append(counterpart.cards)
    return _normal_vector(source.n, mean, variance, cardinality)


def _scaled_weights(
    weighted: list[tuple[tuple[int, ...], int]],
) -> list[tuple[float, ...]]:
    """Each `shuffle_weights` pair (w, a^n) of `weighted` as the floats
    w_d / a^n of its nonzero weights.  These are the degrees below a, as
    the weight of degree d vanishes from d = a on, and a zero term would
    leave a float sum as it is."""
    return [tuple([w / denom for w in weights if w]) for weights, denom in weighted]


def _terms(
    coefficients: Sequence,
    weighted: list[tuple[tuple[int, ...], int]],
    scaled: list[tuple[float, ...]],
    count: int,
) -> list[float]:
    """One arrangement's share max(0, 1 - N * P) of the distance at each
    `shuffle_weights` pair of `weighted`.  Vectors of ints or `Fraction`s
    are scored exactly by `_gaps`, then rounded once by the true division
    gap / a^n: of ints, which Python rounds correctly, or of a `Fraction`,
    whose `float` is that same int division.  Float vectors are summed in
    degree order against `scaled`, the `_scaled_weights` of `weighted`, so
    each weight is taken over a^n once per curve, not once per pair."""
    if not isinstance(coefficients[0], float):
        return [
            float(gap / denom) if gap > 0 else 0.0
            for gap, (_, denom) in zip(_gaps(coefficients, weighted, count), weighted)
        ]
    # A left fold from 0.0 adds the products in degree order, as a loop
    # would; `sum` may not, since Python 3.12 compensates float sums.
    dot = partial(reduce, operator.add)
    return [
        max(0.0, 1 - count * dot(map(operator.mul, coefficients, w), 0.0))
        for w in scaled
    ]


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
) -> list[TvdEstimate]:
    """Estimate the distance from uniform by sampling `k` arrangements,
    at each packet count in `packets`.

    The estimator averages max(0, 1 - N * P(arrangement)) over uniform
    arrangement draws, where P comes from the coefficient vector the
    chosen backend gives each arrangement:

    - "exact-oracle": exact transition polynomials (`exact_descent_polynomial`,
      whose cap refuses only enumerated pairs);
    - "mc-histogram": sampled histograms of size `hist_samples`, with an
      optional log-scale tail fit when `extrapolate` is set; with an
      automatic fit window, each estimate's `unfitted` counts the
      distinct arrangements too sparse to fit, and its `uninformed` the
      distinct arrangements with no estimated coefficient below its `a`;
    - "normal-approx": moment-matched normal curves; each estimate's
      `unproven` counts the distinct arrangements outside the curve's
      proven error regime.

    Arrangements are drawn once for all packet counts, all `k` from
    `PermutationStream(seed, PURPOSE_TVD)`, and each value is the correctly
    rounded `math.fsum` of the `k` terms over `k`, so it depends only on
    the arguments.  Repeated arrangements reuse their first terms, and
    histogram seeds are derived from the arrangement itself, so reuse is
    consistent.  The histogram backend draws all `k` arrangements first,
    then the histograms of the distinct ones in one `descent_histograms`
    call, which may spread them over worker processes; the values do not
    depend on how many.
    """
    if k < 1:
        raise ValueError("sample count must be positive")
    unproven: list[tuple[str, ...]] | None = None
    unfitted: list[tuple[str, ...]] | None = None
    uninformed: list[int] | None = None
    # Each branch loads the modules its backend runs before the first
    # arrangement is drawn: compiled after the draws, they raise peak RSS.
    # The histogram sampler is the exception: `descent_histograms` loads
    # `tables`, `codes` and numpy only when it has a block to draw, so a
    # run whose histograms are all cached loads none of them.
    if backend == "exact-oracle":
        from .blockfamily import is_block

        # Every pair holds the anchor, so a block anchor gives every pair
        # a walk and leaves nothing to enumerate.
        if not is_block(s.anchor):
            from . import descentpoly  # noqa: F401

        method = "mc-exact-backend"
        coefficients = partial(_exact_coefficients, transition_cap=transition_cap)
    elif backend == "mc-histogram":
        from . import cache, descentpoly, workers  # noqa: F401

        method = backend
        uninformed = [0] * len(packets)
        if extrapolate and window is None:
            unfitted = []
        # Filled once every arrangement is drawn.
        histograms: dict[Deck, DescentHistogram] = {}
        coefficients = partial(
            _histogram_coefficients,
            histograms=histograms,
            extrapolate=extrapolate,
            fit_degree=fit_degree,
            min_count=min_count,
            window=window,
            unfitted=unfitted,
        )
    elif backend == "normal-approx":
        from .approx import PairStatistics, _float_count

        method = "normal"
        unproven = []
        # Counts beyond the float range are refused before any draw: every
        # pair's transition count, and, when a pair can have a float
        # vector (more than one transition), N, which scores it.
        m = transition_cardinality(s.anchor, s.anchor)
        _float_count(m, "transition count")
        if m > 1:
            _float_count(s.arrangements, "arrangement count")
        coefficients = partial(
            _normal_coefficients,
            stats=PairStatistics(s.anchor) if s.kind == FIXED_TARGET else None,
            cardinality=m,
            unproven=unproven,
        )
    else:
        raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS}")
    from .shuffle import shuffle_weights

    weighted = [shuffle_weights(s.anchor.n, a) for a in packets]
    scaled = _scaled_weights(weighted)
    count = s.arrangements
    gen = PermutationStream(seed, PURPOSE_TVD)
    counterparts = (sample_uniform_rearrangement(s.anchor, gen) for _ in range(k))
    if backend == "mc-histogram":
        counterparts = list(counterparts)
        histograms.update(_histograms(s, counterparts, seed, hist_samples, cache_dir))
    memo: dict[tuple[str, ...], list[float]] = {}
    draws = []
    for counterpart in counterparts:
        terms = memo.get(counterpart.cards)
        if terms is None:
            coeffs = coefficients(s, counterpart)
            terms = memo[counterpart.cards] = _terms(coeffs, weighted, scaled, count)
            if uninformed is not None:
                for e, a in enumerate(packets):
                    uninformed[e] += not any(coeffs[:a])
        draws.append(terms)
    return [
        TvdEstimate(
            scenario=s.name,
            method=method,
            a=a,
            value=math.fsum(column) / k,
            k=k,
            seed=seed,
            alpha_bounds=_alpha_bounds(k),
            hist_samples=hist_samples if backend == "mc-histogram" else None,
            unproven=None if unproven is None else len(unproven),
            unfitted=None if unfitted is None else len(unfitted),
            uninformed=None if uninformed is None else uninformed[e],
        )
        for e, (a, column) in enumerate(zip(packets, zip(*draws)))
    ]
