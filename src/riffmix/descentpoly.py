"""Descent polynomials of deck rearrangements.

For decks `d1`, `d2` over the same cards, classify the permutations
carrying `d1` onto `d2` by descent count.  The coefficient vector
`c[d] = #permutations with d descents` determines the chance that an
`a`-way shuffle turns `d1` into `d2` for every `a` at once:

    P(a) = sum_d c[d] * w[d] / a^n,   w = shuffle_weights(n, a)

Exact coefficients come from a walk over the block deck when either deck
is one (`blockfamily.block_row`), and otherwise from exhaustive
enumeration (vectorized when the transition set is large); estimated
coefficients come from uniform sampling of the transition set, with
per-degree reliability gauges.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .deck import (
    Deck,
    _capped_cardinality,
    _transition_images,
    deck_text,
    transition_cardinality,
)
from .errors import CapExceededError, InconsistentProbabilitiesError
from .rng import PURPOSE_HISTOGRAM, substream
from .shuffle import eulerian_row, shuffle_weights

if TYPE_CHECKING:
    import numpy as np

    from .cache import HistogramKey

# Transition sets with no block deck are enumerated in pure Python at or
# below this size, and by the vectorized engine above it.
_PLAIN_ENUM_MAX = 200
# Per-label permutation tables are materialized up to this multiplicity
# when enumerating, and up to the second one when sampling; larger labels
# are sampled as insertion codes instead, one uniform code per source slot.
_TABLE_MAX_MULT = 9
_SAMPLE_TABLE_MAX_MULT = 7
# Permutation sweeps over all n! position maps are allowed up to this n.
_SWEEP_MAX_N = 10
_CHUNK = 1 << 19
# A histogram is drawn in blocks of this many samples, block `b` from its
# own substream; the last block holds the remainder.
_BLOCK_SAMPLES = 1 << 16
# With a cache directory, partial histogram counts are stored after every
# this many blocks, so an interrupted run resumes from there.  Each store
# also scores a partly filled batch, so a histogram stores only a few times.
_CHECKPOINT_BLOCKS = 4
# Enumerated descent counts are tallied in 64-bit integers.
_COUNT_MAX = 2**63 - 1
# Version of the draw order of `mc_descent_histogram`, part of its cache
# key.  Bump it with any change that changes sampled counts.
SAMPLER_VERSION = 5


# ---------------------------------------------------------------------------
# Result types


class DescentPolynomial(NamedTuple):
    """Exact descent-count classification of a transition set."""

    source: Deck
    target: Deck
    coefficients: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.coefficients)

    @property
    def cardinality(self) -> int:
        return sum(self.coefficients)

    def probability(self, a: int) -> Fraction:
        """Exact chance that an `a`-way shuffle carries source onto target."""
        return probability_from_coefficients(self.coefficients, a)


class DescentHistogram(NamedTuple):
    """Sampled descent counts over a transition set.

    `counts[d]` is the number of sampled permutations with `d` descents;
    `samples` of them were drawn uniformly using `seed`.
    """

    source: Deck
    target: Deck
    counts: tuple[int, ...]
    samples: int
    seed: int

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def cardinality(self) -> int:
        return transition_cardinality(self.source, self.target)

    def coefficient_estimates(self) -> tuple[Fraction, ...]:
        """Unbiased coefficient estimates: cardinality * counts[d] / samples."""
        m = self.cardinality
        return tuple(Fraction(m * c, self.samples) for c in self.counts)

    def relative_gauge(self, d: int) -> float | None:
        """Rough relative error scale 1/sqrt(counts[d]); None when empty."""
        c = self.counts[d]
        return None if c == 0 else 1.0 / math.sqrt(c)


def probability_from_coefficients(
    coefficients: tuple[int, ...] | list, a: int
) -> Fraction:
    """Evaluate the shuffle probability formula at packet count `a`."""
    weights, denom = shuffle_weights(len(coefficients), a)
    return Fraction(sum(c * w for c, w in zip(coefficients, weights) if c), denom)


# ---------------------------------------------------------------------------
# Exact enumeration, single pair


def _counts_plain(d1: Deck, d2: Deck) -> list[int]:
    """Stream the transition set in pure Python and tally descents."""
    counts = [0] * d1.n
    for images in _transition_images(d1, d2):
        d = 0
        prev = images[0]
        for j in images[1:]:
            if prev > j:
                d += 1
            prev = j
        counts[d] += 1
    return counts


def _counts_vectorized(d1: Deck, d2: Deck) -> list[int]:
    """Tally descents over a large transition set in batches.

    Unit rows that `_LabelTables.descents` cannot tell apart are merged
    first.  Members are then indexed in mixed radix over the distinct
    rows per unit (the last unit varies fastest), each weighted by the
    number of members it stands for.
    """
    import numpy as np

    from .tables import _LabelTables

    n = d1.n
    tables = _LabelTables(d1, d2, _TABLE_MAX_MULT)
    radix = [(r, *groups) for r, groups in reversed(tables.distinct_rows().items())]
    total = math.prod(len(first) for _, first, _ in radix)
    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, total, _CHUNK):
        rem = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        rows: list = [None] * tables.width
        weight: int | np.ndarray = 1
        for r, first, mult in radix:
            pick = rem % len(first)
            rem = rem // len(first)
            if mult is None:
                rows[r] = pick
            else:
                rows[r] = first[pick]
                weight = weight * mult[pick]
        np.add.at(counts, tables.descents(rows), weight)
    return [int(c) for c in counts]


@lru_cache(maxsize=4096)
def _exact_polynomial_cached(d1: Deck, d2: Deck) -> DescentPolynomial:
    """The enumerated polynomial of a pair with no block deck: in pure
    Python when the transition set is tiny or a label too large for
    tables, else vectorized."""
    if (
        transition_cardinality(d1, d2) <= _PLAIN_ENUM_MAX
        or max(d1.counts.values()) > _TABLE_MAX_MULT
    ):
        counts = _counts_plain(d1, d2)
    else:
        counts = _counts_vectorized(d1, d2)
    return DescentPolynomial(d1, d2, tuple(counts))


def exact_descent_polynomial(
    d1: Deck, d2: Deck, cap: int = 10**8
) -> DescentPolynomial:
    """Classify every permutation carrying `d1` onto `d2` by descents.

    A pair where either deck is a block deck is found at any size by a
    walk over that deck (`blockfamily.block_row`).  Any other pair is
    enumerated: it raises `CapExceededError` when the transition set is
    larger than `cap` (or than the int64 tally allows).  Raises
    `SignatureMismatchError` when the decks hold different cards.
    Results are memoized by deck pair, so repeated queries for the same
    pair are free.
    """
    from .blockfamily import block_row

    row = block_row(d1, d2)
    if row is not None:
        return DescentPolynomial(d1, d2, row)
    _capped_cardinality(d1, d2, min(cap, _COUNT_MAX))
    return _exact_polynomial_cached(d1, d2)


# ---------------------------------------------------------------------------
# Exact enumeration, all counterparts of one deck at once


@lru_cache(maxsize=None)
def _perm_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All n! permutations of 0..n-1 (rows, lex order) and their descents."""
    import numpy as np

    if n > _SWEEP_MAX_N:
        raise CapExceededError(
            f"permutation sweep supports up to {_SWEEP_MAX_N} cards, got {n}"
        )
    if n == 1:
        return np.zeros((1, 1), dtype=np.int8), np.zeros(1, dtype=np.int8)
    sub, sub_des = _perm_table(n - 1)
    f = math.factorial(n - 1)
    perms = np.empty((n * f, n), dtype=np.int8)
    des = np.empty(n * f, dtype=np.int8)
    for v in range(n):
        block = slice(v * f, (v + 1) * f)
        perms[block, 0] = v
        # The other values, in the order of the smaller table: shifting
        # values v and up by one keeps every descent among them, and v
        # descends onto the next value exactly when that value is below v.
        np.add(sub, sub >= v, out=perms[block, 1:])
        np.add(sub_des, sub[:, 0] < v, out=des[block])
    return perms, des


def _label_digits(deck: Deck) -> tuple[tuple[str, ...], np.ndarray]:
    """The deck's labels in first-appearance order, and each card's
    index among them: its base-h digit, h being the label count."""
    import numpy as np

    labels = tuple(deck.counts)
    index = {lab: e for e, lab in enumerate(labels)}
    return labels, np.array([index[c] for c in deck.cards], dtype=np.int64)


def _decode(code: int, labels: tuple[str, ...], n: int) -> Deck:
    """The n-card deck whose card i is `labels[digit i]` of base-h `code`."""
    h = len(labels)
    cards = []
    for _ in range(n):
        cards.append(labels[code % h])
        code //= h
    return Deck(tuple(cards))


def _source_codes(exp: np.ndarray, h: int) -> np.ndarray:
    """Base-h codes sum_i exp[i] * h^p(i) of the maps p listed by
    `_perm_table(len(exp))`, in its row order.

    The table lists the maps with p(0) = 0 first, then p(0) = 1, and so
    on; within block v, p(1), p(2), ... run over the other values in the
    order of the (n-1)-card table.  So block v holds the codes of that
    smaller table for exp[1:], with digit exp[0] inserted at place v.
    Building them one card at a time, from the last, takes a few passes
    over n! values and no gathers.
    """
    import numpy as np

    code = exp[-1:].copy()
    for k, e in enumerate(exp[-2::-1], start=2):
        out = np.empty((k, len(code)), dtype=np.int64)
        for v, block in enumerate(out):
            # Digits at places v and up move up one place; e goes in at v.
            np.floor_divide(code, h**v, out=block)
            block *= (h - 1) * h**v
            block += code
            block += e * h**v
        code = out.reshape(-1)
    return code


class PolynomialFamily(NamedTuple):
    """Descent polynomials between one anchor deck and every counterpart.

    With `role="source"` the anchor is the pre-shuffle deck and rows are
    indexed by target decks; with `role="target"` rows are indexed by
    source decks.  Rows are encoded compactly: `codes[r]` is the base-h
    digit string of counterpart `r` (h = number of distinct labels,
    digit i = label index of the card at position i), and `counts[r, d]`
    is the number of carrying permutations with `d` descents.
    """

    anchor: Deck
    role: str
    labels: tuple[str, ...]
    codes: np.ndarray
    counts: np.ndarray

    @property
    def n(self) -> int:
        return self.anchor.n

    def decode(self, code: int) -> Deck:
        return _decode(code, self.labels, self.n)

    def encode(self, counterpart: Deck) -> int:
        h = len(self.labels)
        index = {lab: e for e, lab in enumerate(self.labels)}
        code = 0
        for i, c in enumerate(counterpart.cards):
            code += index[c] * h**i
        return code

    def polynomial(self, counterpart: Deck) -> DescentPolynomial:
        code = self.encode(counterpart)
        rows = (self.codes == code).nonzero()[0]
        if len(rows) != 1:
            raise KeyError(f"counterpart not found: {deck_text(counterpart)}")
        return self._row(rows[0], counterpart)

    def _row(self, r: int, counterpart: Deck) -> DescentPolynomial:
        """Row `r`, whose counterpart is `counterpart`, as a polynomial."""
        coeffs = tuple(int(c) for c in self.counts[r])
        if self.role == "source":
            return DescentPolynomial(self.anchor, counterpart, coeffs)
        return DescentPolynomial(counterpart, self.anchor, coeffs)


def descent_polynomial_family(
    anchor: Deck, role: str = "source"
) -> PolynomialFamily:
    """Sweep all n! position maps once, classifying them by the
    counterpart deck they produce and their descent count.

    This is plain exhaustive enumeration, shared across counterparts:
    row sums equal the transition cardinality and every counterpart
    arrangement appears.  Requires n <= 10, which `_perm_table` enforces.
    """
    import numpy as np

    if role not in ("source", "target"):
        raise ValueError(f"role must be 'source' or 'target', got {role!r}")
    n = anchor.n
    perms, des = _perm_table(n)
    labels, exp = _label_digits(anchor)
    h = len(labels)
    if role == "source":
        # Counterpart card at target position p(i) equals anchor card i.
        code = _source_codes(exp, h)
    else:
        # Counterpart card at position i equals anchor card p(i).
        code = np.zeros(len(perms), dtype=np.int64)
        for i in range(n):
            code += (h**i * exp)[perms[:, i]]
    code *= n
    code += des
    # Only counterparts some map reaches get a row.  When the h^n * n
    # (code, degree) cells are no more than the n! keys, a dense tally is
    # no larger than the keys and its nonzero rows are the codes.
    # Otherwise sorting the keys and then only the distinct ones is faster
    # than ranking all n! codes with `return_inverse`.
    cells = h**n * n
    if cells <= len(code):
        dense = np.bincount(code, minlength=cells).reshape(-1, n)
        codes = np.flatnonzero(dense.any(axis=1))
        return PolynomialFamily(anchor, role, labels, codes, dense[codes])
    uniq, cnt = np.unique(code, return_counts=True)
    codes, inverse = np.unique(uniq // n, return_inverse=True)
    counts = np.zeros((len(codes), n), dtype=np.int64)
    counts[inverse, uniq % n] = cnt
    return PolynomialFamily(anchor, role, labels, codes, counts)


def family_as_dict(family: PolynomialFamily) -> dict[Deck, DescentPolynomial]:
    """Materialize a sweep as counterpart -> polynomial."""
    counterparts = map(family.decode, family.codes.tolist())
    return {c: family._row(r, c) for r, c in enumerate(counterparts)}


# ---------------------------------------------------------------------------
# Digit-sequence enumeration (independent route to the same probabilities)


def digit_transition_counts(
    d1: Deck, a: int, cap: int = 10**7
) -> dict[Deck, int]:
    """Count, over all a^n digit sequences, the decks an `a`-way shuffle
    of `d1` produces.  P(d1 -> d2) is then counts[d2] / a^n.
    """
    import numpy as np

    if a < 1:
        raise ValueError("packet count must be at least 1")
    n = d1.n
    total = a**n
    if total > cap:
        raise CapExceededError(
            f"digit enumeration needs {total} sequences, above the cap of {cap}"
        )
    labels, exp = _label_digits(d1)
    h = len(labels)
    pow_h = h ** np.arange(n, dtype=np.int64)
    out: dict[int, int] = {}
    batch = 1 << 16
    for start in range(0, total, batch):
        stop = min(start + batch, total)
        idx = np.arange(start, stop, dtype=np.int64)
        digits = np.empty((stop - start, n), dtype=np.int8)
        rem = idx
        for i in range(n - 1, -1, -1):
            digits[:, i] = rem % a
            rem = rem // a
        # Sorting target positions by digit (stable) lists, in order, the
        # target position each consecutive source card goes to.
        targets = np.argsort(digits, axis=1, kind="stable")
        code = np.zeros(stop - start, dtype=np.int64)
        for s in range(n):
            if exp[s]:
                code += exp[s] * pow_h[targets[:, s]]
        uniq, cnt = np.unique(code, return_counts=True)
        for u, c in zip(uniq, cnt):
            out[int(u)] = out.get(int(u), 0) + int(c)
    return {_decode(code, labels, n): c for code, c in out.items()}


# ---------------------------------------------------------------------------
# Sampled histograms


def _stored_start(
    d1: Deck, d2: Deck, samples: int, seed: int, cache_dir: str | Path | None
) -> tuple[HistogramKey, Path | None, list[int], int]:
    """Where drawing one histogram starts: its cache key, the cache
    directory in use (`RIFFMIX_CACHE_DIR` when `cache_dir` is None), and
    the counts of the blocks already stored there, with how many.  Counts
    its stored blocks cannot have drawn (a negative count, or a total
    other than their samples) start from nothing.  Loads no sampler."""
    from . import cache as _cache

    transition_cardinality(d1, d2)
    if samples < 1:
        raise ValueError("sample count must be positive")
    n = d1.n
    if cache_dir is None:
        cache_dir = _cache.default_cache_dir()
    blocks = -(-samples // _BLOCK_SAMPLES)
    key = _cache.HistogramKey(
        deck_text(d1), deck_text(d2), samples, seed, blocks, SAMPLER_VERSION
    )
    if cache_dir is not None:
        # An unusable directory is refused before any sampling.
        cache_dir = _cache.ensure_dir(cache_dir)
        cached = _cache.load(cache_dir, key)
        if cached is not None:
            stored, completed = cached
            drawn = min(completed * _BLOCK_SAMPLES, samples)
            if len(stored) == n and min(stored) >= 0 and sum(stored) == drawn:
                return key, cache_dir, list(stored), completed
    return key, cache_dir, [0] * n, 0


def mc_descent_histogram(
    d1: Deck,
    d2: Deck,
    samples: int,
    seed: int,
    cache_dir: str | Path | None = None,
) -> DescentHistogram:
    """Estimate descent coefficients by uniform transition sampling.

    Samples are drawn in blocks of `_BLOCK_SAMPLES`, the last block
    holding the remainder; block `b` draws from `substream(seed,
    PURPOSE_HISTOGRAM, b)`, and the histogram is the sum of the blocks'
    counts, so it depends only on (decks, samples, seed).  With a cache
    directory, counts are stored after every `_CHECKPOINT_BLOCKS` blocks
    and at the end, and reused, so a finished run is served whole and an
    interrupted one resumes from its last store.  A stored file whose
    counts its completed blocks cannot have drawn (a negative count, or
    a total other than their samples) is redrawn.  The table engine and
    numpy load only when a block is left to draw, so a full cache hit
    runs no sampler.  This draws one histogram in the calling process;
    `workers.descent_histograms` spreads many over the usable CPUs.
    """
    from . import cache as _cache

    key, cache_dir, counts, first_block = _stored_start(
        d1, d2, samples, seed, cache_dir
    )
    blocks = key.streams
    if first_block < blocks:
        from .tables import _LabelTables

        tables = _LabelTables(d1, d2, _SAMPLE_TABLE_MAX_MULT)
    step = blocks if cache_dir is None else _CHECKPOINT_BLOCKS
    for start in range(first_block, blocks, step):
        stop = min(start + step, blocks)
        run = range(start, stop)
        added = tables.sample_counts(
            [min(_BLOCK_SAMPLES, samples - b * _BLOCK_SAMPLES) for b in run],
            (substream(seed, PURPOSE_HISTOGRAM, b) for b in run),
        )
        counts = list(map(operator.add, counts, added.tolist()))
        if cache_dir is not None:
            _cache.store(cache_dir, key, counts, stop)
    return DescentHistogram(d1, d2, tuple(counts), samples, seed)


# ---------------------------------------------------------------------------
# Inverting probabilities back to coefficients


def probabilities_to_polynomial(
    probabilities: list[Fraction] | tuple[Fraction, ...], n: int
) -> tuple[int, ...]:
    """Recover descent coefficients from the shuffle probabilities at
    packet counts a = 1..n.

    The probability at `a` involves only coefficients below degree `a`,
    with a unit weight on degree a-1, so forward substitution inverts the
    system exactly.  Raises `InconsistentProbabilitiesError` when the
    inputs do not come from a nonnegative integer coefficient vector.
    """
    if len(probabilities) != n:
        raise ValueError(f"need probabilities for a = 1..{n}")
    # count(a) = a^n * P(a) = sum_d c_d C(a+n-d-1, n), and degree d weighs
    # C(a+n-d-1, n) = weights[n - a + d] at packet count a.
    weights, _ = shuffle_weights(n, n)
    coeffs: list[Fraction] = []
    for a, p in enumerate(probabilities, start=1):
        count = Fraction(p) * a**n
        coeffs.append(count - sum(map(operator.mul, coeffs, weights[n - a :])))
    for d, val in enumerate(coeffs):
        if val.denominator != 1 or val < 0:
            raise InconsistentProbabilitiesError(
                f"degree {d} coefficient resolves to {val}"
            )
    return tuple(int(val) for val in coeffs)


# ---------------------------------------------------------------------------
# Distinct-card reference distribution


def descent_distribution_under_a_shuffle(
    n: int, a: int
) -> tuple[Fraction, ...]:
    """Distribution of the descent count of a random `a`-way shuffle."""
    weights, denom = shuffle_weights(n, a)
    return tuple(
        Fraction(c * w, denom) for c, w in zip(eulerian_row(n), weights)
    )


__all__ = [
    "DescentPolynomial",
    "DescentHistogram",
    "PolynomialFamily",
    "descent_distribution_under_a_shuffle",
    "descent_polynomial_family",
    "digit_transition_counts",
    "exact_descent_polynomial",
    "family_as_dict",
    "mc_descent_histogram",
    "probabilities_to_polynomial",
    "probability_from_coefficients",
]
