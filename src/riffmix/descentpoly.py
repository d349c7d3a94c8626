"""Descent polynomials of deck rearrangements.

For decks `d1`, `d2` over the same cards, classify the permutations
carrying `d1` onto `d2` by descent count.  The coefficient vector
`c[d] = #permutations with d descents` determines the chance that an
`a`-way shuffle turns `d1` into `d2` for every `a` at once:

    P(a) = sum_d c[d] * w[d] / a^n,   w = shuffle_weights(n, a)

Exact coefficients come from exhaustive enumeration (vectorized when the
transition set is large); estimated coefficients come from uniform
sampling of the transition set, with per-degree reliability gauges.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import cache as _cache
from .deck import Deck, deck_text, label_positions, transition_cardinality
from .errors import CapExceededError, InconsistentProbabilitiesError
from .rng import PURPOSE_HISTOGRAM, STREAMS, quotas, substream

# Transition sets at or below this size are enumerated in pure Python;
# larger ones go through the vectorized engine.
_PLAIN_ENUM_MAX = 200_000
# Per-label permutation tables are materialized up to this multiplicity
# when enumerating, and up to the second one when sampling; larger labels
# are sampled by an argsort of random keys instead.
_TABLE_MAX_MULT = 9
_SAMPLE_TABLE_MAX_MULT = 7
# Permutation sweeps over all n! position maps are allowed up to this n.
_SWEEP_MAX_N = 10
_CHUNK = 1 << 19
# Enumerated descent counts are tallied in 64-bit integers.
_COUNT_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# Result types


@dataclass(frozen=True)
class DescentPolynomial:
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


@dataclass(frozen=True)
class DescentHistogram:
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


def shuffle_weights(n: int, a: int) -> tuple[tuple[int, ...], int]:
    """Integer weights C(a+n-d-1, n) for d = 0..n-1, and the denominator
    a^n, of the shuffle probability formula at packet count `a`.

    The weight of degree `d` counts the digit sequences realizing one
    permutation with `d` descents, so it vanishes exactly when d >= a.
    """
    if a < 1:
        raise ValueError("packet count must be at least 1")
    return tuple(math.comb(a + n - d - 1, n) for d in range(n)), a**n


def probability_from_coefficients(
    coefficients: tuple[int, ...] | list, a: int
) -> Fraction:
    """Evaluate the shuffle probability formula at packet count `a`."""
    weights, denom = shuffle_weights(len(coefficients), a)
    return Fraction(sum(c * w for c, w in zip(coefficients, weights) if c), denom)


# ---------------------------------------------------------------------------
# Per-label tables, shared by enumeration and sampling


class _LabelTables:
    """Per-label structure of one pair's transition set.

    A member of the transition set picks, for each label, one bijection
    from the label's source slots onto its target positions: one row of
    that label's permutation table, built when the label has at most
    `max_mult` cards.  When every label has a table (`complete`), the
    descents of a member need only those row indices: descents inside
    runs of one label are a per-row lookup (`runs`), and only boundaries
    between different labels need a comparison (`mixed`).  Enumeration
    feeds it mixed-radix row indices, sampling feeds it random rows.
    """

    def __init__(self, d1: Deck, d2: Deck, max_mult: int):
        self.n = d1.n
        cards = d1.cards
        src_pos = label_positions(d1)
        tgt_pos = label_positions(d2)
        self.labels = list(src_pos)
        self.slots = {
            lab: np.array(src_pos[lab], dtype=np.int64) - 1
            for lab in self.labels
        }
        self.targets = {
            lab: np.array(sorted(tgt_pos[lab]), dtype=np.int16) - 1
            for lab in self.labels
        }
        self.tables = {
            lab: np.array(
                list(itertools.permutations(tgt.tolist())), dtype=np.int16
            )
            for lab, tgt in self.targets.items()
            if len(tgt) <= max_mult
        }
        self.complete = len(self.tables) == len(self.labels)
        if not self.complete:
            return
        slot_of = {}
        seen: dict[int, int] = {}
        for i, c in enumerate(cards):
            slot_of[i] = seen.get(c, 0)
            seen[c] = slot_of[i] + 1
        dtab = {
            lab: np.zeros(len(self.tables[lab]), dtype=np.int16)
            for lab in self.labels
        }
        self.mixed: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        for i in range(self.n - 1):
            ci, cj = cards[i], cards[i + 1]
            qi, qj = slot_of[i], slot_of[i + 1]
            if ci == cj:
                t = self.tables[ci]
                dtab[ci] += t[:, qi] > t[:, qj]
            else:
                self.mixed.append(
                    (
                        ci,
                        cj,
                        np.ascontiguousarray(self.tables[ci][:, qi]),
                        np.ascontiguousarray(self.tables[cj][:, qj]),
                    )
                )
        # Labels with no adjacent source slots add nothing.
        self.runs = [(lab, tab) for lab, tab in dtab.items() if tab.any()]

    def distinct_rows(self) -> dict[int, tuple[np.ndarray, np.ndarray | None]]:
        """Per label, the first row of each group of table rows that agree
        in every column `descents` reads, and the size of each group (None
        when every group is a single row)."""
        cols: dict[int, list[np.ndarray]] = {lab: [] for lab in self.labels}
        for lab, tab in self.runs:
            cols[lab].append(tab)
        for ci, cj, left, right in self.mixed:
            cols[ci].append(left)
            cols[cj].append(right)
        out = {}
        for lab, read in cols.items():
            size = len(self.tables[lab])
            if not read:  # only in a one-card deck
                out[lab] = (np.zeros(1, dtype=np.int64), np.array([size]))
                continue
            _, first, mult = np.unique(
                np.stack(read, axis=1),
                axis=0,
                return_index=True,
                return_counts=True,
            )
            if len(first) == size:
                first, mult = np.arange(size), None
            out[lab] = (first, mult)
        return out

    def descents(self, rows: dict[int, np.ndarray], size: int) -> np.ndarray:
        """Descent counts of the members picking `rows[lab]` per label."""
        des = np.zeros(size, dtype=np.int16)
        for lab, tab in self.runs:
            des += tab[rows[lab]]
        for ci, cj, left, right in self.mixed:
            des += left[rows[ci]] > right[rows[cj]]
        return des

    def sample_counts(self, quota: int, gen: np.random.Generator) -> np.ndarray:
        """Descent histogram of `quota` uniform members of the set.

        Without a table for every label, samples build the full image
        matrix, drawing an argsort of random keys for each large label.
        """
        counts = np.zeros(self.n, dtype=np.int64)
        batch = 1 << 16
        done = 0
        while done < quota:
            b = min(batch, quota - done)
            if self.complete:
                rows = {
                    lab: gen.integers(0, len(self.tables[lab]), size=b)
                    for lab in self.labels
                }
                des = self.descents(rows, b)
            else:
                img = np.empty((b, self.n), dtype=np.int16)
                for lab in self.labels:
                    table = self.tables.get(lab)
                    if table is not None:
                        picks = table[gen.integers(0, len(table), size=b)]
                    else:
                        keys = gen.random((b, len(self.targets[lab])))
                        picks = self.targets[lab][np.argsort(keys, axis=1)]
                    img[:, self.slots[lab]] = picks
                des = (img[:, :-1] > img[:, 1:]).sum(axis=1)
            counts += np.bincount(des, minlength=self.n)
            done += b
        return counts


# ---------------------------------------------------------------------------
# Exact enumeration, single pair


def _counts_plain(d1: Deck, d2: Deck) -> list[int]:
    """Stream the transition set in pure Python and tally descents."""
    n = d1.n
    src_pos = label_positions(d1)
    tgt_pos = label_positions(d2)
    labels = list(src_pos)
    slot_lists = [src_pos[lab] for lab in labels]
    counts = [0] * n
    iters = [itertools.permutations(tgt_pos[lab]) for lab in labels]
    images = [0] * n
    for choice in itertools.product(*iters):
        for slots, assignment in zip(slot_lists, choice):
            for slot, j in zip(slots, assignment):
                images[slot - 1] = j
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

    Table rows that `_LabelTables.descents` cannot tell apart are merged
    first.  Members are then indexed in mixed radix over the distinct
    rows per label (the last label varies fastest), each weighted by the
    number of members it stands for.
    """
    n = d1.n
    tables = _LabelTables(d1, d2, _TABLE_MAX_MULT)
    groups = tables.distinct_rows()
    radix = [(lab, *groups[lab]) for lab in reversed(tables.labels)]
    total = math.prod(len(first) for _, first, _ in radix)
    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        rem = np.arange(start, stop, dtype=np.int64)
        rows: dict[int, np.ndarray] = {}
        weight: int | np.ndarray = 1
        for lab, first, mult in radix:
            pick = rem % len(first)
            rem = rem // len(first)
            if mult is None:
                rows[lab] = pick
            else:
                rows[lab] = first[pick]
                weight = weight * mult[pick]
        np.add.at(counts, tables.descents(rows, stop - start), weight)
    return [int(c) for c in counts]


@lru_cache(maxsize=4096)
def _exact_polynomial_cached(d1: Deck, d2: Deck, cap: int) -> DescentPolynomial:
    card = transition_cardinality(d1, d2)
    if card > min(cap, _COUNT_MAX):
        raise CapExceededError(
            f"transition set has {card} elements, above the cap of "
            f"{min(cap, _COUNT_MAX)}"
        )
    if card <= _PLAIN_ENUM_MAX or max(d1.counts.values()) > _TABLE_MAX_MULT:
        counts = _counts_plain(d1, d2)
    else:
        counts = _counts_vectorized(d1, d2)
    return DescentPolynomial(d1, d2, tuple(counts))


def exact_descent_polynomial(
    d1: Deck, d2: Deck, cap: int = 10**8
) -> DescentPolynomial:
    """Classify every permutation carrying `d1` onto `d2` by descents.

    Raises `CapExceededError` when the transition set is larger than
    `cap`, and `SignatureMismatchError` when the decks hold different
    cards.  Results are memoized, so repeated queries for the same pair
    are free.
    """
    return _exact_polynomial_cached(d1, d2, cap)


# ---------------------------------------------------------------------------
# Exact enumeration, all counterparts of one deck at once


@lru_cache(maxsize=None)
def _perm_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All n! permutations of 0..n-1 (rows, lex order) and their descents."""
    if n > _SWEEP_MAX_N:
        raise CapExceededError(
            f"permutation sweep supports up to {_SWEEP_MAX_N} cards, got {n}"
        )
    if n == 1:
        return np.zeros((1, 1), dtype=np.int8), np.zeros(1, dtype=np.int8)
    sub, _ = _perm_table(n - 1)
    f = math.factorial(n - 1)
    perms = np.empty((n * f, n), dtype=np.int8)
    for first in range(n):
        rest = np.array([v for v in range(n) if v != first], dtype=np.int8)
        block = perms[first * f : (first + 1) * f]
        block[:, 0] = first
        block[:, 1:] = rest[sub]
    des = (perms[:, :-1] > perms[:, 1:]).sum(axis=1).astype(np.int8)
    return perms, des


@lru_cache(maxsize=8)
def _sweep_gathers(n: int, h: int) -> list[np.ndarray]:
    """Per-position arrays h^(p(i)) over all n! maps, shared across sweeps."""
    perms, _ = _perm_table(n)
    pow_h = (h ** np.arange(n)).astype(np.int64)
    if h ** (n - 1) < 2**31:
        pow_h = pow_h.astype(np.int32)
    return [pow_h[perms[:, i]] for i in range(n)]


@dataclass(frozen=True)
class PolynomialFamily:
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
    labels: tuple[int, ...]
    codes: np.ndarray
    counts: np.ndarray

    @property
    def n(self) -> int:
        return self.anchor.n

    def decode(self, code: int) -> Deck:
        h = len(self.labels)
        cards = []
        for _ in range(self.n):
            cards.append(self.labels[code % h])
            code //= h
        return Deck(tuple(cards))

    def encode(self, counterpart: Deck) -> int:
        h = len(self.labels)
        index = {lab: e for e, lab in enumerate(self.labels)}
        code = 0
        for i, c in enumerate(counterpart.cards):
            code += index[c] * h**i
        return code

    def polynomial(self, counterpart: Deck) -> DescentPolynomial:
        code = self.encode(counterpart)
        rows = np.nonzero(self.codes == code)[0]
        if len(rows) != 1:
            raise KeyError(f"counterpart not found: {deck_text(counterpart)}")
        coeffs = tuple(int(c) for c in self.counts[rows[0]])
        if self.role == "source":
            return DescentPolynomial(self.anchor, counterpart, coeffs)
        return DescentPolynomial(counterpart, self.anchor, coeffs)


def descent_polynomial_family(
    anchor: Deck, role: str = "source", cap: int = 10**8
) -> PolynomialFamily:
    """Sweep all n! position maps once, classifying them by the
    counterpart deck they produce and their descent count.

    This is plain exhaustive enumeration, shared across counterparts:
    row sums equal the transition cardinality and every counterpart
    arrangement appears.  Requires n <= 10 and n! <= cap.
    """
    if role not in ("source", "target"):
        raise ValueError(f"role must be 'source' or 'target', got {role!r}")
    n = anchor.n
    if math.factorial(n) > cap:
        raise CapExceededError(
            f"sweep over {math.factorial(n)} position maps is above the cap of {cap}"
        )
    perms, des = _perm_table(n)
    labels = tuple(anchor.counts)
    h = len(labels)
    index = {lab: e for e, lab in enumerate(labels)}
    exp = np.array([index[c] for c in anchor.cards], dtype=np.int64)
    pow_h = h ** np.arange(n, dtype=np.int64)
    code = np.zeros(len(perms), dtype=np.int64)
    if role == "source":
        # Counterpart card at target position p(i) equals anchor card i.
        gathers = _sweep_gathers(n, h)
        for i in range(n):
            if exp[i] == 1:
                code += gathers[i]
            elif exp[i]:
                code += exp[i] * gathers[i].astype(np.int64)
    else:
        # Counterpart card at position i equals anchor card p(i).
        exp_arr = exp
        for i in range(n):
            col = exp_arr[perms[:, i]]
            code += pow_h[i] * col
    combined = code * n + des
    space = h**n * n
    if space <= 2 * 10**7:
        flat = np.bincount(combined, minlength=space)
        mat = flat.reshape(h**n, n)
        keep = np.nonzero(mat.sum(axis=1))[0]
        codes = keep.astype(np.int64)
        counts = mat[keep].astype(np.int64)
    else:
        uniq, cnt = np.unique(combined, return_counts=True)
        row_code = uniq // n
        degree = uniq % n
        codes, inverse = np.unique(row_code, return_inverse=True)
        counts = np.zeros((len(codes), n), dtype=np.int64)
        np.add.at(counts, (inverse, degree), cnt)
    return PolynomialFamily(anchor, role, labels, codes, counts)


def family_as_dict(family: PolynomialFamily) -> dict[Deck, DescentPolynomial]:
    """Materialize a sweep as counterpart -> polynomial."""
    out: dict[Deck, DescentPolynomial] = {}
    for r in range(len(family.codes)):
        counterpart = family.decode(int(family.codes[r]))
        coeffs = tuple(int(c) for c in family.counts[r])
        if family.role == "source":
            out[counterpart] = DescentPolynomial(
                family.anchor, counterpart, coeffs
            )
        else:
            out[counterpart] = DescentPolynomial(
                counterpart, family.anchor, coeffs
            )
    return out


# ---------------------------------------------------------------------------
# Digit-sequence enumeration (independent route to the same probabilities)


def digit_transition_counts(
    d1: Deck, a: int, cap: int = 10**7
) -> dict[Deck, int]:
    """Count, over all a^n digit sequences, the decks an `a`-way shuffle
    of `d1` produces.  P(d1 -> d2) is then counts[d2] / a^n.
    """
    if a < 1:
        raise ValueError("packet count must be at least 1")
    n = d1.n
    total = a**n
    if total > cap:
        raise CapExceededError(
            f"digit enumeration needs {total} sequences, above the cap of {cap}"
        )
    labels = tuple(d1.counts)
    h = len(labels)
    index = {lab: e for e, lab in enumerate(labels)}
    exp = np.array([index[c] for c in d1.cards], dtype=np.int64)
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
    result: dict[Deck, int] = {}
    for code, c in out.items():
        cards = []
        for _ in range(n):
            cards.append(labels[code % h])
            code //= h
        result[Deck(tuple(cards))] = c
    return result


# ---------------------------------------------------------------------------
# Sampled histograms


def mc_descent_histogram(
    d1: Deck,
    d2: Deck,
    samples: int,
    seed: int,
    streams: int = STREAMS,
    threads: int = 1,
    cache_dir: str | Path | None = None,
    checkpoint_every: int | None = None,
) -> DescentHistogram:
    """Estimate descent coefficients by uniform transition sampling.

    Work is split over `streams` logical substreams with fixed quotas, so
    the result depends only on (decks, samples, seed, streams), never on
    `threads`.  With a cache directory, completed counts are stored and
    reused; `checkpoint_every` flushes partial counts every that many
    streams so an interrupted run can resume.
    """
    transition_cardinality(d1, d2)
    if samples < 1:
        raise ValueError("sample count must be positive")
    n = d1.n
    if cache_dir is None:
        cache_dir = _cache.default_cache_dir()
    key = _cache.HistogramKey(
        deck_text(d1), deck_text(d2), samples, seed, streams
    )
    counts = np.zeros(n, dtype=np.int64)
    first_stream = 0
    if cache_dir is not None:
        cached = _cache.load(cache_dir, key)
        if cached is not None and len(cached[0]) == n:
            stored, completed = cached
            counts = np.array(stored, dtype=np.int64)
            first_stream = completed
    per_stream = quotas(samples, streams)
    tables = _LabelTables(d1, d2, _SAMPLE_TABLE_MAX_MULT)

    def run(s: int) -> np.ndarray:
        if per_stream[s] == 0:
            return np.zeros(n, dtype=np.int64)
        gen = substream(seed, PURPOSE_HISTOGRAM, s)
        return tables.sample_counts(per_stream[s], gen)

    step = checkpoint_every or streams
    s = first_stream
    while s < streams:
        stop = min(s + step, streams)
        block = range(s, stop)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for part in pool.map(run, block):
                    counts += part
        else:
            for t in block:
                counts += run(t)
        s = stop
        if cache_dir is not None and (s < streams or first_stream < streams):
            _cache.store(cache_dir, key, [int(c) for c in counts], s)
    return DescentHistogram(
        d1, d2, tuple(int(c) for c in counts), samples, seed
    )


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
    coeffs: list[int] = []
    for a in range(1, n + 1):
        weights, denom = shuffle_weights(n, a)
        val = Fraction(probabilities[a - 1]) * denom
        for d in range(a - 1):
            val -= coeffs[d] * weights[d]
        if val.denominator != 1 or val < 0:
            raise InconsistentProbabilitiesError(
                f"degree {a - 1} coefficient resolves to {val}"
            )
        coeffs.append(int(val))
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Distinct-card reference distribution


@lru_cache(maxsize=None)
def eulerian_row(n: int) -> tuple[int, ...]:
    """Counts of n-card permutations by descent number (degrees 0..n-1)."""
    if n < 1:
        raise ValueError("need at least one card")
    if n == 1:
        return (1,)
    prev = eulerian_row(n - 1)
    row = []
    for d in range(n):
        val = 0
        if d < n - 1:
            val += (d + 1) * prev[d]
        if d >= 1:
            val += (n - d) * prev[d - 1]
        row.append(val)
    return tuple(row)


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
    "eulerian_row",
    "exact_descent_polynomial",
    "family_as_dict",
    "mc_descent_histogram",
    "probabilities_to_polynomial",
    "probability_from_coefficients",
    "shuffle_weights",
]
