"""Descent polynomials of deck rearrangements.

For decks `d1`, `d2` over the same cards, classify the permutations
carrying `d1` onto `d2` by descent count.  The coefficient vector
`c[d] = #permutations with d descents` determines the chance that an
`a`-way shuffle turns `d1` into `d2` for every `a` at once:

    P(a) = sum_d c[d] * w[d] / a^n,   w = shuffle_weights(n, a)

Exact coefficients come from a DP over labels when either deck is a block
deck (`blockdp`), and otherwise, or when the transition set is tiny, from
exhaustive enumeration (vectorized when the transition set is large);
estimated coefficients come from uniform sampling of the transition set,
with per-degree reliability gauges.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import cache as _cache
from .blockdp import is_block, source_counts, target_counts
from .codes import draw_codes, insertion_targets, radix_groups
from .deck import (
    Deck,
    _capped_cardinality,
    _transition_images,
    deck_text,
    label_positions,
    transition_cardinality,
)
from .errors import CapExceededError, InconsistentProbabilitiesError
from .rng import PURPOSE_HISTOGRAM, substream

# Transition sets at or below this size are enumerated in pure Python;
# larger ones go through a block-deck DP or the vectorized engine.
_PLAIN_ENUM_MAX = 200
# Per-label permutation tables are materialized up to this multiplicity
# when enumerating, and up to the second one when sampling; larger labels
# are sampled as insertion codes instead, one uniform code per source slot.
_TABLE_MAX_MULT = 9
_SAMPLE_TABLE_MAX_MULT = 7
# Consecutive table labels share one draw while their table sizes multiply
# to at most this, the number of indices an int16 buffer cell holds.
_UNIT_MAX_ROWS = 1 << 15
# Permutation sweeps over all n! position maps are allowed up to this n.
_SWEEP_MAX_N = 10
_CHUNK = 1 << 19
# A histogram is drawn in blocks of this many samples, block `b` from its
# own substream; the last block holds the remainder.
_BLOCK_SAMPLES = 1 << 16
# Sampling draws about this many random values per generator call, and
# scores draws in batches of about this many buffer cells and at most this
# many columns: scoring takes about 16 bytes per column beside the buffer,
# more than the few cells of a column of table units.
_DRAW_CELLS = 1 << 13
_SCORE_CELLS = 1 << 17
_SCORE_COLUMNS = 1 << 13
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
    """Per-label structure of one pair's transition set, drawn in units.

    A member of the transition set picks, for each label, one bijection
    from the label's source slots onto its sorted target positions.  A
    label of at most `max_mult` cards lists its bijections in a
    permutation table.  Labels form units in `self.labels` order: a table
    label joins the table unit before it while their table sizes multiply
    to at most `_UNIT_MAX_ROWS`, and starts a new one otherwise; any other
    label is a unit of its own.  The rows of a table unit are the
    Cartesian product of its labels' table rows in mixed radix, the first
    label slowest.

    A member is held as one column of `width` int16 buffer rows, each
    unit owning a fixed range of them from `first_row[lab]` on (shared by
    the labels of a unit).  A table unit has one row, the index of its
    unit row.  A label without a table (a code label) has one row per
    source slot q, its insertion code c_q (`codes`).  A code label read
    at boundaries nearer its first slot than its last is coded from its
    last slot (`flipped`): slots and `targets` both run in reverse, which
    keeps each descent inside it.  `descents` scores such columns: the
    descents between two cards of one table unit are summed in advance
    into the unit's descent table, read by one lookup (`runs`); a run of
    adjacent code slots holds code rows lo..hi, rows k and k + 1
    descending exactly when c_{k+1} > c_k (`code_runs`); and each
    boundary between two units compares two target positions, each read
    through a (lookup, buffer row) pair (`mixed`).  A table unit's
    lookups are `columns[lab, slot]`, the target of a slot at each unit
    row.  A code label's slot read at such a boundary has a target row
    below the `width` draw rows (`height` rows in all), which `descents`
    decodes first (`decodes`) and reads with no lookup.  Enumeration
    feeds `descents` mixed-radix unit-row indices, sampling feeds it
    draws.
    """

    def __init__(self, d1: Deck, d2: Deck, max_mult: int):
        self.n = d1.n
        cards = d1.cards
        src_pos = label_positions(d1)
        tgt_pos = label_positions(d2)
        self.labels = list(src_pos)
        self.targets = {
            lab: np.array(sorted(tgt_pos[lab]), dtype=np.int16) - 1
            for lab in self.labels
        }
        # `_perm_table` rows are in lex order, as `itertools.permutations`.
        self.tables = {
            lab: tgt[_perm_table(len(tgt))[0]]
            for lab, tgt in self.targets.items()
            if len(tgt) <= max_mult
        }
        self.units: list[list[str]] = []
        for lab in self.labels:
            if (
                self.units
                and lab in self.tables
                and self.units[-1][0] in self.tables
                and self.unit_rows(self.units[-1]) * len(self.tables[lab])
                <= _UNIT_MAX_ROWS
            ):
                self.units[-1].append(lab)
            else:
                self.units.append([lab])
        # Each unit's first buffer row, and the runs of consecutive units
        # that draw from one distribution: a table of one size, or codes
        # of one label size; `values` counts the random values per member.
        self.first_row: dict[str, int] = {}
        self.width = self.values = 0
        self.draw_groups: list[tuple[int, bool, int, list[list[str]]]] = []
        for unit in self.units:
            is_table = unit[0] in self.tables
            size = self.unit_rows(unit) if is_table else len(self.targets[unit[0]])
            if self.draw_groups and self.draw_groups[-1][:2] == (size, is_table):
                self.draw_groups[-1][3].append(unit)
            else:
                self.draw_groups.append((size, is_table, self.width, [unit]))
            for lab in unit:
                self.first_row[lab] = self.width
            self.width += 1 if is_table else size
            self.values += 1 if is_table else len(radix_groups(size))

        slot_of = {}
        seen: dict[str, int] = {}
        for i, c in enumerate(cards):
            slot_of[i] = seen.get(c, 0)
            seen[c] = slot_of[i] + 1
        # `insertion_targets` loops from the first slot read to the last.
        reads: dict[str, list[int]] = {}
        for i in range(self.n - 1):
            if self.first_row[cards[i]] != self.first_row[cards[i + 1]]:
                for j in (i, i + 1):
                    reads.setdefault(cards[j], []).append(slot_of[j])
        self.flipped = {
            lab
            for lab, slots in reads.items()
            if lab not in self.tables
            and min(slots) + max(slots) < len(self.targets[lab]) - 1
        }
        for lab in self.flipped:
            self.targets[lab] = self.targets[lab][::-1].copy()
        for i, c in enumerate(cards):
            if c in self.flipped:
                slot_of[i] = len(self.targets[c]) - 1 - slot_of[i]
        # Boundaries inside a table unit, each filed under the earlier of
        # its two labels in unit order, and the boundaries between units.
        inner: dict[str, list[tuple[str, int, str, int]]] = {
            lab: [] for lab in self.tables
        }
        crossing: list[tuple[str, int, str, int]] = []
        self.code_runs: list[tuple[int, int]] = []
        rank = {lab: e for e, lab in enumerate(self.labels)}
        for i in range(self.n - 1):
            ci, cj = cards[i], cards[i + 1]
            qi, qj = slot_of[i], slot_of[i + 1]
            row = self.first_row[ci]
            if row != self.first_row[cj]:
                crossing.append((ci, qi, cj, qj))
            elif ci in self.tables:
                inner[min(ci, cj, key=rank.get)].append((ci, qi, cj, qj))
            else:
                lo, hi = row + min(qi, qj), row + max(qi, qj)
                if i and cards[i - 1] == ci:
                    # The run of pair i - 1 goes on, one code row further.
                    run = self.code_runs.pop()
                    lo, hi = min(lo, run[0]), max(hi, run[1])
                self.code_runs.append((lo, hi))
        self.runs: list[tuple[int, np.ndarray]] = []
        for unit in self.units:
            if unit[0] in self.tables:
                des = self._unit_descents(unit, inner)
                # Units with no descents inside add nothing.
                if des.any():
                    self.runs.append((self.first_row[unit[0]], des))
        unit_of = {lab: unit for unit in self.units for lab in unit}
        read_slots = dict.fromkeys(
            (c, q) for bound in crossing for c, q in (bound[:2], bound[2:])
        )
        self.columns = {
            (c, q): self._spread(unit_of[c], c, q)
            for c, q in read_slots
            if c in self.tables
        }
        # Per code label: first code row, targets, ascending read slots and
        # their first target row.
        self.decodes: list[tuple[int, np.ndarray, list[int], int]] = []
        target_row: dict[tuple[str, int], int] = {}
        self.height = self.width
        for lab in self.labels:
            if lab in self.tables:
                continue
            slots = sorted(q for c, q in read_slots if c == lab)
            if slots:
                tgt = self.targets[lab]
                self.decodes.append((self.first_row[lab], tgt, slots, self.height))
                for q in slots:
                    target_row[lab, q] = self.height
                    self.height += 1

        def read(lab: str, slot: int) -> tuple[np.ndarray | None, int]:
            """The lookup (None: the row holds it) and buffer row giving the
            target of `slot`."""
            if lab in self.tables:
                return self.columns[lab, slot], self.first_row[lab]
            return None, target_row[lab, slot]

        self.mixed = [(*read(ci, qi), *read(cj, qj)) for ci, qi, cj, qj in crossing]

    def unit_rows(self, unit: list[str]) -> int:
        """The number of rows of a table unit."""
        return math.prod(len(self.tables[lab]) for lab in unit)

    def _unit_descents(
        self, unit: list[str], inner: dict[str, list[tuple[str, int, str, int]]]
    ) -> np.ndarray:
        """The descent table of a table unit, built label by label.

        Labels are added last to first.  Adding a label of s table rows
        in front of the r unit rows built so far gives s*r rows, row i*r+j
        pairing the label's row i with row j.  The new table is the outer
        sum of the label's own descents and the table so far (whose inner
        loop runs over the r rows), plus one comparison of two `_spread`
        columns per boundary between the label and a later one.
        """
        des = np.zeros(1, dtype=np.int16)
        for k in reversed(range(len(unit))):
            tab = self.tables[unit[k]]
            own = np.zeros(len(tab), dtype=np.int16)
            for ci, qi, cj, qj in inner[unit[k]]:
                if ci == cj:
                    own += tab[:, qi] > tab[:, qj]
            des = (own[:, None] + des).ravel()
            labels = unit[k:]
            for ci, qi, cj, qj in inner[unit[k]]:
                if ci != cj:
                    des += self._spread(labels, ci, qi) > self._spread(labels, cj, qj)
        return des

    def _spread(self, labels: list[str], lab: str, slot: int) -> np.ndarray:
        """The target of `lab`'s `slot` at each row of the unit of
        `labels`."""
        k = labels.index(lab)
        column = np.repeat(self.tables[lab][:, slot], self.unit_rows(labels[k + 1 :]))
        return np.tile(column, self.unit_rows(labels[:k]))

    def distinct_rows(self) -> dict[int, tuple[np.ndarray, np.ndarray | None]]:
        """Per table unit, keyed by its buffer row, the first row of each
        group of unit rows that agree in every column `descents` reads,
        and the size of each group (None when every group is a single
        row).  Groups come in lexicographic order of those columns: the
        unit's descent table, then its boundary columns in the order that
        the boundaries first read them.

        Each row becomes one int64 key.  A boundary column holds the
        targets of one slot of a label of m cards, and their ranks among
        that label's sorted targets, 0..m-1, sort like them.  A slot read
        at two boundaries is keyed once, as its second column cannot break
        a tie.  Keys in mixed radix, the descent count first and then base
        m per slot, therefore sort like the rows.  With at most m slots
        per label and m^m <= (m!)^2, they stay below n times the square of
        the unit's row count.
        """
        runs = dict(self.runs)
        out = {}
        for unit in self.units:
            if unit[0] not in self.tables:
                continue
            row = self.first_row[unit[0]]
            key = np.zeros(self.unit_rows(unit), dtype=np.int64)
            if row in runs:
                key += runs[row]
            for (lab, _), column in self.columns.items():
                if self.first_row[lab] == row:
                    key *= len(self.targets[lab])
                    key += np.searchsorted(self.targets[lab], column)
            _, first, mult = np.unique(key, return_index=True, return_counts=True)
            if len(first) == len(key):
                first, mult = np.arange(len(key)), None
            out[row] = (first, mult)
        return out

    def descents(self, rows: np.ndarray | list) -> np.ndarray:
        """Descent counts of the members whose buffer row `r` is `rows[r]`.

        Target rows are decoded into `rows` first.  `np.take` gathers
        through int16 row indices about twice as fast as fancy indexing,
        which first converts them to intp.
        """
        for row, tgt, slots, at in self.decodes:
            codes = rows[row : row + len(tgt)]
            insertion_targets(codes, slots, tgt, rows[at : at + len(slots)])
        des = np.zeros(len(rows[0]), dtype=np.int16)
        for r, tab in self.runs:
            des += np.take(tab, rows[r])
        for lo, hi in self.code_runs:
            ahead = rows[lo + 1 : hi + 1] > rows[lo:hi]
            des += ahead.sum(axis=0, dtype=np.int16)
        for left, i, right, j in self.mixed:
            a = rows[i] if left is None else np.take(left, rows[i])
            b = rows[j] if right is None else np.take(right, rows[j])
            des += a > b
        return des

    def sample_counts(
        self, sizes: list[int], generators: Iterable[np.random.Generator]
    ) -> np.ndarray:
        """Descent histogram of uniform members drawn by a run of blocks.

        Block `i` draws `sizes[i]` members from the `i`-th generator, in
        calls of at most `_DRAW_CELLS // values` members, units in
        `self.units` order (see `_draw`).  Members of successive blocks
        fill the columns of one `(height, columns)` buffer, which
        `descents` scores whenever the next call would overflow it.  The
        buffer holds as many whole calls as fit in about `_SCORE_CELLS`
        draw cells (target rows not counted), at most `_SCORE_COLUMNS`
        columns, plus `_DRAW_CELLS // width` columns: its width at one
        random value per draw row.
        """
        counts = np.zeros(self.n, dtype=np.int64)
        columns = min(-(-_SCORE_CELLS // self.width), _SCORE_COLUMNS)
        columns += max(1, _DRAW_CELLS // self.width)
        per_call = max(1, _DRAW_CELLS // self.values)
        columns = max(1, columns // per_call) * per_call
        buf = np.empty((self.height, columns), dtype=np.int16)
        fill = 0
        for size, gen in zip(sizes, generators, strict=True):
            for start in range(0, size, per_call):
                b = min(per_call, size - start)
                if fill + b > columns:
                    des = self.descents(buf[:, :fill])
                    counts += np.bincount(des, minlength=self.n)
                    fill = 0
                self._draw(gen, buf[:, fill : fill + b])
                fill += b
        if fill:
            counts += np.bincount(self.descents(buf[:, :fill]), minlength=self.n)
        return counts

    def _draw(self, gen: np.random.Generator, out: np.ndarray) -> None:
        """Draw one member into the draw rows of each column of `out`: one
        generator call per table group of `self.draw_groups`, and one per
        radix group of each code group (`draw_codes`)."""
        b = out.shape[1]
        for size, is_table, row, units in self.draw_groups:
            if is_table:
                draws = gen.integers(0, size, size=(len(units), b))
                out[row : row + len(units)] = draws
            else:
                draw_codes(gen, out[row : row + len(units) * size].reshape(-1, size, b))


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
    card = transition_cardinality(d1, d2)
    if card <= _PLAIN_ENUM_MAX:
        counts = _counts_plain(d1, d2)
    elif is_block(d2):
        counts = _coefficients_from_counts(target_counts(d1, d2))
    elif is_block(d1):
        counts = _coefficients_from_counts(source_counts(d1, d2))
    elif max(d1.counts.values()) > _TABLE_MAX_MULT:
        counts = _counts_plain(d1, d2)
    else:
        counts = _counts_vectorized(d1, d2)
    return DescentPolynomial(d1, d2, tuple(counts))


def exact_descent_polynomial(
    d1: Deck, d2: Deck, cap: int = 10**8
) -> DescentPolynomial:
    """Classify every permutation carrying `d1` onto `d2` by descents.

    A pair where either deck is a block deck is found by a DP at any
    size.  Any other pair is enumerated: it raises `CapExceededError`
    when the transition set is larger than `cap` (or than the int64
    tally allows).  Raises `SignatureMismatchError` when the decks hold
    different cards.  Results are memoized by deck pair, so repeated
    queries for the same pair are free.
    """
    if is_block(d1) or is_block(d2):
        transition_cardinality(d1, d2)
    else:
        _capped_cardinality(d1, d2, min(cap, _COUNT_MAX))
    return _exact_polynomial_cached(d1, d2)


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
        rows = np.nonzero(self.codes == code)[0]
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
    interrupted one resumes from its last store.
    """
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
    counts = np.zeros(n, dtype=np.int64)
    first_block = 0
    if cache_dir is not None:
        # An unusable directory is refused before any sampling.
        cache_dir = _cache.ensure_dir(cache_dir)
        cached = _cache.load(cache_dir, key)
        if cached is not None and len(cached[0]) == n:
            stored, completed = cached
            counts = np.array(stored, dtype=np.int64)
            first_block = completed
    # A full cache hit draws nothing, so it builds no tables.
    if first_block < blocks:
        tables = _LabelTables(d1, d2, _SAMPLE_TABLE_MAX_MULT)
    step = blocks if cache_dir is None else _CHECKPOINT_BLOCKS
    for start in range(first_block, blocks, step):
        stop = min(start + step, blocks)
        run = range(start, stop)
        counts += tables.sample_counts(
            [min(_BLOCK_SAMPLES, samples - b * _BLOCK_SAMPLES) for b in run],
            (substream(seed, PURPOSE_HISTOGRAM, b) for b in run),
        )
        if cache_dir is not None:
            _cache.store(cache_dir, key, [int(c) for c in counts], stop)
    return DescentHistogram(
        d1, d2, tuple(int(c) for c in counts), samples, seed
    )


# ---------------------------------------------------------------------------
# Inverting probabilities back to coefficients


def _coefficients_from_counts(counts: list) -> list:
    """c_0..c_{n-1} from count(a) = a^n * P(a) = sum_d c_d C(a+n-d-1, n)
    at a = 1..n, as `blockdp` counts them.

    At packet count a, degree a - 1 weighs 1 and higher degrees 0, so
    forward substitution solves the system exactly, in ints or
    `Fraction`s alike.
    """
    n = len(counts)
    # Degree d weighs C(a+n-d-1, n) = weights[n - a + d] at packet count a.
    weights, _ = shuffle_weights(n, n)
    coeffs: list = []
    for a, count in enumerate(counts, start=1):
        coeffs.append(count - sum(map(operator.mul, coeffs, weights[n - a :])))
    return coeffs


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
    coeffs = _coefficients_from_counts(
        [Fraction(p) * a**n for a, p in enumerate(probabilities, start=1)]
    )
    for d, val in enumerate(coeffs):
        if val.denominator != 1 or val < 0:
            raise InconsistentProbabilitiesError(
                f"degree {d} coefficient resolves to {val}"
            )
    return tuple(int(val) for val in coeffs)


# ---------------------------------------------------------------------------
# Distinct-card reference distribution


@lru_cache(maxsize=None)
def eulerian_row(n: int) -> tuple[int, ...]:
    """Counts of n-card permutations by descent number (degrees 0..n-1)."""
    if n < 1:
        raise ValueError("need at least one card")
    row = [1]
    for m in range(2, n + 1):
        # Inserting card m into an (m-1)-card permutation with d descents
        # keeps d in d + 1 of the m gaps and adds one in the other m - 1 - d.
        row = [
            (d + 1) * below + (m - d) * left
            for d, (below, left) in enumerate(zip(row + [0], [0] + row))
        ]
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
