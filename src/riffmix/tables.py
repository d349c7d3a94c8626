"""The table engine: one pair's transition set, drawn and scored in units.

Exact enumeration (`descentpoly._counts_vectorized`) feeds `_LabelTables`
mixed-radix unit-row indices, and `descentpoly.mc_descent_histogram`
feeds it uniform draws; both score members with `_LabelTables.descents`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .codes import draw_codes, insertion_targets, radix_groups
from .deck import Deck, label_positions
from .descentpoly import _perm_table

# Consecutive table labels share one draw while their table sizes multiply
# to at most this, the number of indices an int16 buffer cell holds.
_UNIT_MAX_ROWS = 1 << 15
# Sampling draws about this many random values per generator call, and
# scores draws in batches of about this many buffer cells and at most this
# many columns: scoring takes about 16 bytes per column beside the buffer,
# more than the few cells of a column of table units.
_DRAW_CELLS = 1 << 13
_SCORE_CELLS = 1 << 17
_SCORE_COLUMNS = 1 << 13


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

