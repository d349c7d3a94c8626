"""Decks with repeated labels, and the position maps between them.

A deck is a word over its labels: a tuple of label tokens, one per card,
compared and hashed as plain strings.  Label order, wherever the library
needs one, is first appearance in a deck, never the text of the tokens.

A rearrangement of one deck into another is described by a permutation
`p` acting on positions: the card at source position `i` travels to
target position `p(i)`.  The set of permutations that carry deck `d1`
onto deck `d2` card-for-card is what the rest of the library sums over;
its size is the product of factorials of the label counts.
"""

from __future__ import annotations

import itertools
import math
import numbers
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

from .errors import CapExceededError, DeckParseError, SignatureMismatchError
from .rng import PURPOSE_TRANSITION_SAMPLE, PermutationStream

if TYPE_CHECKING:
    import numpy as np

# ---------------------------------------------------------------------------
# Core types


def _frozen(self, name: str, *value: object) -> None:
    """`__setattr__` and `__delattr__` of the immutable record classes."""
    raise AttributeError(f"cannot set or delete field {name!r}")


class Deck:
    """An ordered sequence of cards, each one its label token.

    Immutable, compared and hashed by `cards`, as a frozen dataclass is;
    a plain class rather than one keeps `dataclasses` out of start-up.
    """

    cards: tuple[str, ...]

    def __init__(self, cards: tuple[str, ...]) -> None:
        object.__setattr__(self, "cards", cards)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.cards == other.cards

    def __hash__(self) -> int:
        return hash((self.cards,))

    def __repr__(self) -> str:
        return f"Deck(cards={self.cards!r})"

    __setattr__ = __delattr__ = _frozen

    @property
    def n(self) -> int:
        return len(self.cards)

    @cached_property
    def counts(self) -> dict[str, int]:
        """Label -> multiplicity, keyed in first-appearance order."""
        out: dict[str, int] = {}
        for c in self.cards:
            out[c] = out.get(c, 0) + 1
        return out

    @cached_property
    def signature(self) -> tuple[tuple[str, int], ...]:
        """Sorted (label, count) pairs; equal iff same multiset of cards."""
        return tuple(sorted(self.counts.items()))

    def __str__(self) -> str:
        return deck_text(self)


class Permutation:
    """A bijection on positions 1..n, stored as the tuple of images;
    immutable, compared and hashed by `images`."""

    images: tuple[int, ...]

    def __init__(self, images: tuple[int, ...]) -> None:
        n = len(images)
        seen = [False] * n
        for j in images:
            if not 1 <= j <= n or seen[j - 1]:
                raise ValueError(f"not a bijection on 1..{n}: {images}")
            seen[j - 1] = True
        object.__setattr__(self, "images", images)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash((self.images,))

    def __repr__(self) -> str:
        return f"Permutation(images={self.images!r})"

    __setattr__ = __delattr__ = _frozen

    @property
    def n(self) -> int:
        return len(self.images)

    def __str__(self) -> str:
        return ",".join(str(j) for j in self.images)


# ---------------------------------------------------------------------------
# Parsing and printing

_DELIMS = set(",^()")


def parse_deck(text: str) -> Deck:
    """Parse a deck expression.

    Grammar: a comma-separated list of terms; a term is a label token or
    a parenthesized group of tokens, optionally followed by `^count`.
    `1,1,2,2`, `1^2,2^2`, `(R,B)^26`, and `A^3` are all valid.  Spaces
    around delimiters are ignored.  Tokens may not contain commas,
    carets, parentheses, or whitespace.
    """
    cards: list[str] = []
    i = 0
    n = len(text)

    def skip_ws(k: int) -> int:
        while k < n and text[k].isspace():
            k += 1
        return k

    def read_token(k: int) -> tuple[str, int]:
        start = k
        while k < n and not text[k].isspace() and text[k] not in _DELIMS:
            k += 1
        if k == start:
            raise DeckParseError("expected a label token", start)
        return text[start:k], k

    while True:
        i = skip_ws(i)
        group: list[str]
        if i < n and text[i] == "(":
            i = skip_ws(i + 1)
            group = []
            while True:
                tok, i = read_token(i)
                group.append(tok)
                i = skip_ws(i)
                if i < n and text[i] == ",":
                    i = skip_ws(i + 1)
                    continue
                if i < n and text[i] == ")":
                    i += 1
                    break
                raise DeckParseError("expected ',' or ')' in group", i)
        else:
            tok, i = read_token(i)
            group = [tok]
        count = 1
        i = skip_ws(i)
        if i < n and text[i] == "^":
            i = skip_ws(i + 1)
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i == start:
                raise DeckParseError("expected a count after '^'", start)
            count = int(text[start:i])
            if count < 1:
                raise DeckParseError("count must be at least 1", start)
        cards.extend(group * count)
        i = skip_ws(i)
        if i == n:
            break
        if text[i] != ",":
            raise DeckParseError(f"unexpected character {text[i]!r}", i)
        i += 1
        if skip_ws(i) == n:
            raise DeckParseError("trailing comma", i - 1)
    if not cards:
        raise DeckParseError("empty deck expression", 0)
    return Deck(tuple(cards))


def _writable(tok: object) -> bool:
    """Whether `parse_deck` reads `tok` back as one label token."""
    return (
        isinstance(tok, str)
        and tok != ""
        and not any(ch.isspace() or ch in _DELIMS for ch in tok)
    )


def deck_text(deck: Deck) -> str:
    """Canonical expression for `deck`: run-length encoded, comma separated.

    Raises `DeckParseError` for a card that is not a label token
    `parse_deck` could read back, such as one holding a comma.
    """
    parts: list[str] = []
    i = 0
    cards = deck.cards
    while i < len(cards):
        j = i
        while j < len(cards) and cards[j] == cards[i]:
            j += 1
        tok = cards[i]
        if not _writable(tok):
            raise DeckParseError(f"card {i + 1} ({tok!r}) is not a label token")
        parts.append(tok if j - i == 1 else f"{tok}^{j - i}")
        i = j
    return ",".join(parts)


# ---------------------------------------------------------------------------
# Permutation algebra


def descents(p: Permutation) -> int:
    """Number of positions i with p(i) > p(i+1)."""
    im = p.images
    return sum(1 for i in range(len(im) - 1) if im[i] > im[i + 1])


def apply(p: Permutation, deck: Deck) -> Deck:
    """Rearrange `deck` by sending the card at position i to position p(i)."""
    if p.n != deck.n:
        raise ValueError(f"length mismatch: permutation {p.n}, deck {deck.n}")
    out = [""] * deck.n
    for i, card in enumerate(deck.cards):
        out[p.images[i] - 1] = card
    return Deck(tuple(out))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.n
    for i, j in enumerate(p.images):
        inv[j - 1] = i + 1
    return Permutation(tuple(inv))


def compose(first: Permutation, then: Permutation) -> Permutation:
    """The permutation equivalent to applying `first`, then `then`."""
    if first.n != then.n:
        raise ValueError("length mismatch")
    return Permutation(tuple(then.images[j - 1] for j in first.images))


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


# ---------------------------------------------------------------------------
# Transition sets


def is_transition(p: Permutation, source: Deck, target: Deck) -> bool:
    """Does `p` carry `source` onto `target` card-for-card?"""
    if p.n != source.n or source.n != target.n:
        return False
    cards = source.cards
    tgt = target.cards
    return all(cards[i] == tgt[p.images[i] - 1] for i in range(p.n))


def _check_same_multiset(source: Deck, target: Deck) -> None:
    if source.signature != target.signature:
        raise SignatureMismatchError(
            f"decks do not hold the same cards: {deck_text(source)} vs {deck_text(target)}"
        )


def transition_cardinality(source: Deck, target: Deck) -> int:
    """Number of permutations carrying `source` onto `target`."""
    _check_same_multiset(source, target)
    out = 1
    for c in source.counts.values():
        out *= math.factorial(c)
    return out


def label_positions(deck: Deck) -> dict[str, tuple[int, ...]]:
    """Label -> sorted 1-based positions, keyed in first-appearance order."""
    out: dict[str, list[int]] = {}
    for i, c in enumerate(deck.cards):
        out.setdefault(c, []).append(i + 1)
    return {c: tuple(v) for c, v in out.items()}


def _capped_cardinality(source: Deck, target: Deck, cap: int) -> int:
    """`transition_cardinality`, raising `CapExceededError` above `cap`."""
    card = transition_cardinality(source, target)
    if card > cap:
        raise CapExceededError(
            f"transition set has {card} elements, above the cap of {cap}"
        )
    return card


def _transition_images(source: Deck, target: Deck) -> Iterator[list[int]]:
    """Yield the images of every permutation carrying `source` onto
    `target` (decks holding the same cards), in the order documented on
    `enumerate_transitions`.  One list is refilled and yielded for every
    member, so copy it to keep it.
    """
    src_pos = label_positions(source)
    tgt_pos = label_positions(target)
    slot_lists = list(src_pos.values())
    per_label = [itertools.permutations(tgt_pos[lab]) for lab in src_pos]
    images = [0] * source.n
    for choice in itertools.product(*per_label):
        for slots, assignment in zip(slot_lists, choice):
            for slot, j in zip(slots, assignment):
                images[slot - 1] = j
        yield images


def enumerate_transitions(
    source: Deck, target: Deck, cap: int = 10**8
) -> tuple[Permutation, ...]:
    """Materialize every permutation carrying `source` onto `target`.

    Ordering: labels are taken in first-appearance order of the source
    deck; for each label the bijections from its source slots to its
    (sorted) target positions run in lexicographic order; the first
    label's bijection varies slowest.  Raises `CapExceededError` when the
    transition count exceeds `cap`.
    """
    _capped_cardinality(source, target, cap)
    return tuple(
        Permutation(tuple(images))
        for images in _transition_images(source, target)
    )


def sample_uniform_transition(
    source: Deck,
    target: Deck,
    gen: PermutationStream | np.random.Generator | int,
) -> Permutation:
    """Draw uniformly from the permutations carrying `source` onto `target`.

    An int `gen` is a seed: the draw is the one the numpy Generator
    `substream(gen, PURPOSE_TRANSITION_SAMPLE)` would make, made in pure
    Python.
    """
    _check_same_multiset(source, target)
    if isinstance(gen, numbers.Integral):
        gen = PermutationStream(int(gen), PURPOSE_TRANSITION_SAMPLE)
    src_pos = label_positions(source)
    tgt_pos = label_positions(target)
    images = [0] * source.n
    for lab, slots in src_pos.items():
        targets = tgt_pos[lab]
        order = gen.permutation(len(targets))
        for slot, t in zip(slots, order):
            images[slot - 1] = targets[t]
    return Permutation(tuple(images))


# ---------------------------------------------------------------------------
# Arrangements of a multiset


def arrangement_count(deck: Deck) -> int:
    """Number of distinct orderings of the deck's cards."""
    out = math.factorial(deck.n)
    for c in deck.counts.values():
        out //= math.factorial(c)
    return out


def enumerate_arrangements(deck: Deck, cap: int = 10**7) -> Iterator[Deck]:
    """Yield every distinct ordering of the deck's cards.

    Order is lexicographic, ranking labels by their first appearance in
    `deck`, not by the text of their tokens.
    Raises `CapExceededError` when the arrangement count exceeds `cap`.
    """
    total = arrangement_count(deck)
    if total > cap:
        raise CapExceededError(
            f"deck has {total} arrangements, above the cap of {cap}"
        )

    def rec(counts: dict[str, int], prefix: list[str], left: int):
        if left == 0:
            yield Deck(tuple(prefix))
            return
        for lab in counts:
            if counts[lab] == 0:
                continue
            counts[lab] -= 1
            prefix.append(lab)
            yield from rec(counts, prefix, left - 1)
            prefix.pop()
            counts[lab] += 1

    yield from rec(dict(deck.counts), [], deck.n)


def sample_uniform_rearrangement(
    deck: Deck, gen: PermutationStream | np.random.Generator | int
) -> Deck:
    """Draw uniformly from the distinct orderings of the deck's cards.

    An int `gen` is a seed, drawn from as `sample_uniform_transition` does.
    """
    if isinstance(gen, numbers.Integral):
        gen = PermutationStream(int(gen), PURPOSE_TRANSITION_SAMPLE)
    cards = deck.cards
    return Deck(tuple([cards[i] for i in gen.permutation(deck.n)]))
