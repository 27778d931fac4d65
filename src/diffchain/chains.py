"""Difference chains of upsets and the alternation degree.

Any subset of a finite poset is a nested difference of a decreasing chain of
upsets, and there is a canonical least such chain.  The chain is governed by
the alternation degree of an element: the length of the longest strictly
increasing sequence that alternates between the target set (at odd steps) and
its complement, ending at the element.

The canonical chain is one instance of a recurrence that works for any
closure operator: ``canonical_terms`` and ``canonical_pairs`` take the
closure and the set operations as functions, and the language side runs
them with the k-variable closure of regular languages.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator

from .errors import NotDecreasingError, NotUpsetError
from .poset import ElemSet, FinPoset, bits, flags_of, mask_of


class DiffChain:
    """A decreasing chain of upsets, read as a nested set difference.

    Odd positions (1st, 3rd, ...) contribute positively.  The components are
    stored as bitmasks in ``masks``; ``sets`` gives them as frozensets, built
    on first access.  ``DiffChain(poset, sets)`` validates that every
    component is an upset and that the chain decreases under inclusion.
    """

    def __init__(self, poset: FinPoset, sets: Iterable[Iterable[int]]):
        masks = tuple(mask_of(s, poset.n) for s in sets)
        carrier = prev = (1 << poset.n) - 1
        for i, m in enumerate(masks):
            # each component is checked as an upset inside its predecessor,
            # which touches every element once over the whole chain
            outer = prev if not m & ~prev else carrier
            if not poset._upset_within(m, outer):
                raise NotUpsetError(f"component {i + 1} is not an upset")
            if outer != prev:
                raise NotDecreasingError(f"component {i + 1} is not below component {i}")
            prev = m
        vars(self).update(poset=poset, masks=masks)

    @classmethod
    def _of_masks(cls, poset: FinPoset, masks: tuple[int, ...]) -> "DiffChain":
        """The chain of ``masks``, unchecked: a decreasing chain of upsets."""
        chain = object.__new__(cls)
        vars(chain).update(poset=poset, masks=masks)
        return chain

    @cached_property
    def sets(self) -> tuple[ElemSet, ...]:
        return tuple(frozenset(bits(m)) for m in self.masks)

    def __setattr__(self, name, value):
        raise AttributeError("DiffChain is immutable")

    def __eq__(self, other):
        if not isinstance(other, DiffChain):
            return NotImplemented
        return (self.poset, self.masks) == (other.poset, other.masks)

    def __hash__(self):
        return hash((self.poset, self.masks))

    def __repr__(self):
        return f"DiffChain(poset={self.poset!r}, sets={[bits(m) for m in self.masks]})"

    def __len__(self) -> int:
        return len(self.masks)

    @property
    def pairs(self) -> int:
        """Number of positive/negative pairs when padded to even length."""
        return (len(self.masks) + 1) // 2


def evaluate(chain: DiffChain) -> ElemSet:
    """Value of the nested difference G1 - (G2 - (G3 - ...)).

    Every ``DiffChain`` decreases, so this is also the disjoint union of the
    differences G1-G2, G3-G4, ... of the chain padded to even length.
    """
    nested = 0
    for m in reversed(chain.masks):
        nested = m & ~nested
    return frozenset(bits(nested))


# ----- alternation degree ------------------------------------------------


def degrees(poset: FinPoset, members: Iterable[int]) -> tuple[int, ...]:
    """Alternation degree of every element: one sweep of ``lower`` in ``order``.

    The degree of x is the greatest r such that some strictly increasing
    sequence p1 < ... < pr = x lies in ``members`` exactly at odd positions;
    it is 0 when x is not above any member.
    """
    chosen = flags_of(members, poset.n)
    deg = [0] * poset.n
    # best_in[x] / best_out[x]: greatest degree of a member / non-member at or
    # below x, the maxima over x's lower edges (any edges that generate the
    # order give the same).  A witness below x on x's side can end at x.
    best_in = [0] * poset.n
    best_out = [0] * poset.n
    for x in poset.order:
        inside = outside = 0
        for y in poset.lower[x]:
            if best_in[y] > inside:
                inside = best_in[y]
            if best_out[y] > outside:
                outside = best_out[y]
        if chosen[x]:
            deg[x] = best_in[x] = outside + 1
            best_out[x] = outside
        else:
            deg[x] = best_out[x] = inside + 1 if inside else 0
            best_in[x] = inside
    return tuple(deg)


# ----- canonical chain ---------------------------------------------------


def canonical_chain(poset: FinPoset, target: Iterable[int]) -> DiffChain:
    """The least decreasing chain of upsets whose difference is ``target``.

    The i-th component is the level set of elements of alternation degree
    >= i, padded with the empty set to even length: the first closes the
    target upward, even ones close up what lies outside the target, odd ones
    what lies inside it.  The empty target yields the empty chain.  The
    components need no check: each level set holds the next one, and it is
    an upset because the degree grows along the order.
    """
    deg = degrees(poset, target)
    top = max(deg, default=0)
    # a shift per element would cost a pass over the mask: one buffer of
    # binary digits, greatest element first, gains each level's elements
    # from the top down and is read as one int per level
    digit_of: list[list[int]] = [[] for _ in range(top + 1)]
    for x, d in enumerate(deg):
        digit_of[d].append(~x)  # x's digit, counted from the end
    digits = bytearray(b"0") * poset.n
    masks = [0] * (top + top % 2)  # an odd top pads one empty level
    for d in range(top, 0, -1):
        for i in digit_of[d]:
            digits[i] = 49  # ord("1")
        masks[d - 1] = int(digits, 2)
    return DiffChain._of_masks(poset, tuple(masks))


# ----- the canonical recurrence over any closure ---------------------------


def canonical_terms(close: Callable, minus: Callable, meet: Callable, target) -> Iterator:
    r"""The canonical chain of ``target`` under a closure operator C, one
    term per ``next()``: C(L), then C(prev \ L) and C(prev ∩ L) in turn,
    where L is the target.  A term is computed only when it is asked for.

    C must be extensive, monotone and idempotent; ``minus`` and ``meet`` are
    set difference and intersection.  Each term lies inside the matching
    term of every other chain that gives L.  Suppose L = G1 - (G2 - (G3 -
    ...)) for closed G1 ⊇ G2 ⊇ ... .  Then G1 \ L ⊆ G2, G2 ∩ L ⊆ G3, and so
    on alternately.  C(L) ⊆ G1, since G1 is closed and contains L.  If a
    term lies inside Gi, the next one closes a set inside Gi \ L or Gi ∩ L,
    so it lies inside G(i+1).  So a canonical term is empty wherever the
    matching Gi is: no chain of closed sets gives L in fewer pairs.
    """
    term = close(target)
    while True:
        yield term
        term = close(minus(term, target))
        yield term
        term = close(meet(term, target))


def canonical_pairs(
    close: Callable, minus: Callable, meet: Callable, is_empty: Callable,
    target, max_m: int,
) -> tuple[list, int | None]:
    r"""The canonical chain of ``target`` (see ``canonical_terms``), up to
    the pair whose differences give the target.

    Returns the terms and the pair count m: 0 with no terms for an empty
    target; None when a pair repeats its odd term, with the pairs before
    it as the terms, or when ``max_m`` pairs were built without success.
    Terms are compared with ``==``: for ``minimize`` outputs over the same
    letters that is equality of languages, for bitmasks equality of sets.

    After m pairs C1 ⊇ C2 ⊇ ... ⊇ C2m, the differences give L exactly when
    C2m ∩ L is empty.  Every difference lies inside L, since C(2i) contains
    C(2i-1) \ L.  A member of L lies in C1, and if it lies in C(2i) for
    some i < m, it lies in C(2i) ∩ L ⊆ C(2i+1) too.  So unless it lies in
    C2m, the last term that holds it is odd, and that term's difference
    covers it.  A chain G of m pairs that gives L has G2m ∩ L empty, and
    C2m ⊆ G2m, so the canonical chain succeeds within m pairs too: its
    pair count is the least, and running out proves that no chain of at
    most ``max_m`` pairs exists.

    The odd term is a closure, so even = C(odd \ L) ⊆ C(odd) = odd, and the
    pair's difference is empty exactly when the two are equal.  Then odd
    is the closure of a nonempty part of L, which odd ∩ L contains, so the
    next odd term C(odd ∩ L) lies between odd and C(odd) = odd: the pair
    repeats forever, its terms meet L, and no chain of any length gives L.
    """
    if is_empty(target):
        return [], 0
    terms = canonical_terms(close, minus, meet, target)
    comps: list = []
    for pair in range(1, max_m + 1):
        odd, even = next(terms), next(terms)
        if odd == even:
            break
        comps += [odd, even]
        if is_empty(meet(even, target)):
            return comps, pair
    return comps, None
