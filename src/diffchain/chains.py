"""Difference chains of upsets and the alternation degree.

Any subset of a finite poset is a nested difference of a decreasing chain of
upsets, and there is a canonical least such chain.  The chain is governed by
the alternation degree of an element: the length of the longest strictly
increasing sequence that alternates between the target set (at odd steps) and
its complement, ending at the element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import (
    NotDecreasingError,
    NotUpsetError,
    TargetMismatchError,
)
from .poset import EMPTY, ElemSet, FinPoset, bits, mask_of


class DiffChain:
    """A decreasing chain of upsets, read as a nested set difference.

    Odd positions (1st, 3rd, ...) contribute positively.  The components are
    stored as bitmasks in ``masks``; ``sets`` gives them as frozensets, built
    on first access.  Construction validates that every component is an
    upset and that the chain decreases under inclusion.
    """

    def __init__(self, poset: FinPoset, sets: Iterable[Iterable[int]]):
        self._set(poset, tuple(mask_of(s, poset.n) for s in sets))

    @classmethod
    def _of_masks(cls, poset: FinPoset, masks: tuple[int, ...]) -> "DiffChain":
        chain = object.__new__(cls)
        chain._set(poset, masks)
        return chain

    def _set(self, poset: FinPoset, masks: tuple[int, ...]) -> None:
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

    def padded(self) -> tuple[ElemSet, ...]:
        """The components, padded with the empty set to even length."""
        return self.sets + (EMPTY,) * (len(self.masks) % 2)


def evaluate(chain: DiffChain) -> ElemSet:
    """Value of the nested difference G1 - (G2 - (G3 - ...)).

    For a decreasing chain this coincides with the disjoint union of the
    pairwise differences G1-G2, G3-G4, ...; both readings are computed and
    compared.
    """
    nested = 0
    for m in reversed(chain.masks):
        nested = m & ~nested
    comps = _padded(chain.masks)
    union = 0
    for i in range(0, len(comps), 2):
        part = comps[i] & ~comps[i + 1]
        if union & part:
            raise AssertionError("difference pairs must be disjoint")
        union |= part
    if nested != union:
        raise AssertionError("nested and disjoint readings must agree")
    return frozenset(bits(nested))


def _padded(masks: tuple[int, ...]) -> tuple[int, ...]:
    return masks + (0,) * (len(masks) % 2)


# ----- alternation degree ------------------------------------------------


def degrees(poset: FinPoset, members: Iterable[int]) -> tuple[int, ...]:
    """Alternation degree of every element, by one sweep in a linear extension.

    The degree of x is the greatest r such that some strictly increasing
    sequence p1 < ... < pr = x lies in ``members`` exactly at odd positions;
    it is 0 when x is not above any member.
    """
    members = mask_of(members, poset.n)
    deg = [0] * poset.n
    # best_in[x] / best_out[x]: greatest degree of a member / non-member at or
    # below x, read off the Hasse lower covers.  A witness ending below x on
    # x's own side can end at x instead, so x's degree is that side's maximum.
    best_in = [0] * poset.n
    best_out = [0] * poset.n
    for x in poset.order:
        inside = outside = 0
        for y in poset.lower[x]:
            if best_in[y] > inside:
                inside = best_in[y]
            if best_out[y] > outside:
                outside = best_out[y]
        if members >> x & 1:
            deg[x] = best_in[x] = outside + 1
            best_out[x] = outside
        else:
            deg[x] = best_out[x] = inside + 1 if inside else 0
            best_in[x] = inside
    return tuple(deg)


def degree(poset: FinPoset, members: Iterable[int], x: int) -> int:
    """Alternation degree of a single element."""
    poset._check_elem(x)
    return degrees(poset, members)[x]


# ----- canonical chain ---------------------------------------------------


def canonical_chain(poset: FinPoset, target: Iterable[int]) -> DiffChain:
    """The least decreasing chain of upsets whose difference is ``target``.

    The i-th component is the level set of elements of alternation degree
    >= i, padded with the empty set to even length: the first closes the
    target upward, even ones close up what lies outside the target, odd ones
    what lies inside it.  The empty target yields the empty chain.
    """
    deg = degrees(poset, target)
    levels = [0] * (max(deg, default=0) + 1)
    for x, d in enumerate(deg):
        levels[d] |= 1 << x
    for d in range(len(levels) - 2, 0, -1):
        levels[d] |= levels[d + 1]
    return DiffChain._of_masks(poset, _padded(tuple(levels[1:])))


# ----- minimality --------------------------------------------------------


@dataclass(frozen=True)
class MinimalityReport:
    """Outcome of checking a competitor chain against the canonical one.

    ``ok`` summarizes the three conditions: the competitor has at least as
    many pairs, dominates the canonical chain componentwise, and its partial
    difference unions never overtake the canonical ones.
    """

    ok: bool
    canonical: DiffChain
    competitor_pairs: int
    canonical_pairs: int
    component_failures: tuple[int, ...]
    prefix_failures: tuple[int, ...]

    @property
    def pair_count_ok(self) -> bool:
        return self.competitor_pairs >= self.canonical_pairs


def verify_minimality(
    poset: FinPoset, target: Iterable[int], competitor: DiffChain
) -> MinimalityReport:
    """Check that the canonical chain sits below a competitor chain.

    The competitor must be a decreasing chain of upsets evaluating to
    ``target`` (otherwise TargetMismatchError).  The report records which
    components fail to contain their canonical counterpart and which prefix
    unions of differences are not dominated by the canonical ones.
    """
    if competitor.poset != poset:
        raise TargetMismatchError("competitor chain lives on a different poset")
    value, target = evaluate(competitor), poset._check_subset(target)
    if value != target:
        raise TargetMismatchError(
            f"competitor evaluates to {sorted(value)}, not {sorted(target)}"
        )
    canon = canonical_chain(poset, target)
    comp = _padded(competitor.masks)
    can = (_padded(canon.masks) + (0,) * len(comp))[: len(comp)]
    component_failures = tuple(i + 1 for i, (k, c) in enumerate(zip(can, comp)) if k & ~c)
    prefix_failures = []
    comp_union = can_union = 0
    for i in range(0, len(comp), 2):
        comp_union |= comp[i] & ~comp[i + 1]
        can_union |= can[i] & ~can[i + 1]
        if comp_union & ~can_union:
            prefix_failures.append(i // 2 + 1)
    ok = competitor.pairs >= canon.pairs and not component_failures and not prefix_failures
    return MinimalityReport(ok, canon, competitor.pairs, canon.pairs,
                            component_failures, tuple(prefix_failures))

