"""Difference chains of upsets and the alternation degree.

Any subset of a finite poset is a nested difference of a decreasing chain of
upsets, and there is a canonical least such chain.  The chain is governed by
the alternation degree of an element: the length of the longest strictly
increasing sequence that alternates between the target set (at odd steps) and
its complement, ending at the element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    NotDecreasingError,
    NotSublatticeError,
    NotUpsetError,
    TargetMismatchError,
)
from .lattice import ceiling
from .poset import ElemSet, FinPoset

EMPTY: ElemSet = frozenset()


@dataclass(frozen=True)
class DiffChain:
    """A decreasing chain of upsets, read as a nested set difference.

    Odd positions (1st, 3rd, ...) contribute positively.  Construction
    validates that every component is an upset and that the chain decreases
    under inclusion.
    """

    poset: FinPoset
    sets: tuple[ElemSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        prev: ElemSet | None = None
        for i, s in enumerate(self.sets):
            if not self.poset.is_upset(s):
                raise NotUpsetError(f"component {i + 1} is not an upset")
            if prev is not None and not s <= prev:
                raise NotDecreasingError(f"component {i + 1} is not below component {i}")
            prev = s

    def __len__(self) -> int:
        return len(self.sets)

    @property
    def pairs(self) -> int:
        """Number of positive/negative pairs when padded to even length."""
        return (len(self.sets) + 1) // 2

    def padded(self) -> tuple[ElemSet, ...]:
        """The components, padded with the empty set to even length."""
        if len(self.sets) % 2:
            return self.sets + (EMPTY,)
        return self.sets


def evaluate(chain: DiffChain) -> ElemSet:
    """Value of the nested difference G1 - (G2 - (G3 - ...)).

    For a decreasing chain this coincides with the disjoint union of the
    pairwise differences G1-G2, G3-G4, ...; both readings are computed and
    compared.
    """
    nested: ElemSet = EMPTY
    for s in reversed(chain.sets):
        nested = s - nested
    comps = chain.padded()
    union: set[int] = set()
    for i in range(0, len(comps), 2):
        part = comps[i] - comps[i + 1]
        if union & part:
            raise AssertionError("difference pairs must be disjoint")
        union |= part
    if nested != union:
        raise AssertionError("nested and disjoint readings must agree")
    return nested


# ----- alternation degree ------------------------------------------------


def degrees(poset: FinPoset, members: Iterable[int]) -> tuple[int, ...]:
    """Alternation degree of every element, by one sweep in a linear extension.

    The degree of x is the greatest r such that some strictly increasing
    sequence p1 < ... < pr = x lies in ``members`` exactly at odd positions;
    it is 0 when x is not above any member.
    """
    members = poset._check_subset(members)
    deg = [0] * poset.n
    for x in poset.linear_extension():
        below = poset.down[x] - {x}
        if x in members:
            best = 0
            for y in below:
                if y not in members and deg[y] > best:
                    best = deg[y]
            deg[x] = best + 1
        else:
            best = 0
            for y in below:
                if y in members and deg[y] > best:
                    best = deg[y]
            deg[x] = best + 1 if best else 0
    return tuple(deg)


def degree(poset: FinPoset, members: Iterable[int], x: int) -> int:
    """Alternation degree of a single element."""
    poset._check_elem(x)
    return degrees(poset, members)[x]


# ----- canonical chain ---------------------------------------------------


def canonical_chain(poset: FinPoset, target: Iterable[int]) -> DiffChain:
    """The least decreasing chain of upsets whose difference is ``target``.

    The first component closes the target upward; even components close up
    what lies outside the target, odd components what lies inside it.  The
    k-th component is exactly the set of elements of alternation degree >= k.
    The empty target yields the empty chain.
    """
    target = poset._check_subset(target)
    if not target:
        return DiffChain(poset, ())
    comps: list[ElemSet] = [poset.upset_closure(target)]
    while True:
        if len(comps) % 2:
            comps.append(poset.upset_closure(comps[-1] - target))
        else:
            nxt = poset.upset_closure(comps[-1] & target)
            if not nxt:
                break
            comps.append(nxt)
    return DiffChain(poset, tuple(comps))


def coheyting_chain(poset: FinPoset, target: Iterable[int]) -> DiffChain:
    """The same chain, phrased through the lattice-side ceiling operator.

    Starts from the ceiling of the target and alternates subtract-then-ceil
    with meet-then-ceil until the odd step reaches bottom.  Exposed separately
    from :func:`canonical_chain` so the two routes can be cross-checked.
    """
    target = poset._check_subset(target)
    if not target:
        return DiffChain(poset, ())
    comps: list[ElemSet] = [ceiling(poset, target)]
    while True:
        if len(comps) % 2:
            comps.append(ceiling(poset, comps[-1] - target))
        else:
            nxt = ceiling(poset, comps[-1] & target)
            if not nxt:
                break
            comps.append(nxt)
    return DiffChain(poset, tuple(comps))


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
    target = poset._check_subset(target)
    if competitor.poset != poset:
        raise TargetMismatchError("competitor chain lives on a different poset")
    if evaluate(competitor) != target:
        raise TargetMismatchError(
            f"competitor evaluates to {sorted(evaluate(competitor))}, "
            f"not {sorted(target)}"
        )
    canon = canonical_chain(poset, target)
    comp = competitor.padded()
    can = canon.padded()
    component_failures = []
    for i in range(len(comp)):
        k_i = can[i] if i < len(can) else EMPTY
        if not k_i <= comp[i]:
            component_failures.append(i + 1)
    prefix_failures = []
    comp_union: set[int] = set()
    can_union: set[int] = set()
    for pair in range(len(comp) // 2):
        comp_union |= comp[2 * pair] - comp[2 * pair + 1]
        if pair < len(can) // 2:
            can_union |= can[2 * pair] - can[2 * pair + 1]
        if not comp_union <= can_union:
            prefix_failures.append(pair + 1)
    pairs_ok = competitor.pairs >= canon.pairs
    ok = pairs_ok and not component_failures and not prefix_failures
    return MinimalityReport(
        ok=ok,
        canonical=canon,
        competitor_pairs=competitor.pairs,
        canonical_pairs=canon.pairs,
        component_failures=tuple(component_failures),
        prefix_failures=tuple(prefix_failures),
    )


# ----- closure in a sublattice -------------------------------------------


def closure_in_sublattice(
    poset: FinPoset, family: Iterable[ElemSet], subset: Iterable[int]
) -> ElemSet:
    """Least member of a bounded sublattice of upsets containing ``subset``.

    ``family`` must consist of upsets, contain the empty set and the full
    carrier, and be closed under union and intersection; otherwise
    NotSublatticeError.  The result is the meet of all members above
    ``subset``.
    """
    subset = poset._check_subset(subset)
    members = {frozenset(s) for s in family}
    carrier = frozenset(range(poset.n))
    for s in members:
        if not poset.is_upset(s):
            raise NotUpsetError(f"family member {sorted(s)} is not an upset")
    if EMPTY not in members or carrier not in members:
        raise NotSublatticeError("family must contain the empty set and the carrier")
    for a in members:
        for b in members:
            if a | b not in members or a & b not in members:
                raise NotSublatticeError(
                    f"family not closed under union/intersection at "
                    f"{sorted(a)}, {sorted(b)}"
                )
    above = [s for s in members if subset <= s]
    least = carrier
    for s in above:
        least &= s
    if least not in members or not subset <= least:
        raise AssertionError("the meet above the subset must be a member containing it")
    return least
