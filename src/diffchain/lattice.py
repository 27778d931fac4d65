"""The lattice of upward-closed sets of a finite poset, and its dual.

The family of all upsets of a finite poset is a distributive lattice; the
poset can be recovered from it as the join-irreducible members ordered by
reverse inclusion.  The lattice also carries a co-Heyting subtraction
``a / b`` = least upset c with a <= b | c, computed pointwise as the upward
closure of the set difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import CapacityError, NotUpsetError
from .poset import ElemSet, FinPoset, bits, mask_of

DEFAULT_UPSET_CAP = 1 << 20


@dataclass(frozen=True)
class UpsetLattice:
    """All upsets of a poset, materialized in a fixed order.

    The member order is by (size, sorted elements), so equal posets produce
    byte-identical listings.
    """

    poset: FinPoset
    upsets: tuple[ElemSet, ...]
    _index: dict[ElemSet, int] = field(compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self._index.update({u: i for i, u in enumerate(self.upsets)})

    def __contains__(self, subset: ElemSet) -> bool:
        return frozenset(subset) in self._index

    def __len__(self) -> int:
        return len(self.upsets)


def upsets_of(poset: FinPoset, cap: int = DEFAULT_UPSET_CAP) -> UpsetLattice:
    """Materialize every upset of ``poset``.

    Adds the elements maximal-first: the upsets inside the elements added so
    far are kept, and each gains ``x`` when it already holds everything
    strictly above ``x``.  Raises CapacityError as soon as more than ``cap``
    upsets would be produced.
    """
    found = [0]
    for x in reversed(poset.order):
        above = poset.upm[x] ^ 1 << x
        grown = [u | 1 << x for u in found if not above & ~u]
        if len(found) + len(grown) > cap:
            raise CapacityError(f"more than {cap} upsets")
        found += grown
    members = sorted((frozenset(bits(u)) for u in found), key=lambda u: (len(u), sorted(u)))
    return UpsetLattice(poset, tuple(members))


def join_irreducibles(lattice: UpsetLattice) -> FinPoset:
    """The poset of join-irreducible lattice members under reverse inclusion.

    A member is join-irreducible when it is not the union of the members
    strictly below it (this excludes the empty set).  For an upset lattice
    the result is isomorphic to the underlying poset.
    """
    masks = [mask_of(u, lattice.poset.n) for u in lattice.upsets]
    members = []
    for u, m in zip(lattice.upsets, masks):
        below = 0
        for other in masks:
            if other != m and not other & ~m:
                below |= other
        if below != m:
            members.append(u)
    members.sort(key=lambda u: (len(u), sorted(u)))
    # reverse inclusion: smaller upsets sit higher
    return FinPoset([frozenset(j for j, v in enumerate(members) if v <= u) for u in members])


# ----- co-Heyting structure ----------------------------------------------


def coheyting_minus(poset: FinPoset, a: Iterable[int], b: Iterable[int]) -> ElemSet:
    """Co-Heyting subtraction on upsets: least c with a <= b | c.

    Both arguments must be upsets; the value is the upward closure of the
    pointwise difference.
    """
    a = frozenset(a)
    b = frozenset(b)
    for name, s in (("left", a), ("right", b)):
        if not poset.is_upset(s):
            raise NotUpsetError(f"{name} argument {sorted(s)} is not an upset")
    return poset.upset_closure(a - b)


# ----- poset isomorphism -------------------------------------------------


def is_isomorphic(p: FinPoset, q: FinPoset) -> bool:
    """Order-isomorphism test by color refinement plus backtracking."""
    if p.n != q.n:
        return False
    sig_p, sig_q = _joint_signatures(p, q)
    if sorted(sig_p) != sorted(sig_q):
        return False
    # candidate images per element, most constrained first
    cands = [[j for j in range(q.n) if sig_q[j] == sig_p[i]] for i in range(p.n)]
    order = sorted(range(p.n), key=lambda i: len(cands[i]))
    image: dict[int, int] = {}
    used: set[int] = set()
    # backtracking with an explicit stack: tried[k] counts the candidates
    # of order[k] already tried at the current branch
    tried = [0] * p.n
    k = 0
    while k < p.n:
        i = order[k]
        if i in image:  # back from a dead end deeper down
            used.discard(image.pop(i))
        for c in range(tried[k], len(cands[i])):
            j = cands[i][c]
            if j not in used and all(
                (p.upm[i] >> i2 & 1) == (q.upm[j] >> j2 & 1)
                and (p.upm[i2] >> i & 1) == (q.upm[j2] >> j & 1)
                for i2, j2 in image.items()
            ):
                image[i] = j
                used.add(j)
                tried[k] = c + 1
                k += 1
                break
        else:
            if k == 0:
                return False
            tried[k] = 0
            k -= 1
    return True


def _joint_signatures(p: FinPoset, q: FinPoset) -> tuple[list[int], list[int]]:
    """Stable color refinement over both posets with a shared color table.

    Classes only ever split, so the partition is stable as soon as the
    number of colors stops growing.  When the first colors already tell
    apart the elements of each poset, refining is skipped: every element
    has at most one candidate image, which the backtracking checks.
    """
    colors: dict = {}
    sig_p, sig_q = (
        [colors.setdefault((r.upm[i].bit_count(), r.downm[i].bit_count()), len(colors))
         for i in range(r.n)]
        for r in (p, q)
    )
    if len(set(sig_p)) == p.n and len(set(sig_q)) == q.n:
        return sig_p, sig_q
    count = len(colors)
    for _ in range(p.n):
        step: dict = {}

        def refine(r: FinPoset, sig: list[int]) -> list[int]:
            return [
                step.setdefault((
                    sig[i],
                    tuple(sorted(sig[j] for j in bits(r.upm[i] ^ 1 << i))),
                    tuple(sorted(sig[j] for j in bits(r.downm[i] ^ 1 << i))),
                ), len(step))
                for i in range(r.n)
            ]

        sig_p = refine(p, sig_p)
        sig_q = refine(q, sig_q)
        if len(step) == count:
            break
        count = len(step)
    return sig_p, sig_q
