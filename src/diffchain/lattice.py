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
    strictly below it (this excludes the empty set).  Element i of the
    result is the i-th join-irreducible member in the order by (size,
    sorted elements).  For an upset lattice these members are the principal
    upsets ↑x, and x ↦ ↑x is an isomorphism from the underlying poset.
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
