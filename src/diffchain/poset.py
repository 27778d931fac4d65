"""Finite posets on dense integer carriers, with upset-oriented set operations.

Elements are the integers ``0..n-1``.  Inside the package a subset is an int
bitmask (bit i set when i is a member); at the API boundary subsets are
plain ``frozenset[int]`` values, and the poset validates membership on every
operation that takes one.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, Sequence

from .errors import CycleError, RangeError

ElemSet = frozenset[int]

EMPTY: ElemSet = frozenset()


def bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(subset: Iterable[int], n: int) -> int:
    """The bitmask of ``subset``, after checking it lies in ``0..n-1``."""
    m = 0
    for i in subset:
        if not 0 <= i < n:
            raise RangeError(f"element {i} leaves the carrier 0..{n - 1}")
        m |= 1 << i
    return m


class FinPoset:
    """A finite partial order, stored as per-element up- and down-masks.

    ``upm[i]`` is the bitmask of the principal upset of ``i`` (including
    ``i`` itself) and ``downm[i]`` that of its principal downset; ``order``
    is a linear extension (minimal elements first) and ``lower[i]`` lists the
    Hasse lower covers of ``i``.  ``up`` and ``down`` give the principal
    sets as frozensets, built on first access.  Instances are immutable and
    hashable; two posets are equal when they have the same carrier size and
    the same order relation.
    """

    def __init__(self, up: Sequence[Iterable[int]]):
        upm = [mask_of(ups, len(up)) for ups in up]
        self._build([bits(m & ~(1 << i)) for i, m in enumerate(upm)])
        for i, m in enumerate(upm):
            if self.upm[i] != m:  # a reflexive, transitive relation is its own closure
                axiom = "transitive" if m >> i & 1 else "reflexive"
                raise ValueError(f"order not {axiom} at {i}")

    @classmethod
    def from_covers(cls, covers: Iterable[tuple[int, int]], n: int) -> "FinPoset":
        """Build the reflexive-transitive closure of a cover relation.

        Raises RangeError for indices outside ``0..n-1`` and CycleError when
        the covers contain a directed cycle.
        """
        if n < 0:
            raise RangeError("carrier size must be >= 0")
        succ: list[set[int]] = [set() for _ in range(n)]
        for i, j in covers:
            if not (0 <= i < n and 0 <= j < n):
                raise RangeError(f"cover ({i}, {j}) leaves the carrier 0..{n - 1}")
            if i == j:
                raise CycleError(f"cover ({i}, {i}) is a self-loop")
            succ[i].add(j)
        poset = object.__new__(cls)
        poset._build(succ)
        return poset

    def _build(self, succ: Sequence[Iterable[int]]) -> None:
        """Masks, order and Hasse covers of the order generated by ``succ``
        (each element's successors), proving it a partial order on the way."""
        n = len(succ)
        indeg = [0] * n
        for s in succ:
            for j in s:
                indeg[j] += 1
        # Kahn's algorithm: an element is ordered once all its predecessors
        # are, so a complete order proves the relation acyclic
        order = [i for i in range(n) if not indeg[i]]
        for i in order:
            for j in succ[i]:
                indeg[j] -= 1
                if not indeg[j]:
                    order.append(j)
        if len(order) < n:
            raise CycleError(f"covers contain a cycle through {_on_cycle(succ, indeg)}")
        upm = [0] * n
        lower: list[list[int]] = [[] for _ in range(n)]
        for i in reversed(order):
            m = 1 << i
            above = 0  # strictly above some successor, so no cover of i
            for j in succ[i]:
                m |= upm[j]
                above |= upm[j] ^ 1 << j
            upm[i] = m
            for j in succ[i]:
                if not above >> j & 1:
                    lower[j].append(i)
        # each up-mask holds its own element and, checked here in O(|succ|)
        # mask operations, the up-masks of its successors: reflexive, transitive
        for i, s in enumerate(succ):
            if any(upm[j] & ~upm[i] for j in s):
                raise ValueError(f"order not transitive at {i}")
        downm = [0] * n
        for x in order:
            for y in lower[x]:
                downm[x] |= downm[y]
            downm[x] |= 1 << x
        vars(self).update(
            n=n, upm=tuple(upm), downm=tuple(downm), order=tuple(order),
            lower=tuple(map(tuple, lower)), _hash=hash((n, tuple(upm))))

    @cached_property
    def up(self) -> tuple[ElemSet, ...]:
        return tuple(frozenset(bits(m)) for m in self.upm)

    @cached_property
    def down(self) -> tuple[ElemSet, ...]:
        return tuple(frozenset(bits(m)) for m in self.downm)

    def __setattr__(self, name, value):
        raise AttributeError("FinPoset is immutable")

    def __eq__(self, other):
        return isinstance(other, FinPoset) and (self.n, self.upm) == (other.n, other.upm)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FinPoset(n={self.n}, covers={self.covers()})"

    # ----- order queries -------------------------------------------------

    def leq(self, i: int, j: int) -> bool:
        self._check_elem(i)
        self._check_elem(j)
        return bool(self.upm[i] >> j & 1)

    def covers(self) -> list[tuple[int, int]]:
        """The Hasse relation: pairs (i, j) with i < j and nothing between."""
        return sorted((i, j) for j in range(self.n) for i in self.lower[j])

    def linear_extension(self) -> list[int]:
        """Element order compatible with the partial order (minimal first)."""
        return list(self.order)

    # ----- subset operations --------------------------------------------

    def _check_subset(self, subset: Iterable[int]) -> ElemSet:
        subset = frozenset(subset)
        if subset and (min(subset) < 0 or max(subset) >= self.n):
            raise RangeError(f"subset {sorted(subset)} leaves the carrier 0..{self.n - 1}")
        return subset

    def _upset_within(self, m: int, outer: int) -> bool:
        """Whether ``m``, a subset of the upset ``outer``, is itself an upset:
        nothing in ``outer - m`` may lie above a member of ``m``."""
        return not self._span(self.downm, outer & ~m) & m

    @staticmethod
    def _span(masks: Sequence[int], m: int) -> int:
        """The union of ``masks[i]`` over the members i of ``m``."""
        acc = 0
        for i in bits(m):
            acc |= masks[i]
        return acc

    def upset_closure(self, subset: Iterable[int]) -> ElemSet:
        """Least upward-closed set containing ``subset``."""
        return frozenset(bits(self._span(self.upm, mask_of(subset, self.n))))

    def downset_closure(self, subset: Iterable[int]) -> ElemSet:
        return frozenset(bits(self._span(self.downm, mask_of(subset, self.n))))

    def is_upset(self, subset: Iterable[int]) -> bool:
        return self._upset_within(mask_of(subset, self.n), (1 << self.n) - 1)

    def min_elements(self, subset: Iterable[int]) -> ElemSet:
        """Minimal elements of ``subset`` in the induced order."""
        m = mask_of(subset, self.n)
        return frozenset(i for i in bits(m) if self.downm[i] & m == 1 << i)

    def max_elements(self, subset: Iterable[int]) -> ElemSet:
        m = mask_of(subset, self.n)
        return frozenset(i for i in bits(m) if self.upm[i] & m == 1 << i)

    def is_convex(self, subset: Iterable[int]) -> bool:
        """True when every element between two members is itself a member."""
        m = mask_of(subset, self.n)
        return not self._span(self.upm, m) & self._span(self.downm, m) & ~m

    def _check_elem(self, i: int) -> None:
        if not (0 <= i < self.n):
            raise RangeError(f"element {i} leaves the carrier 0..{self.n - 1}")


def _on_cycle(succ: Sequence[Iterable[int]], indeg: list[int]) -> int:
    """An element on a cycle: every element Kahn's algorithm left unordered
    has an unordered predecessor, so walking back through those repeats."""
    pred = {j: i for i, s in enumerate(succ) if indeg[i] for j in s}
    x, seen = min(pred), set()
    while x not in seen:
        seen.add(x)
        x = pred[x]
    return x


# ----- serialization -----------------------------------------------------


def poset_to_json(poset: FinPoset, labels: Sequence[str] | None = None) -> str:
    obj: dict = {"n": poset.n, "covers": [list(c) for c in poset.covers()]}
    if labels is not None:
        if len(labels) != poset.n:
            raise ValueError("label count must equal carrier size")
        obj["labels"] = list(labels)
    return json.dumps(obj, indent=2)


def poset_from_json(text: str) -> tuple[FinPoset, list[str] | None]:
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("poset JSON is nested too deeply") from None
    if not isinstance(obj, dict) or "n" not in obj or "covers" not in obj:
        raise ValueError("poset JSON needs 'n' and 'covers' keys")
    n, covers = obj["n"], obj["covers"]
    if type(n) is not int or not isinstance(covers, list):  # bool is not an index
        raise ValueError("malformed poset JSON")
    pairs = []
    for c in covers:
        if not (isinstance(c, list) and len(c) == 2 and all(type(x) is int for x in c)):
            raise ValueError(f"malformed cover pair {c!r}")
        pairs.append((c[0], c[1]))
    labels = obj.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and len(labels) == n and all(isinstance(s, str) for s in labels)
    ):
        raise ValueError(f"labels must be a list of {n} strings")
    return FinPoset.from_covers(pairs, n), labels


def dot_string(text) -> str:
    """``text`` as a quoted DOT string, its backslashes and quotes escaped."""
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def poset_to_dot(poset: FinPoset, labels: Sequence[str] | None = None) -> str:
    """Hasse diagram in DOT format (cover edges only, drawn upward)."""
    name = labels if labels is not None else range(poset.n)
    lines = ["digraph poset {", "  rankdir=BT;"]
    lines += [f"  {i} [label={dot_string(name[i])}];" for i in range(poset.n)]
    lines += [f"  {i} -> {j};" for i, j in poset.covers()]
    lines.append("}")
    return "\n".join(lines) + "\n"
