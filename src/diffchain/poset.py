"""Finite posets on dense integer carriers, with upset-oriented set operations.

Elements are the integers ``0..n-1``.  A poset keeps the lower edges it was
given and builds the closure of its order only when that is read.  Inside
the package a subset is an int bitmask (bit i set when i is a member), or a
bytearray of flags where a sweep reads one element at a time; at the API
boundary subsets are plain ``frozenset[int]`` values, checked on entry.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from functools import cached_property
from itertools import compress
from typing import Iterable, Mapping, Sequence

from .errors import CycleError, RangeError

ElemSet = frozenset[int]

# flags to binary digits: b"\0" -> b"0", b"\1" -> b"1", and back
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def flags_of(subset: Iterable[int], n: int) -> bytearray:
    """One byte per element of ``0..n-1``: 1 for the members of ``subset``,
    0 for the rest, after checking that ``subset`` lies in the carrier."""
    flags = bytearray(n)
    for i in subset:
        if not 0 <= i < n:
            raise RangeError(f"element {i} leaves {_carrier(n)}")
        flags[i] = 1
    return flags


def mask_of(subset: Iterable[int], n: int) -> int:
    """The bitmask of ``subset``, after checking it lies in ``0..n-1``: its
    flags read as binary digits, so the time is linear in n."""
    return int(flags_of(subset, n).translate(_DIGITS)[::-1] or b"0", 2)


def _flags_of_mask(mask: int, n: int) -> bytes:
    """The flags of the elements of ``0..n-1`` in ``mask``, as ``flags_of``
    gives them: its binary digits read backwards, so the time is linear in
    n."""
    return format(mask, f"0{n}b")[::-1].encode().translate(_FLAGS)


def _carrier(n: int) -> str:
    return f"the carrier 0..{n - 1}" if n else "the empty carrier"


class FinPoset:
    """A finite partial order, stored as the edges that generate it.

    ``order`` is a linear extension (minimal elements first) and ``lower[i]``
    lists the elements given directly below ``i``: every Hasse cover, and any
    transitive edge ``from_covers`` was given.  ``upm[i]``, the bitmask of the
    principal upset of ``i`` (with ``i``), and ``up``, those upsets as
    frozensets, are built on first read.  Instances are immutable and
    hashable; two posets are equal when they have the same carrier size and
    the same order relation.
    """

    def __init__(self, up: Sequence[Iterable[int]]):
        """The order whose principal upsets are ``up``, each with its
        element.  On a partial order the upper covers of i are its strict
        upset less the strict upsets of its members, so only those are
        built.  Otherwise the whole relation is built to name the fault:
        CycleError on a cycle, else ValueError at the first element whose
        upset is not what reflexivity and transitivity give."""
        n = len(up)
        upm = [mask_of(ups, n) for ups in up]
        strict = [m & ~(1 << i) for i, m in enumerate(upm)]
        covers = {}
        for i, above in enumerate(strict):
            beyond = 0
            for j in bits(above):
                beyond |= strict[j]
            covers[i] = bits(above & ~beyond)
        try:
            self._build(n, covers)
        except CycleError:
            pass
        else:
            if list(self.upm) == upm:
                return
            del vars(self)["upm"]
        self._build(n, dict(enumerate(map(bits, strict))))
        for i, m in enumerate(upm):
            if self.upm[i] != m:  # a reflexive, transitive relation is its own closure
                axiom = "transitive" if m >> i & 1 else "reflexive"
                raise ValueError(f"order not {axiom} at {i}")

    @classmethod
    def from_covers(cls, covers: Iterable[tuple[int, int]], n: int) -> "FinPoset":
        """The order generated by ``covers``: pairs (i, j) with i below j.

        Raises RangeError for indices outside ``0..n-1`` or an ``n`` above
        ``sys.maxsize``, the largest list index, and CycleError when the
        covers contain a directed cycle.
        """
        if n < 0:
            raise RangeError("carrier size must be >= 0")
        if n > sys.maxsize:
            raise RangeError(f"carrier size must be at most {sys.maxsize}")
        # only elements with covers get a container: a wide poset stays cheap
        succ: defaultdict[int, set[int]] = defaultdict(set)
        for i, j in covers:
            if not (0 <= i < n and 0 <= j < n):
                raise RangeError(f"cover ({i}, {j}) leaves {_carrier(n)}")
            if i == j:
                raise CycleError(f"cover ({i}, {i}) is a self-loop")
            succ[i].add(j)
        poset = object.__new__(cls)
        poset._build(n, succ)
        return poset

    def _build(self, n: int, succ: Mapping[int, Iterable[int]]) -> None:
        """Order and lower edges of the order generated by ``succ``, which maps
        elements to their successors, proving it a partial order on the way."""
        indeg = [0] * n
        for s in succ.values():
            for j in s:
                indeg[j] += 1
        # Kahn's algorithm: an element is ordered once all its predecessors
        # are, so a complete order proves the relation acyclic
        order = [i for i in range(n) if not indeg[i]]
        lower: defaultdict[int, list[int]] = defaultdict(list)
        for i in order:
            for j in succ.get(i, ()):
                lower[j].append(i)
                indeg[j] -= 1
                if not indeg[j]:
                    order.append(j)
        if len(order) < n:
            raise CycleError(f"covers contain a cycle through {_on_cycle(succ, indeg)}")
        vars(self).update(
            n=n, order=tuple(order), lower=tuple(tuple(lower.get(j, ())) for j in range(n)))

    @cached_property
    def upm(self) -> tuple[int, ...]:
        # maximal first: a mask is complete before it joins those below it
        upm = [1 << i for i in range(self.n)]
        for x in reversed(self.order):
            for y in self.lower[x]:
                upm[y] |= upm[x]
        return tuple(upm)

    @cached_property
    def up(self) -> tuple[ElemSet, ...]:
        return tuple(frozenset(bits(m)) for m in self.upm)

    def __setattr__(self, name, value):
        raise AttributeError("FinPoset is immutable")

    def __eq__(self, other):
        return isinstance(other, FinPoset) and self.n == other.n and self.upm == other.upm

    def __hash__(self):
        return hash((self.n, self.upm))

    def __repr__(self):
        return f"FinPoset(n={self.n}, covers={self.covers()})"

    def covers(self) -> list[tuple[int, int]]:
        """The Hasse relation: pairs (i, j) with i < j and nothing between."""
        return sorted((i, j) for j, below in enumerate(self._hasse()) for i in below)

    def _hasse(self) -> tuple[tuple[int, ...], ...]:
        """``lower`` less its transitive edges, built in ``order``: i stays
        below j unless a search down the Hasse edges already found for j's
        lower elements reaches it.  Only elements with two or more lower
        edges search, and a search stops at elements that come before all
        of j's lower elements in ``order``: nothing below those can be one
        of them.

        The memory is linear in the edges, but a search may walk the whole
        Hasse downset of j, so the time is O(n * e) Python steps at worst
        for e Hasse edges: on a chain of N elements plus N pairs, each a
        new minimal element and the chain's top below a new element,
        ``order`` puts the minimal elements first and every pair walks the
        chain."""
        lower, out, pos = self.lower, list(self.lower), None
        for j in self.order:
            below = lower[j]
            if len(below) > 1:
                if pos is None:
                    pos = [0] * self.n
                    for p, x in enumerate(self.order):
                        pos[x] = p
                floor = min(pos[i] for i in below)
                stack = [y for i in below for y in out[i] if pos[y] >= floor]
                reached = set(stack)
                while stack:
                    for y in out[stack.pop()]:
                        if pos[y] >= floor and y not in reached:
                            reached.add(y)
                            stack.append(y)
                out[j] = tuple(i for i in below if i not in reached)
        return tuple(out)

    # ----- subset operations --------------------------------------------

    def _upset_within(self, m: int, outer: int) -> bool:
        """Whether ``m``, a subset of the upset ``outer``, is itself an upset:
        a chain from ``m`` up to ``outer - m`` stays in ``outer``, so it is
        enough that no element of ``outer - m`` has a lower edge from ``m``.
        Both masks are read as flags, so the time is linear in n plus the
        edges."""
        inside = _flags_of_mask(m, self.n)
        outside = compress(range(self.n), _flags_of_mask(outer & ~m, self.n))
        lower = self.lower
        return not any(inside[i] for j in outside for i in lower[j])

    def upset_closure(self, subset: Iterable[int]) -> ElemSet:
        """Least upward-closed set containing ``subset``, in time linear in
        n plus the edges."""
        flags = flags_of(subset, self.n)
        lower = self.lower
        for x in self.order:  # every lower element of x is settled before x
            if not flags[x] and any(flags[y] for y in lower[x]):
                flags[x] = 1
        return frozenset(compress(range(self.n), flags))

    def is_upset(self, subset: Iterable[int]) -> bool:
        return self._upset_within(mask_of(subset, self.n), (1 << self.n) - 1)


def _on_cycle(succ: Mapping[int, Iterable[int]], indeg: list[int]) -> int:
    """An element on a cycle: every element Kahn's algorithm left unordered
    has an unordered predecessor, so walking back through those repeats."""
    pred = {j: i for i, s in sorted(succ.items()) if indeg[i] for j in s}
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
