"""Complete DFAs: boolean operations, canonical minimization and a JSON
form.

Letters are plain strings or ``Marked`` letters, a base letter with the set
of position variables that point at it (``base=None`` is the erased letter).
The closure kernel uses the erased letter for an unpinned position; the
marked-alphabet constructions of the paper live in ``diffchain.oracle`` as
its reference route.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .errors import AlphabetMismatchError, CapacityError
from .poset import dot_string

Letter = Hashable

DEFAULT_STATE_CAP = 100_000


# ----- letters and alphabets ---------------------------------------------


@dataclass(frozen=True)
class Marked:
    """A product-alphabet letter: a base letter plus the variables marking it.

    ``base is None`` encodes the erased letter (a position whose base letter
    has been forgotten): the erasing map of ``diffchain.oracle`` produces it,
    and the closure's pattern automaton reads it for an unpinned position.
    """

    base: str | None
    marks: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "marks", frozenset(self.marks))

    def __str__(self):
        base = self.base if self.base is not None else "ε"
        if self.marks:
            return f"({base}|{','.join(sorted(self.marks))})"
        return f"({base})"


def letter_key(letter: Letter):
    """Total order on letters; plain strings first, then marked letters."""
    if isinstance(letter, Marked):
        return (1, letter.base is not None, letter.base or "", tuple(sorted(letter.marks)))
    return (0, str(letter))


def _plain_alphabet(d: Dfa) -> tuple[str, ...]:
    if not all(isinstance(a, str) for a in d.alphabet):
        raise AlphabetMismatchError("expected an automaton over plain letters")
    return d.alphabet


# ----- the automaton -----------------------------------------------------


class Dfa:
    """A complete deterministic automaton.

    ``delta[q]`` lists the successor of state ``q`` for each letter, in
    alphabet order, which the constructor makes canonical: it sorts the
    letters by ``letter_key`` (rejecting ties such as 1 and "1") and
    permutes every row to match.  Instances are immutable; equality is
    structural.
    """

    __slots__ = ("alphabet", "delta", "start", "accepting", "_index", "_hash")

    def __init__(
        self,
        alphabet: Sequence[Letter],
        delta: Sequence[Sequence[int]],
        start: int,
        accepting: Iterable[int],
    ):
        alphabet = tuple(alphabet)
        delta = tuple(tuple(row) for row in delta)
        accepting = tuple(accepting)
        if not alphabet:
            raise ValueError("alphabet must be nonempty")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet letters must be distinct")
        keys = [letter_key(a) for a in alphabet]
        if len(set(keys)) != len(keys):
            raise ValueError("alphabet letters must have distinct letter_key values")
        n = len(delta)
        if n == 0:
            raise ValueError("need at least one state")
        for q, row in enumerate(delta):
            if len(row) != len(alphabet):
                raise ValueError(f"state {q} has {len(row)} transitions, want {len(alphabet)}")
            # exact type test: bool is an int subclass but not a state
            if not all(type(t) is int and 0 <= t < n for t in row):
                raise ValueError(f"state {q} has a transition outside 0..{n - 1}")
        if not (type(start) is int and 0 <= start < n):
            raise ValueError("start state out of range")
        if not all(type(q) is int and 0 <= q < n for q in accepting):
            raise ValueError("accepting states out of range")
        accepting = frozenset(accepting)
        cols = sorted(range(len(keys)), key=keys.__getitem__)
        if cols != list(range(len(keys))):
            alphabet = tuple(alphabet[i] for i in cols)
            delta = tuple(tuple(row[i] for i in cols) for row in delta)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "accepting", accepting)
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(alphabet)})
        object.__setattr__(self, "_hash", hash((alphabet, delta, start, accepting)))

    def __setattr__(self, name, value):
        raise AttributeError("Dfa is immutable")

    @property
    def n_states(self) -> int:
        return len(self.delta)

    def letter_index(self, letter: Letter) -> int:
        try:
            return self._index[letter]
        except KeyError:
            raise AlphabetMismatchError(f"letter {letter!r} not in alphabet") from None

    def run(self, state: int, word: Iterable[Letter]) -> int:
        for letter in word:
            state = self.delta[state][self.letter_index(letter)]
        return state

    def accepts(self, word: Iterable[Letter]) -> bool:
        return self.run(self.start, word) in self.accepting

    def __eq__(self, other):
        return (
            isinstance(other, Dfa)
            and self.alphabet == other.alphabet
            and self.delta == other.delta
            and self.start == other.start
            and self.accepting == other.accepting
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Dfa(states={self.n_states}, letters={len(self.alphabet)})"


def dfa_all_words(alphabet: Sequence[Letter]) -> Dfa:
    alphabet = tuple(alphabet)
    return Dfa(alphabet, [[0] * len(alphabet)], 0, [0])


def dfa_no_words(alphabet: Sequence[Letter]) -> Dfa:
    alphabet = tuple(alphabet)
    return Dfa(alphabet, [[0] * len(alphabet)], 0, [])


def dfa_nonempty_words(alphabet: Sequence[Letter]) -> Dfa:
    alphabet = tuple(alphabet)
    width = len(alphabet)
    return Dfa(alphabet, [[1] * width, [1] * width], 0, [1])


# ----- breadth-first construction ----------------------------------------


def _explore(
    letters: tuple[Letter, ...],
    start: Hashable,
    step,
    accepts,
    cap: int = sys.maxsize,
    overflow: str = "",
) -> Dfa:
    """The part of a deterministic automaton reachable from ``start``.

    States are arbitrary hashable keys, numbered in the order a breadth-first
    search first reaches them, so ``start`` is 0.  ``step(state)`` lists the
    successor keys, one per letter of ``letters`` in order, and
    ``accepts(state)`` says whether a key accepts; ``Dfa`` checks the rows.
    Raises CapacityError(``overflow``) when a new state would make more
    than ``cap`` of them.
    """
    number = {start: 0}
    order = [start]
    delta = []
    for state in order:  # the loop reaches the states it appends
        row = []
        for t in step(state):
            q = number.get(t)
            if q is None:
                if len(order) >= cap:
                    raise CapacityError(overflow)
                q = number[t] = len(order)
                order.append(t)
            row.append(q)
        delta.append(row)
    accepting = [q for q, state in enumerate(order) if accepts(state)]
    return Dfa(letters, delta, 0, accepting)


# ----- boolean operations ------------------------------------------------


def complement(d: Dfa) -> Dfa:
    return Dfa(d.alphabet, d.delta, d.start, frozenset(range(d.n_states)) - d.accepting)


def _product(d1: Dfa, d2: Dfa, keep) -> Dfa:
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatchError("operands have different alphabets")
    return _explore(
        d1.alphabet, (d1.start, d2.start),
        lambda p: zip(d1.delta[p[0]], d2.delta[p[1]]),
        lambda p: keep(p[0] in d1.accepting, p[1] in d2.accepting),
    )


def intersect(d1: Dfa, d2: Dfa) -> Dfa:
    return _product(d1, d2, lambda a, b: a and b)


def union(d1: Dfa, d2: Dfa) -> Dfa:
    return _product(d1, d2, lambda a, b: a or b)


def difference(d1: Dfa, d2: Dfa) -> Dfa:
    return intersect(d1, complement(d2))


def is_empty_lang(d: Dfa) -> bool:
    seen = {d.start}
    queue = [d.start]
    while queue:
        q = queue.pop()
        if q in d.accepting:
            return False
        for t in d.delta[q]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return True


def shortest_word(d: Dfa) -> tuple[Letter, ...] | None:
    """A shortest accepted word, or None when the language is empty."""
    if d.start in d.accepting:
        return ()
    parent: dict[int, tuple[int, Letter]] = {}
    seen = {d.start}
    queue = [d.start]
    while queue:
        nxt = []
        for q in queue:
            for a, t in zip(d.alphabet, d.delta[q]):
                if t in seen:
                    continue
                seen.add(t)
                parent[t] = (q, a)
                if t in d.accepting:
                    word = []
                    s = t
                    while s != d.start:
                        s, letter = parent[s]
                        word.append(letter)
                    return tuple(reversed(word))
                nxt.append(t)
        queue = nxt
    return None


def subset_of(d1: Dfa, d2: Dfa) -> bool:
    return is_empty_lang(difference(d1, d2))


# ----- minimization and equivalence --------------------------------------


def minimize(d: Dfa) -> Dfa:
    """Canonical minimal form: Hopcroft partition refinement, then
    breadth-first canonical numbering with letters in canonical order.
    Equal languages over the same letters give structurally equal results.

    The blocks are language classes, so exploring the quotient from the
    start state's block reaches exactly the minimal automaton, whatever
    unreachable states ``d`` has."""
    cls = _hopcroft_blocks(d)
    # any member represents its block: the partition is stable
    rep = dict(zip(cls, range(d.n_states)))
    accepting = {cls[q] for q in d.accepting}

    def step(block):
        return [cls[t] for t in d.delta[rep[block]]]

    return _explore(d.alphabet, cls[d.start], step, accepting.__contains__)


def _hopcroft_blocks(d: Dfa) -> list[int]:
    """Block of each state in the coarsest partition that separates
    accepting from rejecting states and is stable under every letter.

    Hopcroft (1971): a worklist of splitter blocks, each refining the
    partition through per-letter predecessor lists.  When a block splits,
    both halves wait if it was waiting, otherwise only the smaller one,
    since stability under a block and one half gives it under the other.
    """
    n = d.n_states
    preds: list[list[list[int]]] = [[[] for _ in range(n)] for _ in d.alphabet]
    for q, row in enumerate(d.delta):
        for pre, t in zip(preds, row):
            pre[t].append(q)
    accepting = set(d.accepting)
    blocks = [accepting, set(range(n)) - accepting]
    block_of = [0 if q in accepting else 1 for q in range(n)]
    # the partition is stable under the block of all states, so one side of
    # the first split suffices (an empty side splits nothing)
    waiting = {0 if len(accepting) <= len(blocks[1]) else 1}
    while waiting:
        splitter = list(blocks[waiting.pop()])
        for pre in preds:
            # the members of each block with a successor in the splitter
            hit: dict[int, list[int]] = {}
            for t in splitter:
                for i in pre[t]:
                    b = block_of[i]
                    if b in hit:
                        hit[b].append(i)
                    else:
                        hit[b] = [i]
            for b, moved in hit.items():
                block = blocks[b]
                if len(moved) == len(block):
                    continue
                block.difference_update(moved)
                new = len(blocks)
                blocks.append(set(moved))
                for i in moved:
                    block_of[i] = new
                waiting.add(new if b in waiting or len(moved) <= len(block) else b)
    return block_of


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatchError("cannot compare automata over different alphabets")
    return minimize(d1) == minimize(d2)


# ----- serialization -----------------------------------------------------


def _letter_to_json(letter: Letter):
    if isinstance(letter, Marked):
        return {
            "base": "eps" if letter.base is None else letter.base,
            "vars": sorted(letter.marks),
        }
    if isinstance(letter, str):
        return letter
    raise ValueError(f"cannot serialize letter {letter!r}")


def _letter_from_json(obj) -> Letter:
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict) and set(obj) == {"base", "vars"}:
        base = obj["base"]
        marks = obj["vars"]
        if not isinstance(base, str) or not isinstance(marks, list):
            raise ValueError(f"malformed letter {obj!r}")
        if not all(isinstance(v, str) for v in marks):
            raise ValueError(f"malformed letter {obj!r}")
        return Marked(None if base == "eps" else base, frozenset(marks))
    raise ValueError(f"malformed letter {obj!r}")


def dfa_to_json_obj(d: Dfa) -> dict:
    return {
        "alphabet": [_letter_to_json(a) for a in d.alphabet],
        "states": d.n_states,
        "start": d.start,
        "accepting": sorted(d.accepting),
        "delta": [list(row) for row in d.delta],
    }


def dfa_to_json(d: Dfa) -> str:
    return json.dumps(dfa_to_json_obj(d), indent=2)


def dfa_from_json_obj(obj) -> Dfa:
    if not isinstance(obj, dict):
        raise ValueError("automaton JSON must be an object")
    missing = {"alphabet", "states", "start", "accepting", "delta"} - set(obj)
    if missing:
        raise ValueError(f"automaton JSON misses keys {sorted(missing)}")
    if not isinstance(obj["alphabet"], list):
        raise ValueError("'alphabet' must be a list of letters")
    alphabet = [_letter_from_json(a) for a in obj["alphabet"]]
    states = obj["states"]
    if not isinstance(states, int) or isinstance(states, bool) or states < 1:
        raise ValueError("'states' must be a positive integer")
    delta = obj["delta"]
    if not isinstance(delta, list) or len(delta) != states:
        raise ValueError("'delta' must list one row per state")
    if not all(isinstance(row, list) for row in delta):
        raise ValueError("each row of 'delta' must be a list of state indices")
    accepting = obj["accepting"]
    if not isinstance(accepting, list) or not all(isinstance(x, int) for x in accepting):
        raise ValueError("'accepting' must be a list of state indices")
    if not isinstance(obj["start"], int):
        raise ValueError("'start' must be a state index")
    return Dfa(alphabet, delta, obj["start"], accepting)


def dfa_from_json(text: str) -> Dfa:
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("automaton JSON is nested too deeply") from None
    return dfa_from_json_obj(obj)


def dfa_to_dot(d: Dfa) -> str:
    lines = ["digraph dfa {", "  rankdir=LR;", '  hidden [shape=none, label=""];']
    for q in range(d.n_states):
        shape = "doublecircle" if q in d.accepting else "circle"
        lines.append(f"  {q} [shape={shape}];")
    lines.append(f"  hidden -> {d.start};")
    for q in range(d.n_states):
        by_target: dict[int, list[str]] = {}
        for a, t in zip(d.alphabet, d.delta[q]):
            by_target.setdefault(t, []).append(str(a))
        for t in sorted(by_target):
            label = ", ".join(by_target[t])
            lines.append(f"  {q} -> {t} [label={dot_string(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
