"""Independent brute-force oracles.

Everything here recomputes results of the other modules by direct
enumeration or by a structurally different construction, so the two routes
can be compared in tests.  Nothing in this module calls the chain or
closure algorithms it is used to check.

Words are checked a length slice at a time.  ``accepted_slice`` finds the
acceptance of every length-n word in one layered walk over an automaton,
the words in lexicographic order over its alphabet, which ``Dfa`` keeps in
canonical order, as in ``words_upto``; ``lang_eq_upto`` compares two
automata slice by slice.  The closure has three reference
routes.  ``closure_slice`` reads a whole slice of it off the definition by
position profiles: each word is an int with a fixed bit field per letter,
its letters on a set P of positions are one AND with P's mask, and a word
belongs iff on every P of min(k, n) positions it matches the profile of
some accepted word of its length.  ``brute_pi1_closure_member`` decides one
word by an extension-mask search: for each multiset of k - 1 of its
positions, one forward and one backward pass over the reached states of the
automaton mark every (position, letter) pair that some accepted word of the
same length, agreeing with the word there, carries; the word belongs iff
each of its own pairs is marked every time.  The third is the paper's
literal marked-alphabet construction (``marked_pi1_closure``).
Alternation degrees are checked against ``brute_degree``, which enumerates
the increasing sequences below one element, and ``sequence_degrees``, which
reads every element's degree for one subset off a poset's table of
``increasing_sequences``, listed once.
The canonical-chain recurrence is checked against ``moore_families``, every
closure system on a few points, and ``family_chains``, a search over all
chains of a family's sets.  ``upsets`` lists a poset's upset lattice as
bitmasks, and ``join_irreducibles`` reads a poset back off such a lattice,
the two sides of Birkhoff duality.
Homomorphic images have two routes as well: the subset construction
``forward_lp_image`` over the automaton's states, and
``monoid_forward_image``, the same construction over ``monoid_dfa``, the
automaton of the transition monoid, so it works in the powerset of the
monoid.  ``test_forward_lp_image_membership`` checks both against
brute-force preimages.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import (
    combinations,
    combinations_with_replacement,
    compress,
    islice,
    product as iter_product,
)
from typing import Iterable, Iterator, Mapping, Sequence

from .automata import (
    DEFAULT_STATE_CAP,
    Dfa,
    Letter,
    Marked,
    complement,
    dfa_nonempty_words,
    intersect,
    letter_key,
    minimize,
    _explore,
    _plain_alphabet,
)
from .errors import AlphabetMismatchError, CapacityError
from .poset import ElemSet, FinPoset, bits, mask_of

# ----- word enumeration and length slices --------------------------------


def words_upto(alphabet: Sequence[Letter], max_len: int) -> Iterator[tuple[Letter, ...]]:
    """All nonempty words of length at most max_len, shortest first."""
    for n in range(1, max_len + 1):
        yield from iter_product(alphabet, repeat=n)


def accepted_slice(d: Dfa, n: int) -> list[bool]:
    """Acceptance of every length-n word over d's alphabet, listed in the
    order of ``iter_product(d.alphabet, repeat=n)``: lexicographic in the
    canonical letter order, as in ``words_upto``.

    One layered walk: layer p lists the state each length-p word reaches,
    and layer p + 1 the successors of those states, column by column.
    """
    delta = d.delta
    layer = [d.start]
    for _ in range(n):
        layer = [t for q in layer for t in delta[q]]
    accepting = d.accepting
    return [q in accepting for q in layer]


def closure_slice(d: Dfa, k: int, n: int) -> list[bool]:
    """Membership of every length-n word in the k-variable universal closure
    of d's language, in ``accepted_slice``'s order, read off the definition
    by position profiles.

    A word belongs iff for every set P of min(k, n) of its positions some
    accepted word of length n carries the same letters on P.  A word is an
    int of b = max(1, (|A| - 1).bit_length()) bits per letter, the first
    letter highest, so its profile on P is one AND with P's mask; the
    profiles of the accepted words on P form a set S_P, and a word belongs
    iff its profile lies in S_P for every P.  The empty word belongs to no
    closure.
    """
    if k < 1:
        raise ValueError("need at least one variable")
    if n == 0:
        return [False]
    digits = range(len(d.alphabet))
    b = max(1, (len(digits) - 1).bit_length())
    codes = [0]
    for _ in range(n):
        codes = [c << b | i for c in codes for i in digits]
    language = list(compress(codes, accepted_slice(d, n)))
    field = (1 << b) - 1
    inside = codes
    for positions in combinations(range(n), min(k, n)):
        if len(inside) == len(language):
            break  # L lies inside the closure, so nothing more can go
        mask = 0
        for p in positions:
            mask |= field << b * (n - 1 - p)
        profiles = set(map(mask.__and__, language))
        inside = list(compress(inside, map(profiles.__contains__, map(mask.__and__, inside))))
    inside = set(inside)
    return [c in inside for c in codes]


def slice_difference(
    left: Sequence[bool], right: Sequence[bool], letters: Sequence[Letter], n: int
) -> tuple[Letter, ...] | None:
    """The first length-n word on which two slices over ``letters``
    disagree, or None when they agree."""
    if left == right:
        return None
    rank = next(r for r, (x, y) in enumerate(zip(left, right)) if x != y)
    return next(islice(iter_product(letters, repeat=n), rank, None))


def lang_eq_upto(
    d1: Dfa, d2: Dfa, max_len: int
) -> tuple[bool, tuple[Letter, ...] | None]:
    """Compare two automata on every nonempty word of length <= max_len,
    one length slice at a time.

    Returns (True, None) on agreement, else (False, first disagreeing word
    in ``words_upto`` order).
    """
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatchError("cannot compare automata over different alphabets")
    for n in range(1, max_len + 1):
        word = slice_difference(accepted_slice(d1, n), accepted_slice(d2, n), d1.alphabet, n)
        if word is not None:
            return False, word
    return True, None


# ----- closure membership by pinned extensions --------------------------


def brute_pi1_closure_member(d: Dfa, k: int, word: Sequence[Letter]) -> bool:
    """Membership of a word in the k-variable universal closure of d's
    language, decided directly.

    A word belongs iff for every multiset of k of its positions some
    accepted word of the same length carries the same letters at those
    positions.  Every such multiset is a multiset Q of k - 1 positions plus
    one position j, so the word belongs iff for every Q each of its pairs
    (j, word[j]) is a pinned extension of Q: some accepted word agrees with
    it on Q and carries word[j] at j.  ``_pinned_extensions`` finds all
    extensions of one Q at once by an exact layered reachability search,
    never by sampling.
    """
    if k < 1:
        raise ValueError("need at least one variable")
    letters = tuple(map(d.letter_index, word))
    n = len(letters)
    if n == 0:
        return False
    width = len(d.alphabet)
    need = 0
    for p, i in enumerate(letters):
        need |= 1 << (p * width + i)
    for positions in combinations_with_replacement(range(n), k - 1):
        pins = tuple(map(letters.__getitem__, positions))
        if need & ~_pinned_extensions(d, n, positions, pins):
            return False
    return True


@lru_cache(maxsize=None)
def _pinned_extensions(
    d: Dfa, n: int, positions: tuple[int, ...], pins: tuple[int, ...]
) -> int:
    """The pinned extensions of length n: bit p * |A| + i is set iff some
    accepted length-n word carries letter index pins[m] at positions[m] for
    every m, and letter index i at position p.  The pins are read from one
    word, so a repeated position carries the same letter each time."""
    pinned = dict(zip(positions, pins))
    width = len(d.alphabet)
    allowed = [(pinned[p],) if p in pinned else range(width) for p in range(n)]
    reached = [{d.start}]
    for p in range(n):
        reached.append({d.delta[q][i] for q in reached[p] for i in allowed[p]})
    live = reached[n] & d.accepting
    if not live:
        return 0
    mask = 0
    for p in range(n - 1, -1, -1):
        base = p * width
        alive: set[int] = set()
        for q in reached[p]:
            row = d.delta[q]
            for i in allowed[p]:
                if row[i] in live:
                    alive.add(q)
                    mask |= 1 << (base + i)
        live = alive
    return mask


# ----- alternation degree by sequence enumeration ------------------------


def brute_degree(poset: FinPoset, members: Iterable[int], x: int) -> int:
    """Longest alternating strictly increasing sequence ending at x, found by
    enumerating every increasing sequence outright."""
    members = mask_of(members, poset.n)
    mask_of((x,), poset.n)  # x must lie in the carrier too
    best = 0
    stack: list[tuple[int, ...]] = [(x,)]
    while stack:
        seq = stack.pop()
        # members sit exactly at the even positions
        if all((members >> y & 1) != i % 2 for i, y in enumerate(seq)):
            best = max(best, len(seq))
        head = seq[0]
        # extend below head by every element whose upset holds it
        stack += [(y,) + seq for y in range(poset.n) if y != head and poset.upm[y] >> head & 1]
    return best


def increasing_sequences(poset: FinPoset) -> list[tuple[int, int, int, int]]:
    """Every strictly increasing sequence of the poset, shortest first, as
    (top, mask, even, length): its last element, the bitmask of its
    elements, the bitmask of those at even positions counted from 0 at the
    bottom, and its length."""
    level = [(x, 1 << x, 1 << x, 1) for x in range(poset.n)]
    out: list[tuple[int, int, int, int]] = []
    while level:
        out.extend(level)
        level = [
            (y, mask | 1 << y, even | (0 if length % 2 else 1 << y), length + 1)
            for top, mask, even, length in level
            for y in bits(poset.upm[top] & ~(1 << top))
        ]
    return out


def sequence_degrees(
    sequences: Iterable[tuple[int, int, int, int]], n: int, members: int
) -> list[int]:
    """``brute_degree`` of every element of an n-element poset at once,
    from its ``increasing_sequences``: a sequence alternates iff its
    elements in the member bitmask ``members`` are exactly those at even
    positions, and a longer one replaces a shorter."""
    degrees = [0] * n
    for top, mask, even, length in sequences:
        if members & mask == even:
            degrees[top] = length
    return degrees


# ----- closure systems and their chains ---------------------------------


def moore_families(n: int) -> Iterator[tuple[int, ...]]:
    """Every Moore family on the points 0..n-1: each family of subsets, as
    bitmasks in decreasing order, that contains the full set and is closed
    under intersection.  Each one is the family of closed sets of a closure
    operator, for example the upsets of a poset.

    Sets are decided from the full set down.  Taking a set forces its meets
    with the sets already taken, which are smaller numbers still to be
    decided, so each family is built exactly once.
    """
    if n < 0:
        raise ValueError("carrier size must be >= 0")

    def grow(s: int, taken: tuple[int, ...], forced: int) -> Iterator[tuple[int, ...]]:
        if s < 0:
            yield taken
            return
        if not forced >> s & 1:
            yield from grow(s - 1, taken, forced)
        for t in taken:
            forced |= 1 << (t & s)
        yield from grow(s - 1, taken + (s,), forced)

    full = (1 << n) - 1
    return grow(full - 1, (full,), 0)


def upsets(poset: FinPoset, cap: int = 1 << 20) -> list[int]:
    """Every upset of ``poset`` as a bitmask, ordered by (size, sorted
    elements): the upset lattice, the closure system of the poset.

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
    return sorted(found, key=lambda u: (u.bit_count(), bits(u)))


def join_irreducibles(family: Sequence[int]) -> FinPoset:
    """The poset of join-irreducible members of a family of bitmasks under
    reverse inclusion: the dual of the lattice the family forms.

    A member is join-irreducible when it is not the union of the members
    strictly below it (this excludes the empty set).  Element i of the
    result is the i-th join-irreducible member in the order by (size,
    sorted elements).  For the ``upsets`` of a poset these members are the
    principal upsets ↑x, and x ↦ ↑x is an isomorphism from that poset.
    """
    members = []
    for m in family:
        below = 0
        for other in family:
            if other != m and not other & ~m:
                below |= other
        if below != m:
            members.append(m)
    members.sort(key=lambda m: (m.bit_count(), bits(m)))
    # reverse inclusion: smaller upsets sit higher
    return FinPoset([[j for j, v in enumerate(members) if not v & ~u] for u in members])


def family_chains(
    family: Iterable[int], target: int, max_m: int
) -> Iterator[tuple[int, ...]]:
    r"""Every chain G1 ⊇ G2 ⊇ ... ⊇ G2m of the family's members, with
    m <= ``max_m``, whose differences G1 \ G2, G3 \ G4, ... make up
    exactly ``target`` (all bitmasks; members may repeat).

    Breadth-first by pair count: every chain of m pairs comes before any of
    m + 1.  A prefix is dropped when a difference leaves the target, or
    when its last term misses part of the target not yet covered, since
    every later difference lies inside that term.
    """
    members = set(family)
    pairs = [(a, b) for a in members for b in members
             if not b & ~a and not a & ~b & ~target]
    level: list[tuple[tuple[int, ...], int, int]] = [((), -1, 0)]
    for _ in range(max_m):
        level = [(chain + (a, b), b, covered | a & ~b)
                 for chain, last, covered in level
                 for a, b in pairs
                 if not a & ~last and not target & ~(covered | a) & ~b]
        for chain, _, covered in level:
            if covered == target:
                yield chain


def nested_difference(sets: Sequence[ElemSet]) -> ElemSet:
    value: ElemSet = frozenset()
    for s in reversed(sets):
        value = s - value
    return value


# ----- poset corpus ------------------------------------------------------

_POSET_CACHE: dict[int, tuple[FinPoset, ...]] = {}


def all_posets(n: int) -> tuple[FinPoset, ...]:
    """All partial orders on 0..n-1 whose strict order respects the integer
    order.  Every isomorphism class of n-element posets appears at least
    once, because every finite poset has a linear extension."""
    if n < 0:
        raise ValueError("carrier size must be >= 0")
    if n in _POSET_CACHE:
        return _POSET_CACHE[n]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out: list[FinPoset] = []
    for relation in range(1 << len(pairs)):
        succ = [0] * n
        for idx, (i, j) in enumerate(pairs):
            if relation >> idx & 1:
                succ[i] |= 1 << j
        ok = True
        for i in range(n):
            rest = succ[i]
            while rest and ok:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if succ[j] & ~succ[i]:
                    ok = False
            if not ok:
                break
        if ok:
            up = [
                frozenset({i} | {j for j in range(n) if succ[i] >> j & 1})
                for i in range(n)
            ]
            out.append(FinPoset(up))
    _POSET_CACHE[n] = tuple(out)
    return _POSET_CACHE[n]


def all_posets_upto(n: int) -> list[FinPoset]:
    out: list[FinPoset] = []
    for size in range(1, n + 1):
        out.extend(all_posets(size))
    return out


# ----- random automata ---------------------------------------------------


def random_dfa(
    rng: random.Random, max_states: int, alphabet: Sequence[Letter]
) -> Dfa:
    """A uniformly random complete DFA with 1..max_states states."""
    alphabet = tuple(alphabet)
    n = rng.randint(1, max_states)
    delta = [
        [rng.randrange(n) for _ in alphabet] for _ in range(n)
    ]
    accepting = [q for q in range(n) if rng.random() < 0.5]
    return Dfa(alphabet, delta, 0, accepting)


# ----- the marked-alphabet route -----------------------------------------
#
# The paper's literal construction of the closure, kept as a reference route
# that shares no code with ``diffchain.closure``.  A marked letter pairs a base
# letter with the set of position variables pointing at it; a marked word is
# a valid structure when every variable marks exactly one position.
# Projection forgets the marks, the erasing map keeps only marked positions,
# and the universal/existential images along projection are computed with
# standard automata constructions (complement, relabel-then-determinize,
# product).  The marked alphabet has 2^k letters per base letter.


def check_variables(variables: Sequence[str]) -> tuple[str, ...]:
    variables = tuple(variables)
    if not variables:
        raise ValueError("need at least one variable")
    if len(set(variables)) != len(variables):
        raise ValueError("variable names must be distinct")
    if not all(isinstance(v, str) and v for v in variables):
        raise ValueError("variable names must be nonempty strings")
    return variables


def variables(count: int) -> tuple[str, ...]:
    """Default variable names x1..xk."""
    if count < 1:
        raise ValueError("need at least one variable")
    return tuple(f"x{i + 1}" for i in range(count))


def mark_subsets(variables_: Sequence[str]) -> list[frozenset[str]]:
    variables_ = tuple(variables_)
    out = []
    for chosen in range(1 << len(variables_)):
        out.append(frozenset(v for i, v in enumerate(variables_) if chosen >> i & 1))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def marked_alphabet(
    base_letters: Sequence[str], variables_: Sequence[str], with_erased: bool = False
) -> tuple[Marked, ...]:
    """All letters (base, mark set); optionally also the erased letters."""
    base_letters = check_base_letters(base_letters)
    variables_ = check_variables(variables_)
    bases: list[str | None] = list(base_letters)
    if with_erased:
        bases.append(None)
    subsets = mark_subsets(variables_)
    letters = [Marked(b, s) for b in bases for s in subsets]
    return tuple(sorted(letters, key=letter_key))


def check_base_letters(base_letters: Sequence[str]) -> tuple[str, ...]:
    base_letters = tuple(base_letters)
    if not base_letters:
        raise ValueError("alphabet must be nonempty")
    if len(set(base_letters)) != len(base_letters):
        raise ValueError("alphabet letters must be distinct")
    if any(b == "eps" for b in base_letters):
        raise ValueError("'eps' is reserved for the erased letter")
    return base_letters


class LpHom:
    """A length-preserving homomorphism between free monoids: every source
    letter maps to one target letter."""

    __slots__ = ("source", "target", "_map")

    def __init__(
        self,
        source: Sequence[Letter],
        target: Sequence[Letter],
        letter_map: Mapping[Letter, Letter],
    ):
        source = tuple(source)
        target = tuple(target)
        if len(set(source)) != len(source) or len(set(target)) != len(target):
            raise ValueError("alphabet letters must be distinct")
        if set(letter_map) != set(source):
            raise AlphabetMismatchError("letter map must cover exactly the source alphabet")
        tset = set(target)
        for a in source:
            if letter_map[a] not in tset:
                raise AlphabetMismatchError(f"image of {a!r} uses letters outside the target")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_map", {a: letter_map[a] for a in source})

    def __setattr__(self, name, value):
        raise AttributeError("LpHom is immutable")

    def letter_image(self, letter: Letter) -> Letter:
        if letter not in self._map:
            raise AlphabetMismatchError(f"letter {letter!r} not in source alphabet")
        return self._map[letter]


def inverse_hom_image(d: Dfa, h: LpHom) -> Dfa:
    """The automaton for the preimage of d's language under h.

    Keeps d's state set: each source letter acts as its image letter.
    """
    if set(h.target) != set(d.alphabet):
        raise AlphabetMismatchError("hom target and automaton alphabet differ")
    delta = [
        [d.run(q, (h.letter_image(a),)) for a in h.source] for q in range(d.n_states)
    ]
    return Dfa(h.source, delta, d.start, d.accepting)


def forward_lp_image(d: Dfa, h: LpHom, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """Image of d's language under a length-preserving homomorphism.

    Relabels d into a nondeterministic machine over the target alphabet and
    determinizes by the subset construction; raises CapacityError past
    ``state_cap`` subset states.
    """
    if set(h.source) != set(d.alphabet):
        raise AlphabetMismatchError("hom source and automaton alphabet differ")
    letters = tuple(sorted(h.target, key=letter_key))
    sources: dict[Letter, list[int]] = {b: [] for b in letters}
    for i, a in enumerate(d.alphabet):
        sources[h.letter_image(a)].append(i)
    columns = [sources[b] for b in letters]
    return _explore(
        letters, frozenset([d.start]),
        lambda subset: [
            frozenset(d.delta[q][c] for q in subset for c in cols) for cols in columns
        ],
        lambda subset: subset & d.accepting,
        state_cap, f"subset construction passed {state_cap} states",
    )


# ----- structures, quantification and the literal closure ---------------


def structures_dfa(base_letters: Sequence[str], variables_: Sequence[str]) -> Dfa:
    """Words over the marked alphabet where each variable marks exactly one
    position: the states track the set of variables seen, plus a sink for
    duplicates."""
    base_letters = check_base_letters(base_letters)
    variables_ = check_variables(variables_)
    alphabet = marked_alphabet(base_letters, variables_)
    subsets = mark_subsets(variables_)
    index = {s: i for i, s in enumerate(subsets)}
    sink = len(subsets)
    delta = []
    for seen in subsets:
        row = []
        for letter in alphabet:
            if letter.marks & seen:
                row.append(sink)
            else:
                row.append(index[seen | letter.marks])
        delta.append(row)
    delta.append([sink] * len(alphabet))
    full = frozenset(variables_)
    return Dfa(alphabet, delta, index[frozenset()], [index[full]])


def projection_hom(base_letters: Sequence[str], variables_: Sequence[str]) -> LpHom:
    """Forget the marks: (a, S) goes to a."""
    source = marked_alphabet(base_letters, variables_)
    target = tuple(sorted(check_base_letters(base_letters)))
    return LpHom(source, target, {letter: letter.base for letter in source})


def erasing_hom(base_letters: Sequence[str], variables_: Sequence[str]) -> LpHom:
    """Keep marked positions, erase the base letter elsewhere.

    Maps (a, S) to itself when S is nonempty and to the erased letter when S
    is empty; the target alphabet includes the erased letters.
    """
    source = marked_alphabet(base_letters, variables_)
    target = marked_alphabet(base_letters, variables_, with_erased=True)
    blank = Marked(None, frozenset())
    letter_map = {
        letter: (letter if letter.marks else blank) for letter in source
    }
    return LpHom(source, target, letter_map)


def tensor(d: Dfa, variables_: Sequence[str]) -> Dfa:
    """All valid structures whose base word is accepted by d."""
    base_letters = _plain_alphabet(d)
    proj = projection_hom(base_letters, variables_)
    lifted = inverse_hom_image(minimize(d), proj)
    return minimize(intersect(lifted, structures_dfa(base_letters, variables_)))


def exists_adjoint(
    d: Dfa,
    variables_: Sequence[str],
    base_letters: Sequence[str],
    state_cap: int = DEFAULT_STATE_CAP,
) -> Dfa:
    """Base words some structure of which lies in d's language."""
    _check_marked_operand(d, base_letters, variables_)
    s = structures_dfa(base_letters, variables_)
    proj = projection_hom(base_letters, variables_)
    return minimize(forward_lp_image(minimize(intersect(d, s)), proj, state_cap))


def forall_adjoint(
    d: Dfa,
    variables_: Sequence[str],
    base_letters: Sequence[str],
    state_cap: int = DEFAULT_STATE_CAP,
) -> Dfa:
    """Nonempty base words all structures of which lie in d's language.

    Computed as the complement of the projection of the failing structures,
    then restricted to nonempty words.
    """
    _check_marked_operand(d, base_letters, variables_)
    s = structures_dfa(base_letters, variables_)
    proj = projection_hom(base_letters, variables_)
    failing = minimize(intersect(complement(d), s))
    covered = forward_lp_image(failing, proj, state_cap)
    nonempty = dfa_nonempty_words(proj.target)
    return minimize(intersect(complement(covered), nonempty))


def _check_marked_operand(
    d: Dfa, base_letters: Sequence[str], variables_: Sequence[str]
) -> None:
    if d.alphabet != marked_alphabet(base_letters, variables_):
        raise AlphabetMismatchError(
            "operand alphabet is not the marked alphabet of the given letters "
            "and variables"
        )


def marked_pi1_closure(d: Dfa, k: int, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """The k-variable universal closure over nonempty words, by the literal
    construction: lift the language to its structures, erase the unmarked
    positions, pull back along the erasing map, and take the universal
    image along projection."""
    if k < 1:
        raise ValueError("need at least one variable")
    base = _plain_alphabet(d)
    vs = variables(k)
    lifted = tensor(minimize(intersect(d, dfa_nonempty_words(base))), vs)
    erase = erasing_hom(base, vs)
    kept = minimize(forward_lp_image(lifted, erase, state_cap))
    pulled = minimize(inverse_hom_image(kept, erase))
    return forall_adjoint(pulled, vs, base, state_cap)


# ----- the transition monoid and forward images through it ---------------


def monoid_dfa(d: Dfa, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """d's transition monoid acting on itself by letters, as an automaton.

    The states are the state transformations of words, starting from the
    identity, and each letter composes its own transformation on the right.
    A state accepts when it sends d's start state into acceptance, so the
    automaton recognizes d's language.  Raises CapacityError past
    ``state_cap`` elements.
    """
    gens = list(zip(*d.delta))
    return _explore(
        d.alphabet, tuple(range(d.n_states)),
        lambda t: [tuple(g[q] for q in t) for g in gens],
        lambda t: t[d.start] in d.accepting,
        state_cap, f"transition monoid passed {state_cap} elements",
    )


def monoid_forward_image(
    d: Dfa, h: LpHom, state_cap: int = DEFAULT_STATE_CAP
) -> Dfa:
    """Forward image of d's language along h, inside the powerset of d's
    transition monoid.

    A target word maps to the set of monoid values of its preimages and is
    accepted when one of them recognizes d's language: the subset
    construction over ``monoid_dfa(d)``.  This is the reference route
    against which the subset image over d's own states is compared.
    """
    if set(h.source) != set(d.alphabet):
        raise AlphabetMismatchError("hom source and automaton alphabet differ")
    return forward_lp_image(monoid_dfa(d, state_cap), h, state_cap)
