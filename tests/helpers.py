"""Shared fixtures for the test suite.

Every language builder returns a complete DFA over the two letter alphabet
('a', 'b').  All languages consist of nonempty words only.  Builders are
deliberately tiny hand-built machines; test_automata checks each one
against a plain word predicate so the rest of the suite can trust them.
The chain checks below (``difference_union``, ``nested_difference``,
``closure_terms``, ``family_monotonicity``) are for tests only; the library
does not need them.  ``closure_miss`` compares a closure automaton with the
oracle's length slices of the closure, one walk over each automaton.
``moore_closure`` turns a Moore family from
``diffchain.oracle.moore_families`` into the closure operator that
``diffchain.chains.canonical_pairs`` takes, so one recurrence is checked on
every closure system on a few points; ``upset_closure_of`` and
``mask_minus`` give it the upsets of a poset.  ``identity_keys`` are the
inclusion keys of a pattern automaton that ``pi1_closure`` did not build,
and ``pin_counts`` the reference for the pin-count signatures that
``closure._minimal_pattern`` computes in its bottom-up pass.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import islice

from diffchain import (
    Dfa,
    FinPoset,
    difference,
    dfa_no_words,
    intersect,
    minimize,
    shortest_word,
    subset_of,
    union,
)
from diffchain import closure
from diffchain.automata import DEFAULT_STATE_CAP
from diffchain.chains import canonical_terms
from diffchain.oracle import accepted_slices, closure_slices, slice_difference, words_upto

AB = ("a", "b")


def letters_plus(allowed: Iterable[str]) -> Dfa:
    """Nonempty words built only from the letters in `allowed`."""
    good = frozenset(allowed)
    # 0 start, 1 accept, 2 sink
    delta = []
    for state in (0, 1):
        delta.append([1 if letter in good else 2 for letter in AB])
    delta.append([2, 2])
    return Dfa(AB, delta, 0, [1])


def a_plus() -> Dfa:
    return letters_plus({"a"})


def b_plus() -> Dfa:
    return letters_plus({"b"})


def a_plus_or_b_plus() -> Dfa:
    return minimize(union(a_plus(), b_plus()))


def contains(letter: str) -> Dfa:
    """Words with at least one occurrence of `letter`."""
    return Dfa(AB, [[1 if x == letter else 0 for x in AB], [1, 1]], 0, [1])


def with_columns(d: Dfa, letters: Iterable) -> Dfa:
    """The same automaton given with its alphabet, and so its columns, in
    the order of ``letters``; the constructor sorts them back."""
    letters = tuple(letters)
    cols = [d.letter_index(a) for a in letters]
    return Dfa(letters, [[row[i] for i in cols] for row in d.delta], d.start, d.accepting)


def literal(word: str) -> Dfa:
    """The single word `word` (must be nonempty over ('a', 'b'))."""
    assert word and all(x in AB for x in word)
    n = len(word)
    sink = n + 1
    delta = []
    for pos in range(n):
        delta.append([pos + 1 if x == word[pos] else sink for x in AB])
    delta.append([sink, sink])  # past the word
    delta.append([sink, sink])
    return Dfa(AB, delta, 0, [n])


def ab_repeat() -> Dfa:
    """The words ab, abab, ababab, ..."""
    # 0 start, 1 saw a, 2 accept, 3 sink
    return Dfa(AB, [[1, 3], [3, 2], [1, 3], [3, 3]], 0, [2])


def a_star_b() -> Dfa:
    """Words of shape a...ab: any number of a's then a single b."""
    return Dfa(AB, [[0, 1], [2, 2], [2, 2]], 0, [1])


def nth_letter_is_a(n: int) -> Dfa:
    """The words of length at least n whose n-th letter is a."""
    delta = [[q + 1, q + 1] for q in range(n - 1)]
    return Dfa(AB, delta + [[n, n + 1], [n, n], [n + 1, n + 1]], 0, [n])


def difference_union(trace) -> Dfa:
    """Union of the odd-even differences of a ``ChainTrace``'s chain, and
    of its last term when the chain has odd length."""
    acc = dfa_no_words(trace.target.alphabet)
    comps = trace.chain
    for i in range(0, len(comps) - 1, 2):
        acc = union(acc, difference(comps[i], comps[i + 1]))
    if len(comps) % 2:
        acc = union(acc, comps[-1])
    return minimize(acc)


def nested_difference(trace) -> Dfa:
    """A ``ChainTrace``'s chain read as G1 - (G2 - (G3 - ...))."""
    acc = dfa_no_words(trace.target.alphabet)
    for comp in reversed(trace.chain):
        acc = difference(comp, acc)
    return minimize(acc)


def closure_terms(
    d: Dfa, k: int, count: int, state_cap: int = DEFAULT_STATE_CAP
) -> list[Dfa]:
    """The first ``count`` terms of d's canonical chain of k-variable
    closures, each closure asked for through ``closure.pi1_closure``."""
    terms = canonical_terms(
        lambda lang: closure.pi1_closure(lang, k, state_cap), difference, intersect, d
    )
    return list(islice(terms, count))


def closure_miss(closed: Dfa, d: Dfa, k: int, max_len: int) -> tuple[str, ...] | None:
    """The first word of length at most ``max_len``, shortest first, on
    which ``closed`` and the k-variable closure of d's language disagree,
    each read in one walk: ``closed`` by ``oracle.accepted_slices``, the
    closure by ``oracle.closure_slices``."""
    got = accepted_slices(closed, max_len)
    want = closure_slices(d, k, max_len)
    for n in range(1, max_len + 1):
        word = slice_difference(got[n], want[n], d.alphabet, n)
        if word is not None:
            return word
    return None


def family_monotonicity(
    d: Dfa,
    k_small: int,
    k_large: int,
    pairs: int = 2,
    state_cap: int = DEFAULT_STATE_CAP,
) -> tuple[bool, tuple | None]:
    """Check that more variables give smaller chain terms.

    Compares the first 2*``pairs`` chain terms at ``k_small`` and ``k_large``
    and returns (True, None) when every term at the larger k is included in
    the corresponding term at the smaller k, else (False, witness word).
    """
    if not 1 <= k_small <= k_large:
        raise ValueError("need 1 <= k_small <= k_large")
    if pairs < 1:
        raise ValueError("need at least one pair")
    coarse = closure_terms(d, k_small, 2 * pairs, state_cap)
    fine = closure_terms(d, k_large, 2 * pairs, state_cap)
    for small_term, large_term in zip(coarse, fine):
        if not subset_of(large_term, small_term):
            return False, shortest_word(difference(large_term, small_term))
    return True, None


def mask_minus(a: int, b: int) -> int:
    """Set difference on bitmasks."""
    return a & ~b


def upset_closure_of(p: FinPoset):
    """Upward closure in p on bitmasks: the union of the principal upsets
    of the members."""

    def close(s: int) -> int:
        acc = 0
        for x, up in enumerate(p.upm):
            if s >> x & 1:
                acc |= up
        return acc

    return close


def moore_closure(family: Iterable[int], n: int):
    """The closure operator of a Moore family on n points, as a lookup
    table's ``__getitem__``: a bitmask goes to the meet of every member
    that contains it."""
    table = []
    for s in range(1 << n):
        least = (1 << n) - 1
        for m in family:
            if not s & ~m:
                least &= m
        table.append(least)
    return table.__getitem__


def assert_lang(dfa: Dfa, predicate, max_len: int = 6) -> None:
    """Check `dfa` against `predicate` on every nonempty word up to max_len."""
    for word in words_upto(dfa.alphabet, max_len):
        assert dfa.accepts(word) == predicate(word), word


def identity_keys(n: int) -> list[tuple[int, int]]:
    """Keys for the n states of a hand-built or unkeyed pattern automaton,
    as the universal projection takes them: state p gets (0, {p}), so the
    key test passes only on the diagonal and proves no inclusion."""
    return [(0, 1 << p) for p in range(n)]


def pin_counts(pattern: Dfa, box: int, k: int) -> list[int]:
    """A signature per pattern state: bit 0 set when it accepts, bit j + 1
    when it accepts some pattern with exactly j pins (j <= k).  Each bit
    says that the language holds some pattern, so L(p) ⊆ L(q) implies that
    sig[p] is a subset of sig[q].

    Bit j + 1 spreads back from its seeds over box predecessors; the letter
    predecessors of what it reached seed bit j + 2.
    """
    box_preds: list[list[int]] = [[] for _ in range(pattern.n_states)]
    letter_preds: list[list[int]] = [[] for _ in range(pattern.n_states)]
    for p, row in enumerate(pattern.delta):
        for i, t in enumerate(row):
            (box_preds if i == box else letter_preds)[t].append(p)
    sig = [int(p in pattern.accepting) for p in range(pattern.n_states)]
    todo = list(pattern.accepting)
    for bit in (2 << j for j in range(k + 1)):
        layer = []
        while todo:
            t = todo.pop()
            if not sig[t] & bit:
                sig[t] |= bit
                layer.append(t)
                todo += box_preds[t]
        todo = [p for t in layer for p in letter_preds[t]]
    return sig


def principal_upset_map(p: FinPoset, dual: FinPoset) -> list[int] | None:
    """Certificate that ``dual``, the join-irreducibles of p's upset
    lattice, is isomorphic to p.

    Sends x to the index of its principal upset among the principal upsets
    in the dual's numbering (by size, then sorted elements).  Returns that
    map when it is a bijection onto the dual's carrier with x <= y iff
    f(x) <= f(y), else None.
    """
    principal = sorted(p.up, key=lambda u: (len(u), sorted(u)))
    index = {u: i for i, u in enumerate(principal)}
    f = [index[p.up[x]] for x in range(p.n)]
    if dual.n != p.n or len(index) != p.n:
        return None
    for x in range(p.n):
        for y in range(p.n):
            if (p.upm[x] >> y & 1) != (dual.upm[f[x]] >> f[y] & 1):
                return None
    return f
