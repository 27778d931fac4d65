"""DFAs over plain and marked alphabets: boolean algebra and minimization,
and the reference-route toolkits in ``diffchain.oracle`` (transition monoids,
homomorphic images, structures, quantifier adjoints)."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from diffchain import (
    AlphabetMismatchError,
    CapacityError,
    Dfa,
    Marked,
    complement,
    dfa_all_words,
    dfa_from_json,
    dfa_no_words,
    dfa_nonempty_words,
    dfa_to_dot,
    dfa_to_json,
    difference,
    equivalent,
    intersect,
    is_empty_lang,
    minimize,
    shortest_word,
    subset_of,
    union,
)
import diffchain
from diffchain import automata
from diffchain.automata import letter_key
from diffchain.oracle import (
    LpHom,
    check_base_letters,
    check_variables,
    erasing_hom,
    forall_adjoint,
    forward_lp_image,
    inverse_hom_image,
    mark_subsets,
    marked_alphabet,
    monoid_dfa,
    monoid_forward_image,
    projection_hom,
    structures_dfa,
    tensor,
    variables,
    words_upto,
)

from helpers import (
    AB,
    a_plus,
    a_plus_or_b_plus,
    a_star_b,
    ab_repeat,
    assert_lang,
    b_plus,
    contains,
    identity_keys,
    literal,
)


@st.composite
def dfas(draw, alphabet=AB, max_states=4):
    n = draw(st.integers(min_value=1, max_value=max_states))
    delta = [
        [draw(st.integers(min_value=0, max_value=n - 1)) for _ in alphabet]
        for _ in range(n)
    ]
    accepting = draw(st.frozensets(st.integers(min_value=0, max_value=n - 1)))
    return Dfa(alphabet, delta, 0, accepting)


def all_words(max_len, alphabet=AB):
    yield ()
    yield from words_upto(alphabet, max_len)


# ----- marked letters and alphabets --------------------------------------


def test_marked_letter_display():
    assert str(Marked("a")) == "(a)"
    assert str(Marked("a", {"x2", "x1"})) == "(a|x1,x2)"
    assert str(Marked(None)) == "(ε)"


def test_letter_key_orders_plain_before_marked():
    letters = [Marked("a"), "b", Marked(None), "a", Marked("a", {"x1"})]
    ordered = sorted(letters, key=letter_key)
    assert ordered[:2] == ["a", "b"]
    assert ordered[2] == Marked(None)  # erased letters sort first among marked


def test_marked_alphabet_sizes():
    assert len(marked_alphabet(AB, ("x1",))) == 4
    assert len(marked_alphabet(AB, ("x1",), with_erased=True)) == 6
    assert len(marked_alphabet(AB, ("x1", "x2"))) == 8
    plain = [m for m in marked_alphabet(AB, ("x1",)) if not m.marks]
    assert [m.base for m in plain] == ["a", "b"]


def test_mark_subsets_order():
    subs = mark_subsets(("x1", "x2"))
    assert subs[0] == frozenset()
    assert set(subs[1:3]) == {frozenset({"x1"}), frozenset({"x2"})}
    assert subs[3] == frozenset({"x1", "x2"})


def test_marked_alphabet_matches_one_mark_subsets_per_base_letter():
    # the list of mark sets is computed once and shared by every base letter
    for n in (1, 2, 3):
        xs = variables(n)
        for with_erased in (False, True):
            bases = list(AB) + ([None] if with_erased else [])
            old = sorted((Marked(b, s) for b in bases for s in mark_subsets(xs)), key=letter_key)
            assert marked_alphabet(AB, xs, with_erased) == tuple(old)


def test_variable_validation():
    assert variables(2) == ("x1", "x2")
    with pytest.raises(ValueError):
        variables(0)
    with pytest.raises(ValueError):
        check_variables(())
    with pytest.raises(ValueError):
        check_variables(("x", "x"))
    with pytest.raises(ValueError):
        check_variables(("",))


def test_base_letter_validation():
    assert check_base_letters(AB) == AB
    with pytest.raises(ValueError):
        check_base_letters(())
    with pytest.raises(ValueError):
        check_base_letters(("a", "a"))
    with pytest.raises(ValueError):
        check_base_letters(("eps",))


# ----- construction and word fixtures ------------------------------------


def test_dfa_validation():
    with pytest.raises(ValueError):
        Dfa((), [[0]], 0, [])
    with pytest.raises(ValueError):
        Dfa(("a", "a"), [[0, 0]], 0, [])
    with pytest.raises(ValueError):
        Dfa(AB, [], 0, [])
    with pytest.raises(ValueError):
        Dfa(AB, [[0]], 0, [])  # row too short
    with pytest.raises(ValueError):
        Dfa(AB, [[0, 2]], 0, [])  # transition out of range
    with pytest.raises(ValueError):
        Dfa(AB, [[0, 0]], 1, [])
    with pytest.raises(ValueError):
        Dfa(AB, [[0, 0]], 0, [3])
    with pytest.raises(ValueError):
        Dfa(AB, [[False, 0]], 0, [])  # bool is not a state index
    with pytest.raises(ValueError):
        Dfa(AB, [[0, 0]], 0, [True])


@pytest.mark.parametrize("row, message", [
    ([1, True], "state 777 has a transition outside 0..999"),
    ([-1, 1], "state 777 has a transition outside 0..999"),
    ([1, 1000], "state 777 has a transition outside 0..999"),
    ([1], "state 777 has 1 transitions, want 2"),
])
def test_dfa_names_the_bad_state_deep_in_a_large_table(row, message):
    # the other rows hold the state 1, so a check on the set of values
    # rather than on their types would take True for a state
    delta = [[(q + 1) % 1000, 1] for q in range(1000)]
    delta[777] = row
    with pytest.raises(ValueError, match=f"^{message}$"):
        Dfa(AB, delta, 0, [])


def test_dfa_puts_its_columns_in_canonical_order():
    # plain letters first, then the erased letter, then marked ones
    canonical = ("a", "b", Marked(None), Marked("a", {"x1"}))
    rng = random.Random(1701)
    d = Dfa(canonical, [[rng.randrange(4) for _ in canonical] for _ in range(4)], 0, [1, 3])
    words = list(words_upto(canonical, 3))
    for order in itertools.permutations(canonical):
        cols = [canonical.index(a) for a in order]
        e = Dfa(order, [[row[i] for i in cols] for row in d.delta], d.start, d.accepting)
        assert e.alphabet == canonical and e.delta == d.delta
        assert e == d and hash(e) == hash(d)
        assert [e.accepts(w) for w in words] == [d.accepts(w) for w in words]
    swapped = Dfa(("b", "a"), [[1, 0], [1, 1]], 0, [1])
    assert swapped == Dfa(AB, [[0, 1], [1, 1]], 0, [1])
    assert swapped.alphabet == AB


def test_dfa_rejects_letters_without_a_canonical_order():
    # 1 and "1" are distinct letters with the same letter_key
    with pytest.raises(ValueError, match="letter_key"):
        Dfa((1, "1"), [[0, 0]], 0, [])
    with pytest.raises(ValueError, match="letter_key"):
        Dfa(("a", 1, "b", "1"), [[0, 0, 0, 0]], 0, [])


@pytest.fixture
def empty_alphabet_cache(monkeypatch):
    """A fresh alphabet cache, so a test sees each alphabet for the first
    time; the shared one comes back afterwards."""
    monkeypatch.setattr(automata, "_ALPHABET_CACHE", {})
    monkeypatch.setattr(automata, "_CANONICAL_BY_ID", {})


def test_equal_letters_of_different_types_keep_their_own_objects(empty_alphabet_cache):
    # 1 == True == 1.0 and Marked(1) == Marked(True), with equal hashes
    for first in (1, True, 1.0, 1, Marked(1), Marked(True), Marked(1)):
        d = Dfa((first, "b"), [[0, 0]], 0, [0])
        assert any(a is first for a in d.alphabet)
        assert sorted(map(repr, d.alphabet)) == sorted([repr(first), "'b'"])
        assert d.accepts([first, "b"]) and d.accepts(["b", first])


def test_canonical_alphabet_passed_back_gives_the_same_automaton(empty_alphabet_cache):
    canonical = ("a", "b", Marked(None), Marked("a", {"x1"}))
    rng = random.Random(2003)
    for order in itertools.permutations(canonical):
        automata._ALPHABET_CACHE.clear()
        automata._CANONICAL_BY_ID.clear()
        cols = [order.index(a) for a in canonical]
        for _ in range(5):
            delta = [[rng.randrange(4) for _ in order] for _ in range(4)]
            d = Dfa(order, delta, 0, [1, 3])
            assert d.alphabet == canonical
            assert d.delta == tuple(tuple(row[i] for i in cols) for row in delta)
            again = Dfa(d.alphabet, d.delta, d.start, d.accepting)
            assert again == d and again.delta == d.delta and again.alphabet is d.alphabet
            # a fresh tuple in the first order still takes its permutation
            assert Dfa(list(order), delta, 0, [1, 3]) == d
            assert minimize(d) == minimize(again)


def test_alphabet_cache_stays_small(empty_alphabet_cache, monkeypatch):
    monkeypatch.setattr(automata, "_ALPHABET_CACHE_LIMIT", 4)
    for order in itertools.permutations(("a", "b", "c", Marked(None))):
        d = Dfa(order, [[0, 0, 0, 0], [int(a == "c") for a in order]], 1, [0])
        assert len(automata._ALPHABET_CACHE) <= 5
        again = Dfa(d.alphabet, d.delta, d.start, d.accepting)
        assert again == d and again.alphabet == ("a", "b", "c", Marked(None))
        assert d.delta[1] == (0, 0, 1, 0)


@pytest.mark.parametrize("letters, error, message", [
    (("a", "a"), ValueError, "alphabet letters must be distinct"),
    ((Marked("a"), "b", Marked("a")), ValueError, "alphabet letters must be distinct"),
    ((1, "1"), ValueError, "alphabet letters must have distinct letter_key values"),
    (("a", ["b"]), TypeError, "unhashable type: 'list'"),
    ((Marked(["a"]), "b"), TypeError, "unhashable type: 'list'"),
])
def test_bad_alphabets_fail_on_every_construction(letters, error, message):
    for _ in range(3):
        with pytest.raises(error, match=f"^{message}$"):
            Dfa(letters, [[0] * len(letters)], 0, [])


def test_repeated_alphabet_computes_its_keys_once(empty_alphabet_cache, monkeypatch):
    calls = []

    def counting_key(letter):
        calls.append(letter)
        return letter_key(letter)

    monkeypatch.setattr(automata, "letter_key", counting_key)
    letters = ["b", Marked("a", {"x1"}), "a", Marked(None)]
    d = Dfa(letters, [[0] * 4], 0, [0])
    for i in range(1000):
        e = Dfa(list(letters) if i % 2 else d.alphabet, [[0] * 4], 0, [0])
        assert e == d
    assert len(calls) <= len(letters)


def test_importing_the_library_builds_no_automaton():
    # the benchmark's cold-start check reads module attributes named *_CACHE
    code = (
        "import sys, diffchain, diffchain.cli, diffchain.oracle\n"
        "from diffchain import automata\n"
        "sys.exit(len(automata._ALPHABET_CACHE) + len(automata._CANONICAL_BY_ID))\n"
    )
    src = str(Path(diffchain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    Dfa(AB, [[0, 0]], 0, [])
    assert any(name.endswith("_CACHE") and value for name, value in vars(automata).items())


def test_dfa_is_immutable_and_hashable():
    d = a_plus()
    with pytest.raises(AttributeError):
        d.start = 1
    assert d == a_plus()
    assert hash(d) == hash(a_plus())
    assert d != b_plus()
    assert len({d, a_plus()}) == 1


def test_letter_index_rejects_foreign_letters():
    with pytest.raises(AlphabetMismatchError):
        a_plus().accepts("ac")


def test_word_fixtures_match_their_predicates():
    assert_lang(a_plus(), lambda w: all(x == "a" for x in w))
    assert_lang(b_plus(), lambda w: all(x == "b" for x in w))
    assert_lang(a_plus_or_b_plus(), lambda w: len(set(w)) == 1)
    assert_lang(contains("a"), lambda w: "a" in w)
    assert_lang(contains("b"), lambda w: "b" in w)
    assert_lang(literal("ab"), lambda w: "".join(w) == "ab")
    assert_lang(literal("a"), lambda w: "".join(w) == "a")
    assert_lang(ab_repeat(), lambda w: len(w) % 2 == 0 and "".join(w) == "ab" * (len(w) // 2))
    assert_lang(a_star_b(), lambda w: "".join(w) == "a" * (len(w) - 1) + "b")


def test_word_fixtures_reject_what_they_should():
    # the helpers' asserts must hold under python -O as well (conftest.py)
    with pytest.raises(AssertionError):
        assert_lang(a_plus(), lambda w: "b" in w)
    with pytest.raises(AssertionError):
        literal("c")


def test_constant_languages():
    assert dfa_all_words(AB).accepts("")
    assert dfa_all_words(AB).accepts("abba")
    assert not dfa_no_words(AB).accepts("")
    assert is_empty_lang(dfa_no_words(AB))
    assert not dfa_nonempty_words(AB).accepts("")
    assert dfa_nonempty_words(AB).accepts("b")


# ----- boolean operations ------------------------------------------------


@given(dfas(), dfas())
def test_boolean_operations_match_set_algebra(d1, d2):
    u = union(d1, d2)
    i = intersect(d1, d2)
    m = difference(d1, d2)
    c = complement(d1)
    for w in all_words(4):
        a1, a2 = d1.accepts(w), d2.accepts(w)
        assert u.accepts(w) == (a1 or a2)
        assert i.accepts(w) == (a1 and a2)
        assert m.accepts(w) == (a1 and not a2)
        assert c.accepts(w) == (not a1)


@given(dfas(), dfas())
def test_difference_equals_intersection_with_the_complement(d1, d2):
    assert difference(d1, d2) == intersect(d1, complement(d2))


@given(dfas(), dfas())
def test_de_morgan_and_involution(d1, d2):
    assert equivalent(complement(complement(d1)), d1)
    assert equivalent(complement(union(d1, d2)), intersect(complement(d1), complement(d2)))
    assert equivalent(complement(intersect(d1, d2)), union(complement(d1), complement(d2)))


def test_product_requires_matching_alphabets():
    with pytest.raises(AlphabetMismatchError):
        union(a_plus(), dfa_all_words(("a", "c")))
    with pytest.raises(AlphabetMismatchError):
        equivalent(a_plus(), dfa_all_words(("a", "c")))


@given(dfas(max_states=5))
def test_emptiness_and_shortest_word(d):
    w = shortest_word(d)
    if is_empty_lang(d):
        assert w is None
        assert all(not d.accepts(v) for v in all_words(5))
    else:
        assert w is not None and d.accepts(w)
        assert len(w) < d.n_states
        assert all(not d.accepts(v) for v in all_words(len(w) - 1) if len(v) < len(w))


@given(dfas(), dfas())
@example(  # the shortest word of the first language outside the second has 8 letters
    Dfa(AB, [[0, 2], [1, 0], [3, 0], [3, 1]], 0, [1, 2]),
    Dfa(AB, [[0, 1], [2, 0], [1, 0]], 0, [0, 1]),
)
def test_subset_of_matches_word_inclusion(d1, d2):
    # a word's membership in both languages depends only on the pair of
    # states it reaches, so the shortest word reaching each pair decides the
    # inclusion.  Two 4-state machines can need 8 letters or more (up to 15),
    # so a fixed word length is not enough
    claim = subset_of(d1, d2)
    reaching = {}
    level = [()]
    while level:
        fresh = []
        for w in level:
            pair = (d1.run(d1.start, w), d2.run(d2.start, w))
            if pair not in reaching:
                reaching[pair] = w
                fresh += [w + (a,) for a in AB]
        level = fresh
    brute = all(d2.accepts(w) for w in reaching.values() if d1.accepts(w))
    assert claim == brute


def test_shortest_word_prefers_short_and_is_deterministic():
    assert shortest_word(dfa_all_words(AB)) == ()
    assert shortest_word(a_plus()) == ("a",)
    assert shortest_word(ab_repeat()) == ("a", "b")
    assert shortest_word(dfa_no_words(AB)) is None


# ----- minimization ------------------------------------------------------


@given(dfas(max_states=5))
def test_minimize_preserves_the_language(d):
    m = minimize(d)
    for w in all_words(5):
        assert m.accepts(w) == d.accepts(w)
    assert m.n_states <= d.n_states
    assert minimize(m) == m


@given(dfas())
def test_minimize_is_canonical_across_presentations(d):
    # pad with an unreachable state and a redundant product; same language
    padded = Dfa(
        d.alphabet,
        list(d.delta) + [list(d.delta[0])],
        d.start,
        d.accepting,
    )
    assert minimize(padded) == minimize(d)
    assert minimize(intersect(d, dfa_all_words(AB))) == minimize(d)


@given(dfas(max_states=5))
def test_minimized_states_are_pairwise_distinguishable(d):
    m = minimize(d)
    probes = list(all_words(m.n_states))
    profiles = {
        q: tuple(m.run(q, w) in m.accepting for w in probes)
        for q in range(m.n_states)
    }
    assert len(set(profiles.values())) == m.n_states


def _moore_minimize(d):
    """Reference route: Moore refinement (every state's class and its
    successors' classes, until the class count stops growing), then the
    same reachable part and breadth-first numbering as ``minimize``."""
    letters = tuple(sorted(d.alphabet, key=letter_key))
    cols = [d.letter_index(a) for a in letters]
    seen = {d.start}
    stack = [d.start]
    while stack:
        q = stack.pop()
        for c in cols:
            if d.delta[q][c] not in seen:
                seen.add(d.delta[q][c])
                stack.append(d.delta[q][c])
    states = sorted(seen)
    cls = {q: q in d.accepting for q in states}
    count = len(set(cls.values()))
    while True:
        keys = {q: (cls[q], *(cls[d.delta[q][c]] for c in cols)) for q in states}
        names = {key: i for i, key in enumerate(dict.fromkeys(keys[q] for q in states))}
        cls = {q: names[keys[q]] for q in states}
        if len(names) == count:
            break
        count = len(names)
    rep = {}
    for q in states:
        rep.setdefault(cls[q], q)
    number = {cls[d.start]: 0}
    order = [cls[d.start]]
    delta = []
    for block in order:
        row = []
        for c in cols:
            t = cls[d.delta[rep[block]][c]]
            if t not in number:
                number[t] = len(order)
                order.append(t)
            row.append(number[t])
        delta.append(row)
    return Dfa(letters, delta, 0, [number[b] for b in order if rep[b] in d.accepting])


def _append_unreachable(rng, d):
    """d with 1..6 states appended that no old state points at: some copy
    an old state's row and acceptance (so are equivalent to it), the others
    have random rows and accept at random."""
    n, extra = d.n_states, rng.randint(1, 6)
    delta, accepting = list(d.delta), set(d.accepting)
    for q in range(n, n + extra):
        if rng.random() < 0.4:
            twin = rng.randrange(n)
            delta.append(d.delta[twin])
            if twin in d.accepting:
                accepting.add(q)
        else:
            delta.append([rng.randrange(n + extra) for _ in d.alphabet])
            if rng.random() < 0.5:
                accepting.add(q)
    return Dfa(d.alphabet, delta, d.start, accepting)


def _minimize_corpus():
    """Seeded automata for the Moore comparison: random ones with a random
    start (so some states are unreachable), the same with unreachable states
    appended, and their redundant products, constant ones, one-state ones,
    marked-letter alphabets, and the pattern and projection automata of the
    closure at k = 1..3."""
    from diffchain.closure import _normalize, _pattern_automaton, _universal_projection
    from diffchain.oracle import random_dfa

    rng = random.Random(4)
    marked = (Marked("b", {"x1"}), "a", Marked(None), Marked("a"))
    for _ in range(120):
        alphabet = rng.choice([("a",), AB, ("c", "a", "b"), marked])
        d = random_dfa(rng, rng.choice([1, 3, 8, 40, 200]), alphabet)
        d = Dfa(d.alphabet, d.delta, rng.randrange(d.n_states), d.accepting)
        yield d
        yield _append_unreachable(rng, d)
        yield union(d, random_dfa(rng, 4, alphabet))
        yield Dfa(d.alphabet, d.delta, d.start, range(d.n_states))
        yield Dfa(d.alphabet, d.delta, d.start, [])
    for alphabet in (AB, marked):
        yield dfa_all_words(alphabet)
        yield dfa_no_words(alphabet)
        yield dfa_nonempty_words(alphabet)
    targets = [a_plus_or_b_plus(), ab_repeat(), literal("aba")]
    targets += [random_dfa(rng, 4, AB) for _ in range(6)]
    targets += [random_dfa(rng, 5, ("a", "b", "c")) for _ in range(3)]
    for target in map(_normalize, targets):
        for k in (1, 2, 3):
            pattern = _pattern_automaton(target, k, 10_000, [])
            yield pattern
            minimal = minimize(pattern)
            yield _universal_projection(minimal, k, 10_000, identity_keys(minimal.n_states))


def test_minimize_matches_moore_refinement():
    corpus = list(_minimize_corpus())
    assert len(corpus) > 500
    for d in corpus:
        assert minimize(d) == _moore_minimize(d), d


def test_equivalent_examples():
    assert equivalent(a_plus_or_b_plus(), union(b_plus(), a_plus()))
    assert not equivalent(a_plus(), b_plus())
    assert equivalent(dfa_no_words(AB), difference(a_plus(), a_plus()))


# ----- homomorphisms -----------------------------------------------------


def test_hom_validation():
    with pytest.raises(AlphabetMismatchError):
        LpHom(AB, AB, {"a": "b"})  # b missing
    with pytest.raises(AlphabetMismatchError):
        LpHom(("c",), AB, {"c": "d"})  # image leaves the target
    with pytest.raises(ValueError):
        LpHom(("a", "a"), AB, {"a": "b"})
    h = LpHom(("c",), AB, {"c": "b"})
    with pytest.raises(AlphabetMismatchError):
        h.letter_image("z")
    with pytest.raises(AttributeError):
        h.source = AB


def test_hom_word_image():
    lp = LpHom(AB, ("a",), {"a": "a", "b": "a"})
    assert lp.letter_image("b") == "a"
    assert tuple(map(lp.letter_image, "ab")) == ("a", "a")


def test_inverse_hom_image_example():
    # c maps to b and d to a, so the preimage of "contains b" is "contains c"
    h = LpHom(("c", "d"), AB, {"c": "b", "d": "a"})
    pre = inverse_hom_image(contains("b"), h)
    assert pre.alphabet == ("c", "d")
    assert not pre.accepts("") and not pre.accepts("dd")
    assert pre.accepts("c") and pre.accepts("dcd")


@given(dfas())
def test_inverse_hom_image_membership(d):
    h = LpHom(("c", "d", "e"), AB, {"c": "a", "d": "b", "e": "b"})
    pre = inverse_hom_image(d, h)
    for w in all_words(4, ("c", "d", "e")):
        assert pre.accepts(w) == d.accepts(tuple(map(h.letter_image, w)))


def test_inverse_hom_image_checks_alphabets():
    h = LpHom(("c",), ("a", "z"), {"c": "z"})
    with pytest.raises(AlphabetMismatchError):
        inverse_hom_image(contains("a"), h)


def test_forward_lp_image_example():
    collapse = LpHom(AB, ("a",), {"a": "a", "b": "a"})
    image = forward_lp_image(contains("a"), collapse)
    # one word of every positive length contains an a
    assert_lang(image, lambda w: len(w) >= 1)


@given(dfas())
def test_forward_lp_image_membership(d):
    # the monoid image is built by the same explorer as the subset image;
    # brute-force preimages share nothing with it
    collapse = LpHom(AB, ("a",), {"a": "a", "b": "a"})
    swap = LpHom(AB, ("b", "a"), {"a": "b", "b": "a"})
    for h in (collapse, swap):
        images = [forward_lp_image(d, h), monoid_forward_image(d, h)]
        for n in range(6):
            for v in itertools.product(h.target, repeat=n):
                pre = [[a for a in AB if h.letter_image(a) == b] for b in v]
                brute = any(d.accepts(w) for w in itertools.product(*pre))
                assert [image.accepts(v) for image in images] == [brute, brute]


@given(dfas())
def test_forward_and_inverse_are_a_galois_pair(d):
    collapse = LpHom(AB, ("a",), {"a": "a", "b": "a"})
    image = forward_lp_image(d, collapse)
    back = inverse_hom_image(image, collapse)
    assert subset_of(d, back)
    # collapse is onto, so image of preimage gives back the image
    assert equivalent(forward_lp_image(back, collapse), image)


def test_forward_lp_image_checks_alphabet_and_cap():
    collapse = LpHom(("a", "z"), ("a",), {"a": "a", "z": "a"})
    with pytest.raises(AlphabetMismatchError):
        forward_lp_image(contains("a"), collapse)
    wide = LpHom(AB, ("a",), {"a": "a", "b": "a"})
    with pytest.raises(CapacityError):
        forward_lp_image(ab_repeat(), wide, state_cap=2)


def test_forward_lp_image_cap_admits_exactly_cap_states():
    collapse = LpHom(AB, ("a",), {"a": "a", "b": "a"})
    d = Dfa(AB, [[1, 2], [3, 0], [4, 4], [5, 5], [5, 1], [5, 5]], 0, [5])
    image = forward_lp_image(d, collapse)
    cap = image.n_states
    assert cap >= 5
    assert forward_lp_image(d, collapse, state_cap=cap) == image
    with pytest.raises(CapacityError) as err:
        forward_lp_image(d, collapse, state_cap=cap - 1)
    assert str(err.value) == f"subset construction passed {cap - 1} states"


# ----- structures and quantifier adjoints --------------------------------


def M(base, *marks):
    return Marked(base, frozenset(marks))


def contains_dfa_over(alphabet, letter):
    # 2-state "contains this letter" machine over an arbitrary alphabet
    return Dfa(
        alphabet,
        [[1 if a == letter else 0 for a in alphabet], [1] * len(alphabet)],
        0,
        [1],
    )


def test_structures_require_each_variable_exactly_once():
    s = structures_dfa(AB, ("x1",))
    assert s.n_states == 3
    assert s.accepts([M("a"), M("b", "x1")])
    assert s.accepts([M("a", "x1")])
    assert not s.accepts([M("a"), M("b")])
    assert not s.accepts([M("a", "x1"), M("b", "x1")])
    assert not s.accepts([])


def test_structures_allow_shared_positions():
    s = structures_dfa(AB, ("x1", "x2"))
    assert s.n_states == 5
    assert s.accepts([M("a", "x1", "x2")])
    assert s.accepts([M("a", "x2"), M("b", "x1")])
    assert not s.accepts([M("a", "x1")])
    assert not s.accepts([M("a", "x1", "x2"), M("b", "x2")])


def test_tensor_pairs_language_members_with_all_markings():
    t = tensor(contains("a"), ("x1",))
    assert t.accepts([M("a", "x1"), M("b")])
    assert t.accepts([M("b", "x1"), M("a")])
    assert not t.accepts([M("b", "x1"), M("b")])  # base word has no a
    assert not t.accepts([M("a"), M("b")])  # no marked position
    with pytest.raises(AlphabetMismatchError):
        tensor(t, ("x1",))  # already marked


def test_marked_position_quantifiers():
    marked_a = contains_dfa_over(marked_alphabet(AB, ("x1",)), M("a", "x1"))
    base = sorted(AB)
    some = intersect(
        dfa_nonempty_words(base), complement(forall_adjoint(complement(marked_a), ("x1",), base))
    )
    every = forall_adjoint(marked_a, ("x1",), base)
    assert_lang(some, lambda w: "a" in w)
    assert_lang(every, lambda w: all(x == "a" for x in w))


def test_adjoint_operands_must_be_marked():
    with pytest.raises(AlphabetMismatchError):
        intersect(
            dfa_nonempty_words(AB), complement(forall_adjoint(complement(contains("a")), ("x1",), AB))
        )
    with pytest.raises(AlphabetMismatchError):
        forall_adjoint(contains("a"), ("x1",), AB)


@given(dfas())
def test_quantifiers_bracket_the_base_language(d):
    # a word whose structures all satisfy the condition in particular has one
    alphabet = marked_alphabet(AB, ("x1",))
    marked = inverse_hom_image(d, LpHom(alphabet, AB, {m: m.base for m in alphabet}))
    some = intersect(
        dfa_nonempty_words(AB), complement(forall_adjoint(complement(marked), ("x1",), sorted(AB)))
    )
    every = forall_adjoint(marked, ("x1",), sorted(AB))
    assert subset_of(every, some)
    # marking cannot change a mark-blind condition on nonempty words
    restricted = minimize(intersect(d, dfa_nonempty_words(AB)))
    assert equivalent(some, restricted)
    assert equivalent(every, restricted)


def test_erasing_hom_keeps_marked_positions():
    theta = erasing_hom(AB, ("x1",))
    w = [M("a"), M("b", "x1"), M("a")]
    assert tuple(map(theta.letter_image, w)) == (M(None), M("b", "x1"), M(None))
    # two structures with the same erased image
    v = [M("b"), M("b", "x1"), M("b")]
    assert tuple(map(theta.letter_image, v)) == tuple(map(theta.letter_image, w))


def test_projection_hom_forgets_marks():
    proj = projection_hom(AB, ("x1",))
    assert tuple(map(proj.letter_image, [M("a", "x1"), M("b")])) == ("a", "b")
    assert proj.target == ("a", "b")


# ----- the transition monoid's automaton ---------------------------------


def test_monoid_dfa_of_a_star_b():
    # the identity, a, b and the zero
    assert monoid_dfa(a_star_b()).n_states == 4


def test_monoid_dfa_of_constant_language_is_trivial():
    assert monoid_dfa(dfa_all_words(AB)).n_states == 1


def test_monoid_dfa_of_single_variable_structures():
    # the unmarked letter acts as the identity, the marked one as an
    # element x with x·x the zero
    m = monoid_dfa(structures_dfa(("a",), ("x1",)))
    assert m.delta == ((0, 1), (1, 2), (2, 2))
    assert m.accepting == {1}


@given(dfas())
def test_monoid_recognizes_the_same_language(d):
    m = monoid_dfa(d)
    for w in all_words(4):
        assert m.accepts(w) == d.accepts(w)


def test_monoid_dfa_cap_admits_exactly_cap_elements():
    cap = 4
    assert monoid_dfa(a_star_b(), state_cap=cap) == monoid_dfa(a_star_b())
    with pytest.raises(CapacityError) as err:
        monoid_dfa(a_star_b(), state_cap=cap - 1)
    assert str(err.value) == f"transition monoid passed {cap - 1} elements"


def test_monoid_dfa_of_610_elements_builds_in_well_under_a_second():
    # a 5-cycle and an idempotent sending state 0 to 1 generate 610
    # transformations
    d = Dfa(AB, [[1, 1], [2, 1], [3, 2], [4, 3], [0, 4]], 0, [0])
    begin = time.perf_counter()
    m = monoid_dfa(d)
    assert time.perf_counter() - begin < 1
    assert m.n_states == 610


# ----- serialization -----------------------------------------------------


def test_dfa_json_round_trip_plain():
    d = a_star_b()
    assert dfa_from_json(dfa_to_json(d)) == d


def test_dfa_json_round_trip_marked():
    d = minimize(tensor(contains("a"), ("x1",)))
    assert dfa_from_json(dfa_to_json(d)) == d


def test_dfa_json_rejects_malformed_documents():
    with pytest.raises(ValueError):
        dfa_from_json("[]")
    with pytest.raises(ValueError):
        dfa_from_json('{"alphabet": ["a"], "states": 1}')
    with pytest.raises(ValueError):
        dfa_from_json(
            '{"alphabet": ["a"], "states": 0, "start": 0, "accepting": [], "delta": []}'
        )
    with pytest.raises(ValueError):
        dfa_from_json(
            '{"alphabet": ["a"], "states": 1, "start": "0", "accepting": [], "delta": [[0]]}'
        )
    with pytest.raises(ValueError):
        dfa_from_json(
            '{"alphabet": ["a"], "states": true, "start": 0, "accepting": [], "delta": [[0]]}'
        )
    with pytest.raises(ValueError):
        dfa_from_json(
            '{"alphabet": [3], "states": 1, "start": 0, "accepting": [], "delta": [[0]]}'
        )
    with pytest.raises(ValueError):
        dfa_from_json(
            '{"alphabet": [{"base": "a"}], "states": 1, "start": 0, "accepting": [], "delta": [[0]]}'
        )


def test_dfa_json_erased_letter_spelling():
    theta = erasing_hom(("a",), ("x1",))
    d = dfa_all_words(theta.target)
    text = dfa_to_json(d)
    assert '"eps"' in text
    assert dfa_from_json(text) == d
    with pytest.raises(ValueError):
        dfa_to_json(dfa_all_words((1, 2)))


def test_dfa_dot_output_escapes_quotes_and_backslashes_in_letters():
    d = Dfa(('a"', "b", "c\\"), [[1, 1, 0], [1, 1, 1]], 0, [1])
    assert dfa_to_dot(d).splitlines() == [
        "digraph dfa {",
        "  rankdir=LR;",
        '  hidden [shape=none, label=""];',
        "  0 [shape=circle];",
        "  1 [shape=doublecircle];",
        "  hidden -> 0;",
        r'  0 -> 0 [label="c\\"];',
        r'  0 -> 1 [label="a\", b"];',
        r'  1 -> 1 [label="a\", b, c\\"];',
        "}",
    ]


def test_dfa_dot_output():
    dot = dfa_to_dot(a_star_b())
    assert "digraph" in dot
    assert "doublecircle" in dot
    assert 'label="a"' in dot
    assert "hidden -> 0;" in dot
