"""The brute-force reference routes, checked against the fast routes."""

from __future__ import annotations

import ast
import random
from itertools import combinations_with_replacement, product as iter_product
from pathlib import Path

import pytest

import diffchain
from diffchain import (
    AlphabetMismatchError,
    CapacityError,
    Dfa,
    FinPoset,
    RangeError,
    canonical_chain,
    degrees,
    dfa_no_words,
    equivalent,
)
from diffchain.oracle import (
    LpHom,
    accepted_slice,
    accepted_slices,
    all_posets,
    all_posets_upto,
    brute_degree,
    brute_pi1_closure_member,
    closure_slice,
    closure_slices,
    count_language,
    family_chains,
    forward_lp_image,
    increasing_sequences,
    lang_eq_upto,
    marked_pi1_closure,
    monoid_dfa,
    monoid_forward_image,
    moore_families,
    nested_difference,
    random_dfa,
    sequence_degrees,
    slice_difference,
    upsets,
    words_upto,
)
from diffchain.poset import bits

from helpers import (
    AB,
    a_plus,
    a_plus_or_b_plus,
    a_star_b,
    ab_repeat,
    b_plus,
    contains,
    literal,
    with_columns,
)


def chain_poset(n):
    return FinPoset.from_covers([(i, i + 1) for i in range(n - 1)], n)


# ----- the production/reference split -----------------------------------


def imported_modules(path: Path) -> set[str]:
    """Absolute names of the modules a source file of ``diffchain`` imports,
    including each ``from X import name`` as X.name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "diffchain" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_only_the_cli_imports_the_oracle():
    package = Path(diffchain.__file__).parent
    checked = []
    for path in sorted(package.glob("*.py")):
        if path.stem in ("cli", "oracle"):
            continue
        assert "diffchain.oracle" not in imported_modules(path), path.name
        checked.append(path.stem)
    assert {"poset", "chains", "automata", "closure", "errors"} <= set(checked)
    assert "diffchain.oracle" in imported_modules(package / "cli.py")


def test_the_oracle_does_not_import_the_closure():
    # closure_slice is a reference route only while it shares no code with
    # the closure it checks
    imported = imported_modules(Path(diffchain.__file__).parent / "oracle.py")
    assert not {m for m in imported if m == "diffchain.closure" or m.startswith("diffchain.closure.")}
    assert "diffchain.automata" in imported


def test_the_chain_recurrence_knows_no_automata():
    # closure.py runs chains.canonical_pairs with the k-variable closure, so
    # the recurrence stays generic only while the import goes that way
    imported = imported_modules(Path(diffchain.__file__).parent / "chains.py")
    for module in ("diffchain.automata", "diffchain.closure", "diffchain.oracle"):
        assert not {m for m in imported if m == module or m.startswith(module + ".")}, module


# ----- word enumeration --------------------------------------------------


def test_count_language_counts_the_first_letter_up_to_t():
    # a count of t stands for t or more; the other letters do not count,
    # and the empty word has count 0
    d = count_language({0, 1, 3}, 3, ("c", "a", "b"))
    for word in [()] + list(words_upto(("a", "b", "c"), 5)):
        count = min(word.count("c"), 3)
        assert d.accepts(word) == (count in {0, 1, 3}), word
    for members, t in (({4}, 3), ({-1}, 2), (set(), -1)):
        with pytest.raises(ValueError, match="^counts must lie in 0.."):
            count_language(members, t)


def test_words_upto_counts_and_order():
    words = list(words_upto(AB, 3))
    assert len(words) == 2 + 4 + 8
    assert words[0] == ("a",) and words[1] == ("b",)
    lengths = [len(w) for w in words]
    assert lengths == sorted(lengths)
    assert list(words_upto(AB, 0)) == []


def test_lang_eq_upto_finds_the_first_disagreement():
    ok, witness = lang_eq_upto(a_plus(), a_plus(), 5)
    assert ok and witness is None
    ok, witness = lang_eq_upto(a_plus(), contains("a"), 5)
    assert not ok and witness == ("a", "b")
    with pytest.raises(AlphabetMismatchError):
        lang_eq_upto(a_plus(), random_dfa(random.Random(0), 2, ("a", "c")), 3)


def test_accepted_slice_lists_words_upto_order():
    rng = random.Random(1602)
    for d in [a_plus(), contains("b"), literal("ab")] + [
            random_dfa(rng, 4, ("a", "b", "c")) for _ in range(20)]:
        # built from reversed columns, the automaton walks the same
        for walked in (d, with_columns(d, d.alphabet[::-1])):
            for n in range(5):
                words = list(iter_product(d.alphabet, repeat=n))
                assert accepted_slice(walked, n) == [d.accepts(w) for w in words]
            assert accepted_slices(walked, 4) == [accepted_slice(walked, n) for n in range(5)]
    assert accepted_slices(contains("a"), 0) == [[False]]


def test_slice_difference_names_the_first_differing_word():
    assert slice_difference([True, False], [True, False], AB, 1) is None
    left = accepted_slice(a_plus(), 3)
    right = accepted_slice(contains("a"), 3)
    assert slice_difference(left, right, AB, 3) == ("a", "a", "b")
    assert slice_difference(left, right, ("b", "a"), 3) == ("b", "b", "a")


def test_lang_eq_upto_reads_each_automaton_by_letter_name():
    # automata given with their columns shuffled: the constructor puts them
    # in canonical order, so the witness is the first word in sorted-letter
    # order, as a word-by-word comparison finds it
    rng = random.Random(1603)
    abc = ("a", "b", "c")
    disagreements = 0
    for _ in range(100):
        d1 = with_columns(random_dfa(rng, 3, abc), rng.sample(abc, 3))
        d2 = with_columns(random_dfa(rng, 3, abc), rng.sample(abc, 3))
        want = next((w for w in words_upto(abc, 4) if d1.accepts(w) != d2.accepts(w)), None)
        assert lang_eq_upto(d1, d2, 4) == (want is None, want)
        disagreements += want is not None and len(want) > 1
    assert disagreements > 5


# ----- closure membership ------------------------------------------------


def test_brute_closure_membership_examples():
    assert brute_pi1_closure_member(a_plus(), 1, ("a", "a"))
    assert not brute_pi1_closure_member(a_plus(), 1, ("a", "b"))
    assert not brute_pi1_closure_member(a_plus(), 1, ())
    # one variable cannot see that the two branches exclude each other
    assert brute_pi1_closure_member(a_plus_or_b_plus(), 1, ("a", "b"))
    assert not brute_pi1_closure_member(a_plus_or_b_plus(), 2, ("a", "b"))
    assert brute_pi1_closure_member(a_plus_or_b_plus(), 2, ("b", "b"))


@pytest.mark.parametrize("k", [0, -1])
def test_brute_closure_membership_needs_a_variable(k):
    with pytest.raises(ValueError, match="need at least one variable"):
        brute_pi1_closure_member(a_plus(), k, ("b", "b"))


@pytest.mark.parametrize("word", [("b", "z"), ("a", "z"), ("z",)])
def test_brute_closure_membership_rejects_foreign_letters(word):
    # the foreign letter raises after a letter that already refutes the
    # word, and after one that does not
    with pytest.raises(AlphabetMismatchError):
        brute_pi1_closure_member(a_plus(), 1, word)


def literal_closure_member(d, k, word):
    """Closure membership read off the definition: every multiset of k of
    the word's positions is matched by one accepted word of its length."""
    n = len(word)
    accepted = [u for u in iter_product(d.alphabet, repeat=n) if d.accepts(u)]
    return all(
        any(all(u[p] == word[p] for p in positions) for u in accepted)
        for positions in combinations_with_replacement(range(n), k)
    )


def closure_membership_corpus():
    yield from ((d, 5) for d in (
        a_plus(), b_plus(), a_plus_or_b_plus(), contains("a"), contains("b"),
        literal("ab"), literal("aba"), ab_repeat(), a_star_b(),
    ))
    rng = random.Random(1301)
    for _ in range(40):
        yield random_dfa(rng, 6, AB), 5
    for _ in range(40):
        yield random_dfa(rng, 6, ("a", "b", "c")), 3


def test_brute_closure_membership_matches_the_definition():
    for d, max_len in closure_membership_corpus():
        for k in (1, 2, 3):
            for word in words_upto(d.alphabet, max_len):
                want = literal_closure_member(d, k, word)
                assert brute_pi1_closure_member(d, k, word) == want, (d, k, word)


def closure_slice_corpus():
    """Seeded random automata over {a, b} (words up to length 6) and
    {a, b, c} (up to 4), each given with its columns in a random order,
    plus languages with empty slices: one word, and nothing at all."""
    yield literal("ab"), 6
    yield with_columns(literal("bab"), ("b", "a")), 6
    yield dfa_no_words(AB), 6
    rng = random.Random(1604)
    for _ in range(80):
        yield with_columns(random_dfa(rng, 4, AB), rng.sample(AB, 2)), 6
    abc = ("a", "b", "c")
    for _ in range(70):
        yield with_columns(random_dfa(rng, 4, abc), rng.sample(abc, 3)), 4


def test_closure_slice_matches_the_marked_route():
    checked = short = empty = 0
    for d, max_len in closure_slice_corpus():
        for k in (1, 2, 3):
            marked = marked_pi1_closure(d, k)
            assert closure_slice(d, k, 0) == [False]
            for n in range(1, max_len + 1):
                got = closure_slice(d, k, n)
                words = list(iter_product(d.alphabet, repeat=n))
                assert got == [marked.accepts(w) for w in words], (d, k, n)
                checked += len(words)
                short += n < k
                empty += not any(accepted_slice(d, n))
    assert checked > 55_000 and short and empty


def test_closure_slices_are_the_slices_of_one_length_each():
    # words up to 8 letters over two, up to 6 over three: the 3^8 words of
    # length 8 would take the test from under a second to about nine
    for d, _ in closure_slice_corpus():
        max_len = 8 if len(d.alphabet) == 2 else 6
        for k in (1, 2, 3):
            slices = closure_slices(d, k, max_len)
            assert slices == [closure_slice(d, k, n) for n in range(max_len + 1)], (d, k)
            assert closure_slices(d, k, 0) == [[False]]


def test_closure_slice_checks_its_arguments():
    for k in (0, -1):
        with pytest.raises(ValueError, match="need at least one variable"):
            closure_slice(a_plus(), k, 2)
        with pytest.raises(ValueError, match="need at least one variable"):
            closure_slices(a_plus(), k, 2)


# ----- alternation degree ------------------------------------------------


def test_brute_degree_examples():
    p = chain_poset(3)
    assert [brute_degree(p, {0, 2}, x) for x in range(3)] == [1, 2, 3]
    assert [brute_degree(p, {1}, x) for x in range(3)] == [0, 1, 2]
    assert brute_degree(p, set(), 2) == 0
    with pytest.raises(RangeError, match="element 3 leaves"):
        brute_degree(p, {3}, 0)
    with pytest.raises(RangeError, match="element -1 leaves"):
        brute_degree(p, {0}, -1)


def test_degrees_agree_with_brute_enumeration_exhaustively():
    for p in all_posets_upto(3):
        for bits in range(1 << p.n):
            v = frozenset(i for i in range(p.n) if bits >> i & 1)
            fast = degrees(p, v)
            for x in range(p.n):
                assert fast[x] == brute_degree(p, v, x), (p, sorted(v), x)


def test_increasing_sequences_of_a_chain():
    table = increasing_sequences(chain_poset(3))
    # 0 < 1 < 2: every nonempty subset, listed shortest first
    assert [length for _, _, _, length in table] == [1, 1, 1, 2, 2, 2, 3]
    assert (2, 0b111, 0b101, 3) in table and (2, 0b101, 0b001, 2) in table
    assert sequence_degrees(table, 3, 0b101) == [1, 2, 3]
    assert increasing_sequences(FinPoset.from_covers([], 2)) == [
        (0, 1, 1, 1), (1, 2, 2, 1)]


# ----- closure systems and their chains ---------------------------------


def test_moore_families_counts():
    # the numbers of Moore families on n points, OEIS A102896
    assert [sum(1 for _ in moore_families(n)) for n in range(5)] == [1, 2, 7, 61, 2480]
    with pytest.raises(ValueError):
        moore_families(-1)
    for n in range(5):
        full = (1 << n) - 1
        families = set(moore_families(n))
        for family in families:
            assert full in family
            assert all(a & b in family for a in family for b in family)
        # every upset lattice is a closure system of its carrier
        for poset in all_posets(n):
            assert tuple(sorted(upsets(poset), reverse=True)) in families


def test_family_chains_finds_the_canonical_chain():
    # the upsets of 0 < 1 are {}, {1} and {0, 1}: masks 0b00, 0b10, 0b11
    p = chain_poset(2)
    family = upsets(p)
    # one chain of one pair per target, then three of two pairs
    chains = list(family_chains(family, 0b10, 2))
    assert chains[0] == canonical_chain(p, {1}).masks == (0b10, 0b00)
    assert len(chains) == 4 and set(chains[1:]) == {
        (0b10, 0, 0, 0), (0b11, 0b11, 0b10, 0), (0b10, 0b10, 0b10, 0)}
    chains = list(family_chains(family, 0b01, 2))
    assert chains[0] == canonical_chain(p, {0}).masks == (0b11, 0b10)
    assert len(chains) == 4 and set(chains[1:]) == {
        (0b11, 0b10, 0b10, 0b10), (0b11, 0b10, 0, 0), (0b11, 0b11, 0b11, 0b10)}
    for target in (0b01, 0b10):
        for chain in family_chains(family, target, 3):
            sets = [frozenset(bits(m)) for m in chain]
            assert nested_difference(sets) == frozenset(bits(target))
    assert list(family_chains([0b11], 0b11, 3)) == []


def test_nested_difference_examples():
    top = frozenset({0, 1, 2})
    assert nested_difference(()) == frozenset()
    assert nested_difference((top,)) == top
    assert nested_difference((top, frozenset({1, 2}), frozenset({2}))) == frozenset({0, 2})


# ----- poset corpus ------------------------------------------------------


def test_all_posets_counts():
    assert [len(all_posets(n)) for n in range(5)] == [1, 1, 2, 7, 40]
    with pytest.raises(ValueError):
        all_posets(-1)


def test_all_posets_are_valid_distinct_and_naturally_labeled():
    for n in range(4):
        corpus = all_posets(n)
        assert len(set(corpus)) == len(corpus)
        for p in corpus:
            for i in range(n):
                for j in p.up[i] - {i}:
                    assert i < j  # strict order respects the integer order


def test_all_posets_contains_the_standard_shapes():
    assert chain_poset(3) in all_posets(3)
    assert FinPoset.from_covers([], 3) in all_posets(3)
    assert FinPoset.from_covers([(0, 1), (0, 2)], 3) in all_posets(3)


# ----- random automata ---------------------------------------------------


def test_random_dfa_is_deterministic_in_the_seed():
    d1 = random_dfa(random.Random(7), 4, AB)
    d2 = random_dfa(random.Random(7), 4, AB)
    assert d1 == d2
    assert d1.start == 0 and 1 <= d1.n_states <= 4


def test_random_dfa_varies_with_the_seed():
    rng = random.Random(13)
    corpus = {random_dfa(rng, 4, AB) for _ in range(20)}
    assert len(corpus) > 10


# ----- monoid routes -----------------------------------------------------


def test_monoid_forward_image_matches_subset_construction():
    collapse = LpHom(AB, ("a",), {"a": "a", "b": "a"})
    rng = random.Random(31)
    corpus = [a_star_b(), a_plus_or_b_plus()] + [random_dfa(rng, 4, AB) for _ in range(6)]
    for d in corpus:
        via_monoid = monoid_forward_image(d, collapse)
        via_subsets = forward_lp_image(d, collapse)
        assert equivalent(via_monoid, via_subsets)


def test_monoid_forward_image_checks_alphabets():
    wrong = LpHom(("a", "c"), ("a",), {"a": "a", "c": "a"})
    with pytest.raises(AlphabetMismatchError):
        monoid_forward_image(a_plus(), wrong)


def test_monoid_forward_image_stops_at_the_state_cap():
    collapse = LpHom(AB, ("a",), {"a": "a", "b": "a"})
    d = Dfa(AB, [[1, 2], [3, 0], [4, 4], [5, 5], [5, 1], [5, 5]], 0, [5])
    cap = monoid_dfa(d).n_states
    assert cap == 70
    image = monoid_forward_image(d, collapse)
    assert monoid_forward_image(d, collapse, state_cap=cap) == image
    with pytest.raises(CapacityError) as err:
        monoid_forward_image(d, collapse, state_cap=cap - 1)
    assert str(err.value) == f"transition monoid passed {cap - 1} elements"
