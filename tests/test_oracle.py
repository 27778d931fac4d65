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
    canonical_chain,
    degrees,
    equivalent,
    upsets_of,
)
from diffchain.oracle import (
    LpHom,
    all_posets,
    all_posets_upto,
    brute_degree,
    brute_pi1_closure_member,
    family_chains,
    forward_lp_image,
    lang_eq_upto,
    monoid_dfa,
    monoid_forward_image,
    moore_families,
    nested_difference,
    random_dfa,
    words_upto,
)
from diffchain.poset import bits, mask_of

from helpers import (
    AB,
    a_plus,
    a_plus_or_b_plus,
    a_star_b,
    ab_repeat,
    b_plus,
    contains,
    literal,
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
    assert {"poset", "lattice", "chains", "automata", "closure", "errors"} <= set(checked)
    assert "diffchain.oracle" in imported_modules(package / "cli.py")


def test_the_chain_recurrence_knows_no_automata():
    # closure.py runs chains.canonical_pairs with the k-variable closure, so
    # the recurrence stays generic only while the import goes that way
    imported = imported_modules(Path(diffchain.__file__).parent / "chains.py")
    for module in ("diffchain.automata", "diffchain.closure", "diffchain.oracle"):
        assert not {m for m in imported if m == module or m.startswith(module + ".")}, module


# ----- word enumeration --------------------------------------------------


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


# ----- alternation degree ------------------------------------------------


def test_brute_degree_examples():
    p = chain_poset(3)
    assert [brute_degree(p, {0, 2}, x) for x in range(3)] == [1, 2, 3]
    assert [brute_degree(p, {1}, x) for x in range(3)] == [0, 1, 2]
    assert brute_degree(p, set(), 2) == 0


def test_degrees_agree_with_brute_enumeration_exhaustively():
    for p in all_posets_upto(3):
        for bits in range(1 << p.n):
            v = frozenset(i for i in range(p.n) if bits >> i & 1)
            fast = degrees(p, v)
            for x in range(p.n):
                assert fast[x] == brute_degree(p, v, x), (p, sorted(v), x)


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
            upsets = tuple(sorted((mask_of(u, n) for u in upsets_of(poset).upsets), reverse=True))
            assert upsets in families


def test_family_chains_finds_the_canonical_chain():
    # the upsets of 0 < 1 are {}, {1} and {0, 1}: masks 0b00, 0b10, 0b11
    p = chain_poset(2)
    family = [mask_of(u, 2) for u in upsets_of(p).upsets]
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
