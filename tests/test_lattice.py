"""Upset lattices, join-irreducibles, and co-Heyting subtraction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from diffchain import (
    CapacityError,
    FinPoset,
    NotUpsetError,
    coheyting_minus,
    is_isomorphic,
    join_irreducibles,
    upsets_of,
)
from diffchain.lattice import _joint_signatures


@st.composite
def posets(draw, max_n=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    covers = draw(st.lists(st.sampled_from(pairs), max_size=6) if pairs else st.just([]))
    return FinPoset.from_covers(covers, n)


def chain(n):
    return FinPoset.from_covers([(i, i + 1) for i in range(n - 1)], n)


def antichain(n):
    return FinPoset.from_covers([], n)


# ----- enumeration -------------------------------------------------------


def test_upset_counts_on_standard_shapes():
    assert len(upsets_of(chain(3))) == 4  # empty, {2}, {1,2}, {0,1,2}
    assert len(upsets_of(antichain(3))) == 8  # every subset
    assert len(upsets_of(FinPoset.from_covers([], 0))) == 1
    v = FinPoset.from_covers([(0, 1), (0, 2)], 3)
    assert len(upsets_of(v)) == 5


def test_upsets_are_sorted_and_indexable():
    lat = upsets_of(chain(3))
    assert lat.upsets[0] == frozenset()
    assert lat.upsets[-1] == frozenset({0, 1, 2})
    sizes = [len(u) for u in lat.upsets]
    assert sizes == sorted(sizes)
    assert frozenset({1, 2}) in lat
    assert frozenset({0}) not in lat


def test_upset_cap_raises_capacity_error():
    with pytest.raises(CapacityError):
        upsets_of(antichain(5), cap=16)  # 32 upsets exist
    assert len(upsets_of(antichain(5), cap=32)) == 32


def test_upsets_of_a_long_chain():
    lat = upsets_of(chain(1500))  # one upset per suffix, and the empty one
    assert len(lat) == 1501
    assert lat.upsets[1] == frozenset({1499})


@given(posets())
def test_every_enumerated_set_is_an_upset_and_none_is_missed(p):
    lat = upsets_of(p)
    for u in lat.upsets:
        assert p.is_upset(u)
    # independent count: filter the full powerset
    if p.n <= 5:
        from itertools import combinations

        count = 0
        elems = list(range(p.n))
        for r in range(p.n + 1):
            for pick in combinations(elems, r):
                if p.is_upset(frozenset(pick)):
                    count += 1
        assert len(lat) == count


# ----- duality round trip ------------------------------------------------


def test_join_irreducibles_of_a_chain():
    lat = upsets_of(chain(3))
    dual = join_irreducibles(lat)
    # the three principal upsets, ordered by reverse inclusion, form a chain
    assert dual.n == 3
    assert is_isomorphic(dual, chain(3))


def test_join_irreducibles_of_an_antichain():
    dual = join_irreducibles(upsets_of(antichain(4)))
    assert dual.n == 4
    assert is_isomorphic(dual, antichain(4))


def test_join_irreducibles_are_the_principal_upsets():
    p = FinPoset.from_covers([(0, 2), (1, 2), (2, 3)], 4)
    lat = upsets_of(p)
    members = {p.upset_closure({i}) for i in range(p.n)}
    masks = []
    for u in lat.upsets:
        strictly_below = [v for v in lat.upsets if v < u]
        union = frozenset().union(*strictly_below) if strictly_below else frozenset()
        if union != u:
            masks.append(u)
    assert set(masks) == members


@given(posets())
def test_round_trip_recovers_the_poset(p):
    assert is_isomorphic(join_irreducibles(upsets_of(p)), p)


# ----- co-Heyting subtraction --------------------------------------------


def test_coheyting_minus_examples():
    p = chain(3)
    top = frozenset({0, 1, 2})
    assert coheyting_minus(p, top, frozenset({2})) == frozenset({0, 1, 2})
    assert coheyting_minus(p, top, frozenset({1, 2})) == frozenset({0, 1, 2})
    assert coheyting_minus(p, frozenset({1, 2}), top) == frozenset()
    assert coheyting_minus(p, frozenset({1, 2}), frozenset({2})) == frozenset({1, 2})


def test_coheyting_minus_requires_upsets():
    p = chain(3)
    with pytest.raises(NotUpsetError):
        coheyting_minus(p, frozenset({0}), frozenset({2}))
    with pytest.raises(NotUpsetError):
        coheyting_minus(p, frozenset({2}), frozenset({0}))


@settings(max_examples=30)
@given(posets(max_n=4))
def test_subtraction_is_adjoint_to_join(p):
    lat = upsets_of(p)
    # a / b <= c  iff  a <= b | c, for all triples of upsets
    for a in lat.upsets:
        for b in lat.upsets:
            diff = coheyting_minus(p, a, b)
            assert diff in lat
            for c in lat.upsets:
                assert (diff <= c) == (a <= b | c)


@given(posets())
def test_subtraction_edge_laws(p):
    lat = upsets_of(p)
    top = frozenset(range(p.n))
    for a in lat.upsets:
        assert coheyting_minus(p, a, frozenset()) == a
        assert coheyting_minus(p, a, a) == frozenset()
        assert coheyting_minus(p, frozenset(), a) == frozenset()
        assert coheyting_minus(p, a, top) == frozenset()


# ----- isomorphism -------------------------------------------------------


def test_isomorphism_positive_cases():
    p = FinPoset.from_covers([(0, 1), (0, 2)], 3)
    q = FinPoset.from_covers([(2, 0), (2, 1)], 3)
    assert is_isomorphic(p, q)
    assert is_isomorphic(chain(4), FinPoset.from_covers([(3, 2), (2, 1), (1, 0)], 4))
    assert is_isomorphic(antichain(0), antichain(0))


def test_isomorphism_negative_cases():
    assert not is_isomorphic(chain(3), antichain(3))
    assert not is_isomorphic(chain(3), chain(4))
    # same degree sequence, different shape
    p = FinPoset.from_covers([(0, 1), (1, 2), (3, 4)], 6)
    q = FinPoset.from_covers([(0, 1), (2, 3), (4, 5)], 6)
    assert not is_isomorphic(p, q)


def test_isomorphism_on_larger_carriers():
    p = FinPoset.from_covers([(i, i + 1) for i in range(8)], 9)
    relabeled = [(i, i + 1) for i in range(6)] + [(6, 8), (8, 7)]
    assert is_isomorphic(p, FinPoset.from_covers(relabeled, 9))
    r = FinPoset.from_covers([(i, i + 1) for i in range(7)], 9)
    assert not is_isomorphic(p, r)


def test_isomorphism_on_a_1500_element_chain():
    # one backtracking level per element: deeper than the recursion limit
    p = chain(1500)
    assert is_isomorphic(p, p)


def test_isomorphism_rejects_equal_signatures_at_1500_elements():
    # A 1492-element chain beside an 8-element crown (a_i < b_i, b_{i+1 mod 4})
    # or beside two 4-element crowns: every bottom lies under two tops and
    # every top over two bottoms, so the color refinement cannot tell them
    # apart and the backtracking has to.
    def with_crowns(sizes):
        n = 1492
        covers = [(i, i + 1) for i in range(n - 1)]
        for m in sizes:
            bottoms, tops = range(n, n + m), range(n + m, n + 2 * m)
            covers += [(a, tops[(i + s) % m]) for i, a in enumerate(bottoms) for s in (0, 1)]
            n += 2 * m
        return FinPoset.from_covers(covers, n)

    p, q = with_crowns([4]), with_crowns([2, 2])
    assert p.n == q.n == 1500
    sig_p, sig_q = _joint_signatures(p, q)
    assert sorted(sig_p) == sorted(sig_q)
    assert not is_isomorphic(p, q)


def test_isomorphism_agrees_with_permutation_search_on_small_posets():
    from itertools import permutations

    from diffchain.oracle import all_posets_upto

    def brute(p, q):
        if p.n != q.n:
            return False
        elems = range(p.n)
        return any(
            all((j in p.up[i]) == (perm[j] in q.up[perm[i]]) for i in elems for j in elems)
            for perm in permutations(elems)
        )

    corpus = list(all_posets_upto(3))
    for p in corpus:
        for q in corpus:
            assert is_isomorphic(p, q) == brute(p, q), (p, q)
