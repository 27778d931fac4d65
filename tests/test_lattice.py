"""Upset lattices, join-irreducibles, and co-Heyting subtraction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from diffchain import (
    CapacityError,
    FinPoset,
    NotUpsetError,
    coheyting_minus,
    join_irreducibles,
    upsets_of,
)

from helpers import principal_upset_map


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
    assert principal_upset_map(chain(3), dual) == [2, 1, 0]


def test_join_irreducibles_of_an_antichain():
    dual = join_irreducibles(upsets_of(antichain(4)))
    assert dual.n == 4
    assert principal_upset_map(antichain(4), dual) == [0, 1, 2, 3]


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
    assert principal_upset_map(p, join_irreducibles(upsets_of(p))) is not None


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

