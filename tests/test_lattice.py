"""Upset lattices, join-irreducibles, and co-Heyting subtraction, on the
reference side: ``oracle.upsets`` lists a poset's upsets as bitmasks,
``oracle.join_irreducibles`` reads the poset back off them, and the
subtraction a / b, the least upset c with a <= b | c, is the upward closure
of the set difference."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from diffchain import CapacityError, FinPoset
from diffchain.oracle import join_irreducibles, upsets
from diffchain.poset import bits, mask_of

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


def upset_sets(p):
    """The upsets of p as frozensets, in ``upsets`` order."""
    return [frozenset(bits(u)) for u in upsets(p)]


# ----- enumeration -------------------------------------------------------


def test_upset_counts_on_standard_shapes():
    assert len(upsets(chain(3))) == 4  # empty, {2}, {1,2}, {0,1,2}
    assert len(upsets(antichain(3))) == 8  # every subset
    assert len(upsets(FinPoset.from_covers([], 0))) == 1
    v = FinPoset.from_covers([(0, 1), (0, 2)], 3)
    assert len(upsets(v)) == 5


def test_upsets_are_sorted_and_indexable():
    lat = upsets(chain(3))
    assert lat[0] == 0
    assert lat[-1] == 0b111
    sizes = [u.bit_count() for u in lat]
    assert sizes == sorted(sizes)
    assert 0b110 in lat
    assert 0b001 not in lat


def test_upset_cap_raises_capacity_error():
    with pytest.raises(CapacityError):
        upsets(antichain(5), cap=16)  # 32 upsets exist
    assert len(upsets(antichain(5), cap=32)) == 32


def test_upsets_of_a_long_chain():
    lat = upsets(chain(1500))  # one upset per suffix, and the empty one
    assert len(lat) == 1501
    assert bits(lat[1]) == [1499]


@given(posets())
def test_every_enumerated_set_is_an_upset_and_none_is_missed(p):
    lat = upsets(p)
    for u in lat:
        assert p.is_upset(bits(u))
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
    dual = join_irreducibles(upsets(chain(3)))
    # the three principal upsets, ordered by reverse inclusion, form a chain
    assert dual.n == 3
    assert principal_upset_map(chain(3), dual) == [2, 1, 0]


def test_join_irreducibles_of_an_antichain():
    dual = join_irreducibles(upsets(antichain(4)))
    assert dual.n == 4
    assert principal_upset_map(antichain(4), dual) == [0, 1, 2, 3]


def test_join_irreducibles_are_the_principal_upsets():
    p = FinPoset.from_covers([(0, 2), (1, 2), (2, 3)], 4)
    lat = upsets(p)
    members = {mask_of(p.upset_closure({i}), p.n) for i in range(p.n)}
    masks = []
    for u in lat:
        union = 0
        for v in lat:
            if v != u and not v & ~u:
                union |= v
        if union != u:
            masks.append(u)
    assert set(masks) == members


@given(posets())
def test_round_trip_recovers_the_poset(p):
    assert principal_upset_map(p, join_irreducibles(upsets(p))) is not None


# ----- co-Heyting subtraction --------------------------------------------


def test_coheyting_minus_examples():
    p = chain(3)
    top = frozenset({0, 1, 2})
    assert p.upset_closure(top - frozenset({2})) == frozenset({0, 1, 2})
    assert p.upset_closure(top - frozenset({1, 2})) == frozenset({0, 1, 2})
    assert p.upset_closure(frozenset({1, 2}) - top) == frozenset()
    assert p.upset_closure(frozenset({1, 2}) - frozenset({2})) == frozenset({1, 2})


@settings(max_examples=30)
@given(posets(max_n=4))
def test_subtraction_is_adjoint_to_join(p):
    lat = upset_sets(p)
    # a / b <= c  iff  a <= b | c, for all triples of upsets
    for a in lat:
        for b in lat:
            diff = p.upset_closure(a - b)
            assert diff in lat
            for c in lat:
                assert (diff <= c) == (a <= b | c)


@given(posets())
def test_subtraction_edge_laws(p):
    top = frozenset(range(p.n))
    for a in upset_sets(p):
        assert p.upset_closure(a - frozenset()) == a
        assert p.upset_closure(a - a) == frozenset()
        assert p.upset_closure(frozenset() - a) == frozenset()
        assert p.upset_closure(a - top) == frozenset()
