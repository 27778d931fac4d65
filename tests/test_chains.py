"""Difference chains, alternation degrees, and the canonical chain."""

from __future__ import annotations

import operator
import random
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from diffchain import (
    DiffChain,
    FinPoset,
    NotDecreasingError,
    NotUpsetError,
    RangeError,
    canonical_chain,
    degrees,
    evaluate,
)
from diffchain.chains import canonical_pairs, canonical_terms
from diffchain.poset import bits

from helpers import mask_minus, upset_closure_of


@st.composite
def posets(draw, max_n=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    covers = draw(st.lists(st.sampled_from(pairs), max_size=6) if pairs else st.just([]))
    return FinPoset.from_covers(covers, n)


@st.composite
def poset_and_subset(draw, max_n=5):
    p = draw(posets(max_n))
    s = draw(st.frozensets(st.integers(min_value=0, max_value=p.n - 1)) if p.n else st.just(frozenset()))
    return p, s


@st.composite
def poset_and_chain(draw, max_n=5, max_len=4):
    """A poset with a decreasing chain of upsets, built by cumulative meets."""
    p = draw(posets(max_n))
    seeds = draw(st.lists(
        st.frozensets(st.integers(min_value=0, max_value=p.n - 1)) if p.n else st.just(frozenset()),
        max_size=max_len,
    ))
    comps = []
    current = frozenset(range(p.n))
    for s in seeds:
        current = current & p.upset_closure(s)
        comps.append(current)
    return p, DiffChain(p, tuple(comps))


def chain_poset(n):
    return FinPoset.from_covers([(i, i + 1) for i in range(n - 1)], n)


def two_level_poset():
    # a three element chain next to a two element chain: 0<1<2 and 3<4
    return FinPoset.from_covers([(0, 1), (1, 2), (3, 4)], 5)


# ----- DiffChain construction -------------------------------------------


def test_chain_validates_upsets():
    p = chain_poset(3)
    with pytest.raises(NotUpsetError):
        DiffChain(p, (frozenset({0}),))
    with pytest.raises(NotUpsetError):
        DiffChain(p, (frozenset({0, 1, 2}), frozenset({1})))


def test_chain_validates_decreasing():
    p = chain_poset(3)
    with pytest.raises(NotDecreasingError):
        DiffChain(p, (frozenset({2}), frozenset({1, 2})))


def test_chain_len_pairs_padded():
    p = chain_poset(3)
    c = DiffChain(p, (frozenset({0, 1, 2}), frozenset({1, 2}), frozenset({2})))
    assert len(c) == 3
    assert c.pairs == 2
    even = DiffChain(p, (frozenset({1, 2}), frozenset({2})))
    assert even.pairs == 1
    empty = DiffChain(p, ())
    assert len(empty) == 0 and empty.pairs == 0


def test_chain_is_immutable():
    c = DiffChain(chain_poset(2), (frozenset({1}),))
    with pytest.raises(AttributeError):
        c.sets = ()


def test_chain_equality_hash_and_repr():
    p = chain_poset(3)
    c = DiffChain(p, (frozenset({0, 1, 2}), frozenset({2})))
    same = DiffChain(p, [[2, 1, 0], [2]])
    assert c == same and hash(c) == hash(same) and c in {same}
    assert c != DiffChain(p, (frozenset({0, 1, 2}),))
    assert c != DiffChain(chain_poset(4), (frozenset({0, 1, 2, 3}), frozenset({3})))
    assert c != c.sets and not c == "chain"
    assert repr(c) == (
        "DiffChain(poset=FinPoset(n=3, covers=[(0, 1), (1, 2)]), sets=[[0, 1, 2], [2]])"
    )


# ----- evaluation --------------------------------------------------------


def test_evaluate_examples():
    p = chain_poset(3)
    top = frozenset({0, 1, 2})
    assert evaluate(DiffChain(p, ())) == frozenset()
    assert evaluate(DiffChain(p, (top,))) == top
    assert evaluate(DiffChain(p, (top, frozenset({1, 2})))) == frozenset({0})
    assert evaluate(
        DiffChain(p, (top, frozenset({1, 2}), frozenset({2})))
    ) == frozenset({0, 2})


@given(poset_and_chain())
def test_evaluate_is_odd_membership_count(case):
    p, chain = case
    value = evaluate(chain)
    for x in range(p.n):
        inside = sum(1 for s in chain.sets if x in s)
        assert (x in value) == (inside % 2 == 1)
    # a decreasing chain's value is also the disjoint union of its pair
    # differences G1-G2, G3-G4, ..., padded to even length
    comps = chain.masks + (0,) * (len(chain.masks) % 2)
    union = 0
    for i in range(0, len(comps), 2):
        part = comps[i] & ~comps[i + 1]
        assert not union & part
        union |= part
    assert value == frozenset(bits(union))


# ----- alternation degrees ----------------------------------------------


def test_degrees_examples():
    p = chain_poset(3)
    assert degrees(p, {0, 2}) == (1, 2, 3)
    assert degrees(p, {1}) == (0, 1, 2)
    assert degrees(p, set()) == (0, 0, 0)
    assert degrees(p, {0, 1, 2}) == (1, 1, 1)
    assert degrees(chain_poset(5), {0, 2, 4}) == (1, 2, 3, 4, 5)


def test_degrees_on_disconnected_components():
    p = two_level_poset()
    assert degrees(p, {3}) == (0, 0, 0, 1, 2)
    assert degrees(p, {0, 4}) == (1, 2, 2, 0, 1)


def test_degree_single_element():
    p = chain_poset(3)
    assert degrees(p, {0, 2})[2] == 3
    with pytest.raises(RangeError):
        degrees(p, {9})


@given(poset_and_subset())
def test_degrees_grow_along_the_order(case):
    p, v = case
    deg = degrees(p, v)
    for x in range(p.n):
        for y in p.up[x] - {x}:
            if (x in v) == (y in v):
                # same side: the top of any witness sequence can be swapped
                assert deg[y] >= deg[x]
            elif deg[x] > 0:
                # opposite side: any witness sequence extends by one step
                assert deg[y] >= deg[x] + 1


# ----- canonical chain ---------------------------------------------------


def test_canonical_chain_alternating_target():
    p = chain_poset(3)
    c = canonical_chain(p, {0, 2})
    assert c.sets == (
        frozenset({0, 1, 2}),
        frozenset({1, 2}),
        frozenset({2}),
        frozenset(),
    )
    assert c.pairs == 2
    assert evaluate(c) == frozenset({0, 2})


def test_canonical_chain_of_an_upset_has_one_pair():
    p = chain_poset(3)
    c = canonical_chain(p, {1, 2})
    assert c.sets == (frozenset({1, 2}), frozenset())
    assert c.pairs == 1


def test_canonical_chain_of_empty_target_is_empty():
    c = canonical_chain(chain_poset(3), set())
    assert c.sets == () and evaluate(c) == frozenset()


def test_canonical_chain_on_disconnected_components():
    p = two_level_poset()
    c = canonical_chain(p, {3})
    assert c.sets == (frozenset({3, 4}), frozenset({4}))
    assert c.pairs == 1
    assert evaluate(c) == frozenset({3})


def test_canonical_chain_longest_alternation():
    p = chain_poset(5)
    c = canonical_chain(p, {0, 2, 4})
    assert len(c) == 6 and c.pairs == 3
    assert evaluate(c) == frozenset({0, 2, 4})
    assert c.sets[-1] == frozenset()


@given(poset_and_subset())
def test_canonical_chain_components_are_degree_levels(case):
    p, v = case
    chain = canonical_chain(p, v)
    deg = degrees(p, v)
    comps = chain.sets
    assert len(comps) % 2 == 0
    for i, comp in enumerate(comps, start=1):
        assert comp == frozenset(x for x in range(p.n) if deg[x] >= i)
    # nothing of higher degree remains
    assert all(d <= len(comps) for d in deg)
    assert evaluate(chain) == v


def test_canonical_chain_on_a_carrier_wider_than_a_word():
    # each level is read off one buffer of binary digits, greatest element
    # first: the masks must still be the degree level sets, padded to even
    # length, on carriers of more than one machine word
    rng = random.Random(2808)
    for n in (65, 130):
        perm = rng.sample(range(n), n)
        for density in (0.03, 0.3):
            edges = [
                (perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
                if rng.random() < density
            ]
            p = FinPoset.from_covers(edges, n)
            for _ in range(5):
                target = frozenset(x for x in range(n) if rng.random() < 0.5)
                chain = canonical_chain(p, target)
                deg = degrees(p, target)
                top = max(deg, default=0)
                assert chain.sets == tuple(
                    frozenset(x for x in range(n) if deg[x] >= i)
                    for i in range(1, top + 1 + top % 2)
                )
                assert DiffChain(p, chain.sets) == chain
                assert evaluate(chain) == target


# ----- the recurrence over any closure ------------------------------------


def test_canonical_pairs_stops_at_the_target_the_bound_or_a_repeat():
    up = upset_closure_of(chain_poset(3))  # 0 < 1 < 2
    ops = (up, mask_minus, operator.and_, operator.not_)
    assert canonical_pairs(*ops, 0, 1) == ([], 0)
    # {0, 2} = {0, 1, 2} - ({1, 2} - ({2} - {})): two pairs, not one
    assert canonical_pairs(*ops, 0b101, 2) == ([0b111, 0b110, 0b100, 0], 2)
    assert canonical_pairs(*ops, 0b101, 1) == ([0b111, 0b110], None)
    assert list(islice(canonical_terms(up, mask_minus, operator.and_, 0b101), 6)) == [
        0b111, 0b110, 0b100, 0, 0, 0]
    # closed sets {} and {0, 1}: the first pair repeats, and is left out
    ops = (lambda s: 0b11 if s else 0, mask_minus, operator.and_, operator.not_)
    assert canonical_pairs(*ops, 0b01, 5) == ([], None)
    assert canonical_pairs(*ops, 0b11, 5) == ([0b11, 0], 1)
