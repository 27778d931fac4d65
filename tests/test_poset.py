"""Poset construction and subset operations."""

from __future__ import annotations

import sys

import pytest
from hypothesis import example, given, strategies as st

from diffchain import (
    CycleError,
    DiffChain,
    DiffChainError,
    FinPoset,
    NotUpsetError,
    RangeError,
    canonical_chain,
    degrees,
    evaluate,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
)
from diffchain.poset import bits, mask_of

# small random posets: upward edges i -> j with i < j can never form a cycle
@st.composite
def posets(draw, max_n=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    covers = draw(st.lists(st.sampled_from(pairs), max_size=6) if pairs else st.just([]))
    return FinPoset.from_covers(covers, n)


def subsets_of(poset):
    return st.frozensets(st.integers(min_value=0, max_value=poset.n - 1)) if poset.n else st.just(frozenset())


def chain3():
    return FinPoset.from_covers([(0, 1), (1, 2)], 3)


def diamond():
    # 0 below 1 and 2, both below 3
    return FinPoset.from_covers([(0, 1), (0, 2), (1, 3), (2, 3)], 4)


# ----- construction ------------------------------------------------------


def test_from_covers_closes_transitively():
    p = chain3()
    assert p.upm[0] >> 2 & 1
    assert p.up[0] == frozenset({0, 1, 2})
    # the downset of 2, read off the up-masks
    assert {i for i in range(p.n) if p.upm[i] >> 2 & 1} == {0, 1, 2}


def test_covers_recovers_hasse_relation():
    p = diamond()
    assert p.covers() == [(0, 1), (0, 2), (1, 3), (2, 3)]
    # transitive edge (0, 3) must not appear even if given as input
    q = FinPoset.from_covers([(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)], 4)
    assert q == p


def test_covers_build_no_closure():
    # 3 has two lower covers and a transitive edge from 0: the Hasse relation
    # comes from a search down the lower edges, and nothing builds upm
    p = FinPoset.from_covers([(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)], 4)
    assert p.covers() == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert repr(p) == "FinPoset(n=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)])"
    poset_to_json(p)
    poset_to_dot(p)
    assert "upm" not in vars(p)
    # a 400-element chain given all its 79 800 pairs: each search runs down
    # the covers already found, not down every given edge
    n = 400
    q = FinPoset.from_covers([(i, j) for i in range(n) for j in range(i + 1, n)], n)
    assert q.covers() == [(i, i + 1) for i in range(n - 1)]
    assert "upm" not in vars(q)


def test_discrete_and_empty_posets():
    assert FinPoset.from_covers([], 0).n == 0
    p = FinPoset.from_covers([], 3)
    assert p.covers() == []
    assert not p.upm[0] >> 1 & 1 and p.upm[1] >> 1 & 1


def test_from_covers_rejects_cycles():
    with pytest.raises(CycleError):
        FinPoset.from_covers([(0, 1), (1, 0)], 2)
    with pytest.raises(CycleError):
        FinPoset.from_covers([(0, 0)], 1)
    with pytest.raises(CycleError):
        FinPoset.from_covers([(0, 1), (1, 2), (2, 0)], 3)


def test_cycle_errors_name_an_element_on_the_cycle():
    # 0 -> 1 -> 2 -> 1 plus a tail 2 -> 3: only 1 and 2 lie on the cycle
    with pytest.raises(CycleError, match=r"cycle through [12]$"):
        FinPoset.from_covers([(0, 1), (1, 2), (2, 1), (2, 3)], 4)
    n = 3000
    with pytest.raises(CycleError, match="cycle through"):
        FinPoset.from_covers([(i, (i + 1) % n) for i in range(n)], n)


@pytest.mark.parametrize("n", [3000, 10_000])
def test_from_covers_builds_long_chains(n):
    p = FinPoset.from_covers([(i, i + 1) for i in range(n - 1)], n)
    assert p.upm[0] >> (n - 1) & 1 and not p.upm[n - 1] >> 0 & 1
    assert p.covers()[-1] == (n - 2, n - 1)
    assert p.upm[0] == (1 << n) - 1 and p.lower[0] == ()
    assert not any(p.upm[i] & 1 for i in range(1, n))  # nothing lies below 0
    target = {0, n // 2}
    deg = degrees(p, target)
    assert deg[: n // 2] == (1,) + (2,) * (n // 2 - 1)
    assert deg[n // 2 :] == (3,) + (4,) * (n - n // 2 - 1)
    chain = canonical_chain(p, target)
    assert [min(s) for s in chain.sets] == [0, 1, n // 2, n // 2 + 1]
    assert evaluate(chain) == frozenset(target)


def test_from_covers_rejects_out_of_range():
    with pytest.raises(RangeError):
        FinPoset.from_covers([(0, 3)], 3)
    with pytest.raises(RangeError):
        FinPoset.from_covers([(-1, 0)], 3)
    with pytest.raises(RangeError):
        FinPoset.from_covers([], -1)
    with pytest.raises(RangeError, match="at most"):
        FinPoset.from_covers([], sys.maxsize + 1)  # no list has that many entries


def test_direct_constructor_validates_order_axioms():
    with pytest.raises(ValueError):
        FinPoset([frozenset({1}), frozenset({1})])  # not reflexive at 0
    with pytest.raises(CycleError):
        FinPoset([frozenset({0, 1}), frozenset({0, 1})])  # antisymmetry fails
    with pytest.raises(ValueError):
        # 0 <= 1 and 1 <= 2 but 2 missing from up[0]
        FinPoset([frozenset({0, 1}), frozenset({1, 2}), frozenset({2})])
    with pytest.raises(RangeError):
        FinPoset([frozenset({0, 5})])


def test_equality_and_hash_follow_the_relation():
    assert chain3() == chain3()
    assert hash(chain3()) == hash(chain3())
    assert chain3() != FinPoset.from_covers([(0, 1)], 3)
    assert chain3() in {chain3()}


def test_repr_names_the_size_and_the_covers():
    assert repr(chain3()) == "FinPoset(n=3, covers=[(0, 1), (1, 2)])"
    assert repr(FinPoset.from_covers([], 0)) == "FinPoset(n=0, covers=[])"


def test_poset_is_immutable():
    p = chain3()
    with pytest.raises(AttributeError):
        p.n = 5


# ----- the linear extension ----------------------------------------------


def test_linear_extension_respects_order():
    for p in (chain3(), diamond(), FinPoset.from_covers([], 4)):
        assert sorted(p.order) == list(range(p.n))
        pos = {e: i for i, e in enumerate(p.order)}
        for i in range(p.n):
            for j in p.up[i]:
                assert pos[i] <= pos[j]


# ----- subset operations -------------------------------------------------


def test_upset_closure_examples():
    p = diamond()
    assert p.upset_closure({0}) == frozenset({0, 1, 2, 3})
    assert p.upset_closure({1}) == frozenset({1, 3})
    assert p.upset_closure({1, 2}) == frozenset({1, 2, 3})
    assert p.upset_closure(set()) == frozenset()


def test_is_upset_examples():
    p = chain3()
    assert p.is_upset({1, 2})
    assert p.is_upset(frozenset())
    assert not p.is_upset({0})
    assert p.is_upset({0, 1, 2})


def _masks():
    """0, one bit, a sparse set of bits, dense random bits and all ones, up
    to 2 200 bits wide."""
    return st.one_of(
        st.just(0),
        st.integers(0, 2200).map(lambda i: 1 << i),
        st.sets(st.integers(0, 2200), max_size=60).map(lambda xs: sum(1 << i for i in xs)),
        st.binary(max_size=275).map(lambda b: int.from_bytes(b, "little")),
        st.integers(0, 2200).map(lambda w: (1 << w) - 1),
    )


@given(_masks())
@example(0b10110)
@example((1 << 2000) - 1)
@example(sum(1 << i for i in range(0, 2000, 97)))
def test_bits_match_the_one_bit_at_a_time_loop(mask):
    want = [i for i in range(mask.bit_length()) if mask >> i & 1]
    assert bits(mask) == want
    assert mask_of(want, mask.bit_length()) == mask


def test_subsets_of_an_empty_carrier_name_it():
    p = FinPoset.from_covers([], 0)
    assert mask_of([], 0) == 0 and degrees(p, []) == ()
    with pytest.raises(RangeError, match="^element 0 leaves the empty carrier$"):
        mask_of([0], 0)
    with pytest.raises(RangeError, match="^element 0 leaves the empty carrier$"):
        degrees(p, {0})
    with pytest.raises(RangeError, match=r"^cover \(0, 1\) leaves the empty carrier$"):
        FinPoset.from_covers([(0, 1)], 0)
    with pytest.raises(RangeError, match=r"^element 3 leaves the carrier 0\.\.2$"):
        mask_of([0, 3], 3)


def test_subset_operations_check_range():
    p = chain3()
    for op in (p.upset_closure, p.is_upset):
        with pytest.raises(RangeError):
            op({0, 7})


def test_subset_operations_on_a_wide_antichain():
    # Every subset of an antichain is an upset.  With two chains hung on
    # its last elements (n-3 < n-2 and n-1 above both), a set holding n-3
    # but not n-2 closes up to n-1 and is not an upset; DiffChain checks
    # each component inside the one before it.
    n = 100_000
    every_second = range(0, n, 2)
    antichain = FinPoset.from_covers([], n)
    assert antichain.upset_closure(every_second) == frozenset(every_second)
    assert antichain.is_upset(every_second)
    assert antichain.upset_closure([]) == frozenset()
    hung = FinPoset.from_covers([(n - 3, n - 2), (n - 3, n - 1), (n - 2, n - 1)], n)
    chosen = [*range(0, n - 3, 2), n - 3]
    assert hung.upset_closure(chosen) == frozenset(chosen) | {n - 2, n - 1}
    assert not hung.is_upset(chosen)
    assert hung.is_upset([*chosen, n - 2, n - 1])
    assert not hung.is_upset([n - 2])
    upper = [*every_second, n - 1]
    chain = DiffChain(hung, [range(n), upper, [n - 1]])
    assert chain.sets[1] == frozenset(upper)
    with pytest.raises(NotUpsetError, match="^component 2 "):
        DiffChain(hung, [range(n), every_second])


# ----- closure laws as properties ---------------------------------------


@given(posets().flatmap(lambda p: st.tuples(st.just(p), subsets_of(p))))
def test_upset_closure_is_a_closure_operator(case):
    p, s = case
    closed = p.upset_closure(s)
    assert s <= closed
    assert p.upset_closure(closed) == closed
    assert p.is_upset(closed)


@given(posets().flatmap(lambda p: st.tuples(st.just(p), subsets_of(p), subsets_of(p))))
def test_upset_closure_is_monotone_and_additive(case):
    p, s, t = case
    if s <= t:
        assert p.upset_closure(s) <= p.upset_closure(t)
    assert p.upset_closure(s | t) == p.upset_closure(s) | p.upset_closure(t)


@given(posets())
def test_up_and_down_closures_are_mirror_images(p):
    # the dual poset, built from the reversed covers, has the transposed
    # up-masks, and reversing its covers gives this poset back
    flipped = FinPoset.from_covers([(j, i) for i, j in p.covers()], p.n)
    for i in range(p.n):
        for j in range(p.n):
            assert flipped.upm[j] >> i & 1 == p.upm[i] >> j & 1
    assert FinPoset.from_covers([(j, i) for i, j in flipped.covers()], p.n) == p


@st.composite
def with_transitive_edges(draw):
    """A poset, a list of its covers with some transitive edges added, and
    a few subsets of it."""
    p = draw(posets())
    covers = p.covers()
    extra = [(i, j) for i in range(p.n) for j in range(p.n)
             if i != j and p.upm[i] >> j & 1 and (i, j) not in covers]
    added = draw(st.lists(st.sampled_from(extra), max_size=6) if extra else st.just([]))
    edges = draw(st.permutations(covers + added))
    return p, edges, draw(st.lists(subsets_of(p), max_size=3))


def _accepts(p, sets):
    try:
        DiffChain(p, sets)
    except DiffChainError as e:
        return type(e)
    return True


@given(with_transitive_edges())
def test_covers_are_the_pairs_with_nothing_between(case):
    # the search down the lower edges against the closure of the order:
    # j covers i when i < j and no k has i < k < j
    p, edges, _ = case
    q = FinPoset.from_covers(edges, p.n)
    got = q.covers()
    assert "upm" not in vars(q)
    strictly = [[j for j in range(q.n) if j != i and q.upm[i] >> j & 1] for i in range(q.n)]
    assert got == [
        (i, j) for i in range(q.n) for j in strictly[i]
        if not any(j in strictly[k] for k in strictly[i])
    ]


@given(with_transitive_edges())
def test_transitive_edges_change_nothing(case):
    # from_covers keeps the edges it is given; the order they generate,
    # and everything read off it, must not depend on the redundant ones
    p, edges, sets = case
    q = FinPoset.from_covers(edges, p.n)
    assert sorted((i, j) for j, below in enumerate(q.lower) for i in below) == sorted(set(edges))
    assert q == p and hash(q) == hash(p)
    assert q.covers() == p.covers()
    closed = [p.upset_closure(s) for s in sets]
    nested = [frozenset.intersection(*closed[: i + 1]) for i in range(len(closed))]
    for s in sets:
        assert degrees(q, s) == degrees(p, s)
        assert canonical_chain(q, s) == canonical_chain(p, s)
        assert q.upset_closure(s) == p.upset_closure(s)
        assert q.is_upset(s) == p.is_upset(s)
    for candidate in (sets, closed, nested):
        assert _accepts(q, candidate) == _accepts(p, candidate)
    assert _accepts(p, nested) is True


# ----- serialization -----------------------------------------------------


def test_json_round_trip():
    p = diamond()
    text = poset_to_json(p, labels=["bot", "left", "right", "top"])
    q, labels = poset_from_json(text)
    assert q == p
    assert labels == ["bot", "left", "right", "top"]
    q2, labels2 = poset_from_json(poset_to_json(p))
    assert q2 == p and labels2 is None


@given(posets())
def test_json_round_trip_property(p):
    q, _ = poset_from_json(poset_to_json(p))
    assert q == p


def test_json_rejects_malformed_documents():
    with pytest.raises(ValueError):
        poset_from_json("[1, 2, 3]")
    with pytest.raises(ValueError):
        poset_from_json('{"n": 2}')
    with pytest.raises(ValueError):
        poset_from_json('{"n": 2, "covers": [[0]]}')
    with pytest.raises(ValueError):
        poset_from_json('{"n": 2, "covers": [[0, "1"]]}')
    with pytest.raises(ValueError):
        poset_from_json('{"n": 2, "covers": [], "labels": [1, 2]}')
    with pytest.raises(ValueError):
        poset_to_json(chain3(), labels=["only one"])
    with pytest.raises(ValueError, match="list of 3 strings"):
        poset_from_json('{"n": 3, "covers": [], "labels": ["a", "b"]}')
    with pytest.raises(ValueError):
        poset_from_json('{"n": true, "covers": []}')
    with pytest.raises(ValueError):
        poset_from_json('{"n": 2, "covers": [[false, true]]}')


def test_dot_output_lists_cover_edges_only():
    dot = poset_to_dot(diamond(), labels=["0", "1", "2", "3"])
    assert "digraph" in dot
    assert "0 -> 1;" in dot and "2 -> 3;" in dot
    assert "0 -> 3" not in dot  # transitive edge stays implicit


def test_dot_output_escapes_quotes_and_backslashes_in_labels():
    dot = poset_to_dot(FinPoset.from_covers([(0, 1)], 2), labels=['say "hi"', "back\\slash"])
    assert dot.splitlines() == [
        "digraph poset {",
        "  rankdir=BT;",
        r'  0 [label="say \"hi\""];',
        r'  1 [label="back\\slash"];',
        "  0 -> 1;",
        "}",
    ]
