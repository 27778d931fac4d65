"""Acceptance gate: exhaustive sweeps and seeded corpus checks, each printing
one verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every check is exact; each also carries a wall-clock budget that is asserted.
"""

from __future__ import annotations

import random
import time
from itertools import islice, takewhile
from operator import and_, not_

from diffchain import (
    DiffChain,
    canonical_chain,
    decompose_bpi1,
    degrees,
    dfa_nonempty_words,
    difference,
    equivalent,
    evaluate,
    intersect,
    is_pi1_k,
    minimize,
    pi1_closure,
    subset_of,
    union,
)
from diffchain.chains import canonical_pairs, canonical_terms
from diffchain.oracle import (
    LpHom,
    all_posets_upto,
    brute_degree,
    brute_pi1_closure_member,
    family_chains,
    forall_adjoint,
    forward_lp_image,
    join_irreducibles,
    lang_eq_upto,
    marked_alphabet,
    monoid_forward_image,
    moore_families,
    random_dfa,
    tensor,
    upsets,
    words_upto,
)
from diffchain.poset import bits, mask_of

from helpers import (
    AB,
    a_plus,
    a_plus_or_b_plus,
    contains,
    difference_union,
    literal,
    mask_minus,
    moore_closure,
    principal_upset_map,
    upset_closure_of,
)


def report(name: str, ok: bool, detail: str, elapsed: float, bound: float) -> None:
    verdict = "PASS" if ok and elapsed < bound else "FAIL"
    print(f"[{verdict}] {name}: {detail} ({elapsed:.2f}s, bound {bound:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < bound, f"{name}: {elapsed:.2f}s over the {bound:.0f}s budget"


def language_corpus(seed: int, count: int, alphabet=AB, max_states: int = 4):
    rng = random.Random(seed)
    return [random_dfa(rng, max_states, alphabet) for _ in range(count)]


def subsets(n: int):
    for bits in range(1 << n):
        yield frozenset(i for i in range(n) if bits >> i & 1)


def test_canonical_chains_reconstruct_every_subset():
    start = time.perf_counter()
    ok, detail, pairs = True, "", 0
    for poset in all_posets_upto(5):
        up = upset_closure_of(poset)
        for v in subsets(poset.n):
            chain = canonical_chain(poset, v)
            deg = degrees(poset, v)
            levels = tuple(
                frozenset(x for x in range(poset.n) if deg[x] >= i)
                for i in range(1, len(chain.sets) + 1)
            )
            brute = tuple(brute_degree(poset, v, x) for x in range(poset.n))
            if deg != brute:
                ok, detail = False, f"degree mismatch on n={poset.n} V={sorted(v)}"
            elif chain.sets != levels or any(d > len(chain.sets) for d in deg):
                ok, detail = False, f"level mismatch on n={poset.n} V={sorted(v)}"
            elif DiffChain(poset, chain.sets) != chain:
                ok, detail = False, f"not a chain of upsets on n={poset.n} V={sorted(v)}"
            elif evaluate(chain) != v:
                ok, detail = False, f"reconstruction fails on n={poset.n} V={sorted(v)}"
            elif chain.masks != tuple(canonical_pairs(
                    up, mask_minus, and_, not_, mask_of(v, poset.n), poset.n + 1)[0]):
                ok, detail = False, f"recurrence mismatch on n={poset.n} V={sorted(v)}"
            if not ok:
                break
            pairs += 1
        if not ok:
            break
    if ok:
        detail = f"{pairs} poset/subset pairs, carriers up to 5"
    report("canonical chains rebuild their target", ok, detail,
           time.perf_counter() - start, 60)


def dominates(close, target, chain, m):
    """The three conditions of the minimality theorem for a competing
    chain: at least m pairs, each canonical term inside the matching
    competitor term, and each prefix union of the competitor's differences
    inside the canonical one."""
    canon = list(islice(canonical_terms(close, mask_minus, and_, target), len(chain)))
    if len(chain) < 2 * m or any(c & ~g for c, g in zip(canon, chain)):
        return False
    canon_union = comp_union = 0
    for i in range(0, len(chain), 2):
        canon_union |= canon[i] & ~canon[i + 1]
        comp_union |= chain[i] & ~chain[i + 1]
        if comp_union & ~canon_union:
            return False
    return True


def test_every_competing_chain_dominates_the_canonical_one():
    # A chain of m pairs has 2m distinct terms once equal neighbours are
    # dropped, and a chain of subsets of 4 points has at most 5, so the
    # search's 3 pairs cover every chain there is.  Every competitor is
    # checked on 3 points; on 4, the competitors of least length.
    start = time.perf_counter()
    ok, detail, targets, refuted, competitors = True, "", 0, 0, 0
    for n in range(5):
        for family in moore_families(n):
            close = moore_closure(family, n)
            for target in range(1, 1 << n):
                terms, m = canonical_pairs(close, mask_minus, and_, not_, target, 3)
                found = family_chains(family, target, 3)
                first = next(found, None)
                targets += 1
                if first is None:
                    refuted += 1
                    # the bound of 3 pairs is not what stopped the recurrence
                    ok = m is None and len(terms) < 6
                elif m != len(first) // 2:
                    ok = False
                else:
                    rest = found if n < 4 else takewhile(lambda c: len(c) == len(first), found)
                    for chain in (first, *rest):
                        competitors += 1
                        if not dominates(close, target, chain, m):
                            ok = False
                            break
                if not ok:
                    detail = f"family {family}, target {target:b}: canonical {terms}, {m}"
                    break
            if not ok:
                break
        if not ok:
            break
    if ok:
        detail = (f"{targets} targets on every Moore family up to 4 points, {refuted} "
                  f"with no chain, {competitors} competing chains")
    report("no chain undercuts the canonical one", ok, detail,
           time.perf_counter() - start, 30)


def test_lattice_dual_recovers_the_poset():
    start = time.perf_counter()
    ok, detail, count = True, "", 0
    for poset in all_posets_upto(6):
        dual = join_irreducibles(upsets(poset))
        if principal_upset_map(poset, dual) is None:
            ok, detail = False, f"round trip fails on {poset!r}"
            break
        count += 1
    if ok:
        detail = f"{count} posets, carriers up to 6"
    report("irreducibles of the upset lattice restore the poset", ok, detail,
           time.perf_counter() - start, 30)


def test_subtraction_is_left_adjoint_to_join():
    start = time.perf_counter()
    ok, detail, triples = True, "", 0
    for poset in all_posets_upto(5):
        members = [frozenset(bits(u)) for u in upsets(poset)]
        for a in members:
            for b in members:
                diff = poset.upset_closure(a - b)
                for c in members:
                    if (diff <= c) != (a <= b | c):
                        ok = False
                        detail = (
                            f"adjunction fails at a={sorted(a)} b={sorted(b)} "
                            f"c={sorted(c)} on n={poset.n}"
                        )
                        break
                    triples += 1
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    if ok:
        detail = f"{triples} upset triples, carriers up to 5"
    report("subtract-then-compare equals compare-after-join", ok, detail,
           time.perf_counter() - start, 60)


def test_closure_pipeline_matches_brute_membership():
    start = time.perf_counter()
    corpus = language_corpus(1302, 50)
    ok, detail, checked = True, "", 0
    for index, d in enumerate(corpus):
        for k in (1, 2):
            closed = pi1_closure(d, k)
            for word in words_upto(AB, 7):
                if closed.accepts(word) != brute_pi1_closure_member(d, k, word):
                    ok = False
                    detail = f"case {index} k={k} word={''.join(word)}"
                    break
                checked += 1
            if not ok:
                break
        if not ok:
            break
    if ok:
        detail = f"50 automata, k in {{1,2}}, {checked} memberships on words up to 7"
    report("closure pipeline agrees with positionwise search", ok, detail,
           time.perf_counter() - start, 300)


def test_two_branch_union_closes_only_with_two_variables():
    start = time.perf_counter()
    d = a_plus_or_b_plus()
    one_var_blurs = not is_pi1_k(d, 1)
    two_vars_hold = is_pi1_k(d, 2)
    coarse = equivalent(pi1_closure(d, 1), dfa_nonempty_words(AB))
    ok = one_var_blurs and two_vars_hold and coarse
    detail = (
        f"one-variable closure is everything: {coarse}, "
        f"closed at two variables: {two_vars_hold}"
    )
    report("single-letter branches need two variables", ok, detail,
           time.perf_counter() - start, 5)


def test_single_letter_complement_decomposes_at_one_pair():
    start = time.perf_counter()
    target = contains("b")
    trace = decompose_bpi1(target)
    nonempty = dfa_nonempty_words(AB)
    shape_ok = trace.succeeded and trace.k == 1 and trace.pair_count == 1
    first_ok = shape_ok and equivalent(trace.chain[0], difference(nonempty, literal("a")))
    second_ok = shape_ok and equivalent(trace.chain[1], difference(a_plus(), literal("a")))
    rebuilt = shape_ok and equivalent(difference_union(trace), minimize(
        intersect(target, nonempty)
    ))
    ok = shape_ok and first_ok and second_ok and rebuilt
    detail = (
        f"k={trace.k} m={trace.pair_count} status={trace.status}, "
        f"components and reconstruction verified: {ok}"
    )
    report("words-with-b splits as one difference of closures", ok, detail,
           time.perf_counter() - start, 10)


def test_forward_images_agree_with_the_monoid_route():
    start = time.perf_counter()
    rng = random.Random(1303)
    source, target = ("a", "b", "c"), ("d", "e")
    ok, detail = True, ""
    for case in range(20):
        d = random_dfa(rng, 4, source)
        hom = LpHom(source, target, {a: rng.choice(target) for a in source})
        fast = forward_lp_image(d, hom)
        reference = monoid_forward_image(d, hom)
        same, word = lang_eq_upto(fast, reference, 6)
        if not same:
            ok, detail = False, f"case {case} word={''.join(word)}"
            break
    if ok:
        detail = "20 image pairs agree on all words up to 6"
    report("subset and monoid image routes coincide", ok, detail,
           time.perf_counter() - start, 60)


def test_closures_form_a_directed_family_of_closure_operators():
    start = time.perf_counter()
    corpus = language_corpus(1302, 50)
    nonempty = dfa_nonempty_words(AB)
    ok, detail = True, ""
    for index, d in enumerate(corpus):
        closed = {}
        for k in (1, 2):
            cl = pi1_closure(d, k)
            closed[k] = cl
            if not subset_of(intersect(d, nonempty), cl):
                ok, detail = False, f"case {index} k={k}: not extensive"
                break
            if not equivalent(pi1_closure(cl, k), cl):
                ok, detail = False, f"case {index} k={k}: not idempotent"
                break
            bigger = union(d, corpus[(index + 1) % len(corpus)])
            if not subset_of(cl, pi1_closure(bigger, k)):
                ok, detail = False, f"case {index} k={k}: not monotone"
                break
        if ok and not subset_of(closed[2], closed[1]):
            ok, detail = False, f"case {index}: two variables exceed one"
        if not ok:
            break
    if ok:
        detail = "50 automata: extensive, monotone, idempotent, shrinking in k"
    report("closures behave as a directed family", ok, detail,
           time.perf_counter() - start, 120)


def test_marking_and_universal_image_are_adjoint():
    start = time.perf_counter()
    rng = random.Random(1304)
    vs = ("x1",)
    marked = marked_alphabet(AB, vs)
    nonempty = dfa_nonempty_words(AB)
    ok, detail, holds = True, "", 0
    for case in range(100):
        lang = minimize(intersect(random_dfa(rng, 4, AB), nonempty))
        constraint = random_dfa(rng, 4, marked)
        left = subset_of(tensor(lang, vs), constraint)
        right = subset_of(lang, forall_adjoint(constraint, vs, sorted(AB)))
        if left != right:
            ok, detail = False, f"case {case}: sides disagree ({left} vs {right})"
            break
        holds += left
    if ok:
        detail = f"100 language/constraint pairs agree ({holds} inclusions hold)"
    report("marking is left adjoint to the universal image", ok, detail,
           time.perf_counter() - start, 60)
