"""Universal-sentence closures and difference chains of closures."""

from __future__ import annotations

import functools
import inspect
import json
import random
import sys
from collections import Counter

import pytest

from diffchain import (
    CapacityError,
    Dfa,
    chain_trace,
    decompose_bpi1,
    dfa_no_words,
    dfa_nonempty_words,
    difference,
    equivalent,
    intersect,
    is_empty_lang,
    is_pi1_k,
    minimize,
    pi1_closure,
    subset_of,
    union,
)
from diffchain import closure
from diffchain.automata import dfa_from_json_obj
from diffchain.closure import trace_to_json
from diffchain.oracle import marked_pi1_closure, random_dfa

from helpers import (
    AB,
    a_plus,
    a_plus_or_b_plus,
    a_star_b,
    ab_repeat,
    b_plus,
    closure_miss,
    closure_terms,
    contains,
    difference_union,
    family_monotonicity,
    identity_keys,
    letters_plus,
    literal,
    nested_difference,
)


def nonempty():
    return dfa_nonempty_words(AB)


# ----- the closure itself ------------------------------------------------


def test_closure_of_two_one_letter_branches_needs_two_variables():
    d = a_plus_or_b_plus()
    assert equivalent(pi1_closure(d, 1), nonempty())
    assert equivalent(pi1_closure(d, 2), minimize(d))
    assert not is_pi1_k(d, 1)
    assert is_pi1_k(d, 2)


def test_closure_of_contains_a_adds_nothing_but_the_single_b():
    got = pi1_closure(contains("a"), 1)
    assert equivalent(got, difference(nonempty(), literal("b")))


def test_closure_fixpoints_at_one_variable():
    for d in (a_plus(), literal("ab"), ab_repeat(), nonempty()):
        assert is_pi1_k(d, 1)
    assert is_empty_lang(pi1_closure(dfa_no_words(AB), 1))


def test_closure_drops_the_empty_word():
    from diffchain import Dfa, dfa_all_words

    everything = dfa_all_words(AB)
    assert equivalent(pi1_closure(everything, 1), nonempty())
    assert is_pi1_k(everything, 1)  # normalization happens on both sides


def test_closure_is_extensive_monotone_idempotent():
    rng = random.Random(97)
    corpus = [random_dfa(rng, 4, AB) for _ in range(6)]
    for d in corpus:
        cl = pi1_closure(d, 1)
        assert subset_of(intersect(d, nonempty()), cl)
        assert equivalent(pi1_closure(cl, 1), cl)
    for d1 in corpus[:3]:
        for d2 in corpus[:3]:
            merged = union(d1, d2)
            assert subset_of(pi1_closure(d1, 1), pi1_closure(merged, 1))


def test_closure_shrinks_as_variables_grow():
    for d in (contains("a"), a_plus_or_b_plus(), ab_repeat()):
        assert subset_of(pi1_closure(d, 2), pi1_closure(d, 1))


def test_closure_matches_positionwise_oracle():
    rng = random.Random(411)
    corpus = [random_dfa(rng, 3, AB) for _ in range(4)]
    corpus += [a_plus_or_b_plus(), contains("b")]
    for d in corpus:
        for k in (1, 2):
            assert closure_miss(pi1_closure(d, k), d, k, 4) is None, (d, k)


def test_closure_guards(monkeypatch):
    with pytest.raises(ValueError):
        pi1_closure(a_plus(), 0)
    with pytest.raises(CapacityError):
        pi1_closure(a_plus(), 4)  # above the default variable cap
    monkeypatch.setattr(closure, "DEFAULT_K_CAP", 4)
    assert pi1_closure(a_plus(), 4) is not None
    with pytest.raises(CapacityError, match=r"^pattern automaton passed 3 states at k=2$"):
        pi1_closure(contains("a"), 2, state_cap=3)
    # 18 raw pattern states fit under the cap; the projection needs 24
    lopsided = Dfa(AB, [[2, 0], [0, 0], [1, 1]], 0, [1])
    with pytest.raises(CapacityError, match=r"universal projection .*k=2"):
        pi1_closure(lopsided, 2, state_cap=18)
    assert pi1_closure(lopsided, 2, state_cap=24) is not None


def test_closure_agrees_with_the_marked_route():
    rng = random.Random(2718)
    for case in range(300):
        alphabet = AB if case % 2 else ("a", "b", "c")
        k = 1 + case % 3
        d = random_dfa(rng, 5, alphabet)
        cl = pi1_closure(d, k)
        assert cl == minimize(marked_pi1_closure(d, k)), (case, k)
        assert closure_miss(cl, d, k, 4 if len(alphabet) == 2 else 3) is None, (case, k)


def test_closure_keeps_subset_states_past_the_length_bits():
    # The accepted lengths repeat with period 31 · 37 = 1 147, wider than a
    # profile, so the pattern automaton keeps subset states in every layer.
    from diffchain.closure import _PROFILE_BITS, _normalize, _reaching

    d = two_cycles()
    target = _normalize(d)
    assert target.n_states == 69 and 1_147 > _PROFILE_BITS
    accepting = sum(1 << q for q in target.accepting)
    assert _reaching(target, accepting) is None
    for k in (1, 2, 3):
        cl = pi1_closure(d, k)
        assert cl == minimize(marked_pi1_closure(d, k)), k
        assert closure_miss(cl, d, k, 5) is None, k


def two_cycles() -> Dfa:
    """From the start, a enters a 31-cycle and b a 37-cycle, both letters
    advance each cycle, and each cycle accepts at its 0: lengths of
    period 31 · 37 = 1 147."""
    delta = [[1, 32]]
    delta += [[1 + (i + 1) % 31] * 2 for i in range(31)]
    delta += [[32 + (i + 1) % 37] * 2 for i in range(37)]
    return Dfa(AB, delta, 0, [1, 32])


def first_big_dfa() -> Dfa:
    """The first DFA of at least 50 states from random_dfa(Random(11), 80,
    "abc"), before minimizing."""
    rng = random.Random(11)
    d = random_dfa(rng, 80, ("a", "b", "c"))
    while d.n_states < 50:
        d = random_dfa(rng, 80, ("a", "b", "c"))
    return d


def big_dfas() -> list[Dfa]:
    """The three DFAs of the closure-big benchmark: the first three from
    random_dfa(Random(11), 80, "abc") with at least 50 states once
    minimized (53, 55 and 54)."""
    rng = random.Random(11)
    found = []
    while len(found) < 3:
        d = minimize(random_dfa(rng, 80, ("a", "b", "c")))
        if d.n_states >= 50:
            found.append(d)
    return found


def test_pattern_top_layer_collapses_into_length_sets():
    # 3 730 states; with subset states in layer k - 1 it would be 17 753,
    # and with subset states in the top layer too 75 229.  The counts are
    # exact, so a representation that splits or merges raw states fails.
    from diffchain.closure import _normalize, _pattern_automaton

    assert _pattern_automaton(_normalize(first_big_dfa()), 5, 20_000, []).n_states == 3_730
    counts = [
        [_pattern_automaton(_normalize(d), k, 20_000, []).n_states for d in big_dfas()]
        for k in (1, 2, 3)
    ]
    assert counts == [[11, 10, 11], [18, 14, 17], [108, 95, 100]]


def test_pattern_layer_below_the_top_collapses_into_one_pin_profiles():
    # 17 790 states at k = 6, where subset states in layer k - 1 gave 75 233
    from diffchain.closure import _normalize, _pattern_automaton

    assert _pattern_automaton(_normalize(first_big_dfa()), 6, 25_000, []).n_states == 17_790


def rerooted_inclusions(d):
    """``expected[q][p]`` is 1 when L(p) is included in L(q), else 2, decided
    by ``subset_of`` on d re-rooted at p against d re-rooted at q."""
    rooted = [Dfa(d.alphabet, d.delta, q, d.accepting) for q in range(d.n_states)]
    return [[1 if subset_of(p, q) else 2 for p in rooted] for q in rooted]


def fixpoint_inclusions(d):
    """``_language_below(d)`` in the form of ``rerooted_inclusions``."""
    from diffchain.closure import _language_below

    n = d.n_states
    below = _language_below(d)
    return [[1 if below[q] >> p & 1 else 2 for p in range(n)] for q in range(n)]


def inclusion_corpus():
    rng = random.Random(5150)
    targets = [a_plus(), a_plus_or_b_plus(), ab_repeat(), contains("a"),
               contains("b"), literal("ab"), literal("b"), a_star_b()]
    targets += [random_dfa(rng, 5, AB) for _ in range(30)]
    targets += [random_dfa(rng, 8, AB) for _ in range(10)]
    targets += [random_dfa(rng, 4, ("a", "b", "c")) for _ in range(10)]
    return rng, targets


def period_65_counter() -> Dfa:
    """The lengths divisible by 5 or by 13: a length set of period 65.  With
    ``_PROFILE_BITS`` patched to ``NARROW_PROFILES`` its pattern automaton
    keeps subset states in every layer, a small case of a wide target."""
    return Dfa(AB, [[(q + 1) % 65] * 2 for q in range(65)], 0,
               [q for q in range(65) if q % 5 == 0 or q % 13 == 0])


# below the period-65 counter's 66 length bits (threshold 1, period 65)
NARROW_PROFILES = 64


def forward_patterns(target: Dfa, k: int) -> Dfa:
    """The minimal pattern automaton from its definition: the subset
    construction of the pattern NFA, whose states are pairs (q, c) of a
    target state and the pins used, with no pruning and no length sets,
    then ``minimize``.  A letter moves q along it and adds a pin, the box
    moves q along any letter."""
    from diffchain.automata import _explore
    from diffchain.closure import BOX

    def step(pairs):
        pinned = [
            frozenset((target.delta[q][i], c + 1) for q, c in pairs if c < k)
            for i in range(len(target.alphabet))
        ]
        return pinned + [frozenset((t, c) for q, c in pairs for t in target.delta[q])]

    return minimize(_explore(
        target.alphabet + (BOX,), frozenset({(target.start, 0)}), step,
        lambda pairs: any(q in target.accepting for q, _ in pairs),
        100_000, "forward patterns passed 100000 states",
    ))


def test_pattern_automaton_minimizes_to_the_forward_subset_construction(monkeypatch):
    # The inclusion pruning and the profiles change the raw automaton, never
    # its language; k = 4 and 5 are past the variable cap, which only
    # pi1_closure checks.  k = 5 runs on the two-letter targets, where
    # forward_patterns stays under its 100 000 cap (past it, it raises
    # CapacityError).  The positional targets with n = 21 and 22 have
    # one-pin profiles of 990 and 1 081 bits, one on each side of
    # _PROFILE_BITS, so the second keeps subset states in layer k - 1.  The
    # period-65 counter runs with its top layer collapsed, and with
    # NARROW_PROFILES with subset states in every layer.
    from diffchain.closure import _normalize, _one_pin_profiles, _pattern_automaton, _reaching

    def profile_width(target: Dfa) -> int | None:
        lengths, lengths_bits, _ = _reaching(target, sum(1 << q for q in target.accepting))
        profiled = _one_pin_profiles(target, lengths, lengths_bits)
        return profiled and lengths_bits * (1 + len(target.alphabet) * profiled[1])

    def check(d: Dfa) -> None:
        target = _normalize(d)
        for k in (1, 2, 3, 4, 5) if len(target.alphabet) == 2 else (1, 2, 3, 4):
            got = minimize(_pattern_automaton(target, k, 10_000, []))
            assert got == forward_patterns(target, k), (d, k)

    _, targets = inclusion_corpus()
    targets.append(period_65_counter())
    narrow, wide = (_normalize(nth_letter_is_a(n)) for n in (21, 22))
    assert profile_width(narrow) == 990 and profile_width(wide) is None
    with monkeypatch.context() as patched:
        patched.setattr(closure, "_PROFILE_BITS", 2_000)
        assert profile_width(wide) == 1_081
    for d in targets + [narrow, wide]:
        check(d)
    with monkeypatch.context() as patched:
        patched.setattr(closure, "_PROFILE_BITS", NARROW_PROFILES)
        target = _normalize(period_65_counter())
        assert _reaching(target, sum(1 << q for q in target.accepting)) is None
        check(target)


def nth_letter_is_a(n: int) -> Dfa:
    """The words of length at least n whose n-th letter is a."""
    delta = [[q + 1, q + 1] for q in range(n - 1)]
    return Dfa(AB, delta + [[n, n + 1], [n, n], [n + 1, n + 1]], 0, [n])


def test_closure_of_a_positional_language_stays_small():
    # Read backwards, these patterns must remember where their pinned b's
    # sit among the last n - 1 letters: a determinized reversal needs at
    # least C(n - 1, k) states (over 100 000 at n = 90, k = 3).  Read
    # forwards, a pattern state is a position and a pin count.  The cap
    # bounds every stage, so it bounds time and memory too.
    for n in (1, 2, 3, 5, 8):
        d = nth_letter_is_a(n)
        for k in (1, 2, 3):
            cl = pi1_closure(d, k)
            assert cl == minimize(marked_pi1_closure(d, k)), (n, k)
            assert cl == minimize(d), (n, k)
    d = nth_letter_is_a(90)
    assert pi1_closure(d, 3, state_cap=1_000) == minimize(d)


def test_language_below_matches_subset_of_on_normalized_targets():
    # The signatures hold the words of length up to 6 on two letters, 4 on
    # three, 127 on one, 2 on six, 1 on 20 and 0 on 128, where every pair
    # that acceptance separates is a seed.  The period-65 counter and the
    # positional targets have pairs that only longer words separate, up to
    # 40 letters long; only the removals seeded at the signature length find
    # those.  On random three-letter targets of up to 30 states the
    # signatures settle almost every pair.  The wide targets are counters
    # with a few random edges, so on 6, 20 and 128 letters some pairs are
    # separated first past the signature length too.
    from diffchain.closure import _normalize

    _, targets = inclusion_corpus()
    rng = random.Random(27)
    targets += [period_65_counter()] + [nth_letter_is_a(n) for n in (5, 20, 40)]
    targets += [random_dfa(rng, 30, ("a", "b", "c")) for _ in range(6)]
    for width in (1, 6, 20, 128):
        n = rng.randint(4, 8)
        delta = [
            [(q + 1) % n if rng.random() < 0.9 else rng.randrange(n) for _ in range(width)]
            for q in range(n)
        ]
        accepting = [q for q in range(n) if rng.random() < 0.5]
        targets.append(Dfa(tuple(f"x{i}" for i in range(width)), delta, 0, accepting))
    for d in targets:
        target = _normalize(d)
        assert fixpoint_inclusions(target) == rerooted_inclusions(target), d


def keyed_pattern(target: Dfa, k: int) -> tuple[Dfa, Dfa, list, list[int]]:
    """``(raw, pattern, keys, rep)``: the pattern automaton of a normalized
    target at k, its minimal automaton, and for each minimal state a raw
    state ``rep`` of its block and the key recorded for that raw state, as
    ``pi1_closure`` finds them."""
    from diffchain.closure import _pattern_automaton, _representatives

    recorded = []
    raw = _pattern_automaton(target, k, 10_000, recorded)
    pattern = minimize(raw)
    rep = _representatives(raw, pattern)
    return raw, pattern, [recorded[r] for r in rep], rep


@functools.cache
def minimal_patterns():
    """``(k, pattern, expected, keys)`` for the minimal pattern automaton of
    every ``inclusion_corpus()`` target at k = 1..3, with its
    ``rerooted_inclusions`` and the key of each state (``keyed_pattern``)."""
    from diffchain.closure import _normalize

    _, targets = inclusion_corpus()
    out = []
    for d in targets:
        target = _normalize(d)
        for k in (1, 2, 3):
            _, pattern, keys, _ = keyed_pattern(target, k)
            out.append((k, pattern, rerooted_inclusions(pattern), keys))
    return out


def empty_state(d: Dfa) -> int | None:
    """The state of d whose language is empty, if any."""
    return next(
        (p for p in range(d.n_states)
         if is_empty_lang(Dfa(d.alphabet, d.delta, p, d.accepting))),
        None,
    )


def settle_every_pair(rng, pattern, sig, keys):
    """Settle every entry of ``_inclusion_table(pattern, dead, sig, keys)``,
    in a shuffled order so that later questions read what earlier searches
    memoized, and check after each search that no pair is left marked in
    progress.  Returns the rows, the number of searches and the number of
    pairs the searches marked in progress, counted by tracing the line of
    the search that marks them."""
    from diffchain.closure import _inclusion_table

    lines, first = inspect.getsourcelines(_inclusion_table)
    marking = first + next(i for i, line in enumerate(lines) if "row[x] = 3" in line)
    marked = 0

    def trace(frame, event, arg):
        if frame.f_code.co_name != "search":
            return None

        def count(frame, event, arg):
            nonlocal marked
            if event == "line" and frame.f_lineno == marking:
                marked += 1
            return count

        return count

    n = pattern.n_states
    rows, new_row, search = _inclusion_table(pattern, empty_state(pattern), sig, keys)
    pairs = [(p, q) for p in range(n) for q in range(n)]
    rng.shuffle(pairs)
    searched = 0
    for p, q in pairs:
        row = rows[q] or new_row(q)
        if not row[p]:
            searched += 1
            before = sys.gettrace()
            sys.settrace(trace)
            try:
                verdict = search(p, q)
            finally:
                sys.settrace(before)
            assert verdict == row[p], (p, q)
            # every pair the search visited is settled, none left in progress
            assert not any(3 in other for other in rows if other), (p, q)
    return [list(row) for row in rows], searched, marked


def test_inclusion_table_agrees_with_the_pair_removal_fixpoint():
    # Settle every pair of each minimal pattern automaton through the table,
    # with acceptance as the only signature, then require every entry to
    # match subset_of on the re-rooted automata, and the pair-removal
    # fixpoint _language_below to match too.
    rng, _ = inclusion_corpus()
    searched = 0
    for k, pattern, expected, _ in minimal_patterns():
        n = pattern.n_states
        assert expected == fixpoint_inclusions(pattern), k
        accepts = [1 if p in pattern.accepting else 0 for p in range(n)]
        rows, count, _ = settle_every_pair(rng, pattern, accepts, identity_keys(n))
        assert rows == expected, k
        searched += count
    assert searched > 1000  # the searches, not the presets, settle most pairs


def test_pin_counts_are_monotone_under_inclusion():
    from diffchain.closure import BOX, _pin_counts

    for k, pattern, expected, _ in minimal_patterns():
        sig = _pin_counts(pattern, pattern.letter_index(BOX), k)
        for q, row in enumerate(expected):
            for p, included in enumerate(row):
                if included == 1:
                    assert sig[p] & ~sig[q] == 0, (p, q, k)


def test_pin_counts_match_a_forward_search_of_state_and_pins():
    # bit j + 1 of state p: some (s, j) with s accepting is reachable from
    # (p, 0), where a letter adds a pin and the box does not
    from diffchain.closure import BOX, _pin_counts

    for k, pattern, _, _ in minimal_patterns():
        box = pattern.letter_index(BOX)
        sig = _pin_counts(pattern, box, k)
        for p in range(pattern.n_states):
            seen = {(p, 0)}
            todo = [(p, 0)]
            while todo:
                s, pins = todo.pop()
                for i, t in enumerate(pattern.delta[s]):
                    nxt = (t, pins if i == box else pins + 1)
                    if nxt[1] <= k + 1 and nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
            want = 1 if p in pattern.accepting else 0
            for s, pins in seen:
                if s in pattern.accepting:
                    want |= 2 << pins
            assert sig[p] == want, (p, k)


def test_inclusion_table_with_pin_counts_settles_every_pair():
    from diffchain.closure import BOX, _pin_counts

    rng, _ = inclusion_corpus()
    keyed_rng = random.Random(7)
    with_acceptance = with_pins = marked_with_pins = marked_with_keys = 0
    for k, pattern, expected, keys in minimal_patterns():
        n = pattern.n_states
        sig = _pin_counts(pattern, pattern.letter_index(BOX), k)
        rows, count, marked = settle_every_pair(rng, pattern, sig, identity_keys(n))
        assert rows == expected, k
        with_pins += count
        marked_with_pins += marked
        accepts = [1 if p in pattern.accepting else 0 for p in range(n)]
        with_acceptance += settle_every_pair(rng, pattern, accepts, identity_keys(n))[1]
        rows, _, marked = settle_every_pair(keyed_rng, pattern, sig, keys)
        assert rows == expected, k
        marked_with_keys += marked
    # the presets settle pairs that acceptance alone leaves to a search
    # (5 199 searches against 9 609 on this corpus)
    assert with_pins < with_acceptance
    # Every pair the presets leave open is settled once, by a mark or, with
    # keys, by the key test before its mark, so the marks count the pairs
    # the searches walked: 5 202 with keys against 7 851.  A key test ends
    # a chain early, so the number of searches does not fall with it.
    assert marked_with_keys < marked_with_pins, (marked_with_keys, marked_with_pins)


def key_below(keys, p: int, q: int) -> bool:
    """The key test: L(p) ⊆ L(q) when c_p >= c_q and S_p ⊆ S_q."""
    (cp, sp), (cq, sq) = keys[p], keys[q]
    return cp >= cq and not sp & ~sq


def test_the_search_takes_a_passing_key_for_an_inclusion():
    # Keys that claim L(x) ⊆ L(y) where it is false, for a pair that the
    # presets leave open: x has more pins used than y and an empty set,
    # and no other key is below another.  The search trusts the key test
    # and settles the pair as included; a search that ignored the keys or
    # compared the pins the other way would find 2.
    from diffchain.closure import BOX, _inclusion_table, _pin_counts

    checked = 0
    for k, pattern, expected, _ in minimal_patterns():
        n = pattern.n_states
        sig = _pin_counts(pattern, pattern.letter_index(BOX), k)
        open_pairs = [(x, y) for y in range(n) for x in range(n)
                      if expected[y][x] == 2 and not sig[x] & ~sig[y]]
        if not open_pairs:
            continue
        x, y = open_pairs[0]
        keys = identity_keys(n)
        keys[x] = (1, 0)
        rows, new_row, search = _inclusion_table(pattern, empty_state(pattern), sig, keys)
        assert new_row(y)[x] == 0
        assert search(x, y) == 1 == rows[y][x], (k, x, y)
        checked += 1
    assert checked > 50


def wide_and_positional_targets() -> list[tuple[str, Dfa]]:
    """A top layer too wide to collapse (see ``labelled_keyed_pattern``),
    and positional targets."""
    return [("period 65", period_65_counter())] + [
        ("positional", nth_letter_is_a(n)) for n in (1, 2, 3, 5, 8)
    ]


def labelled_keyed_pattern(monkeypatch, label: str, target: Dfa, k: int):
    """``keyed_pattern``, with ``NARROW_PROFILES`` for the period-65
    counter, so that its layers keep subset states."""
    with monkeypatch.context() as patched:
        if label == "period 65":
            patched.setattr(closure, "_PROFILE_BITS", NARROW_PROFILES)
        return keyed_pattern(target, k)


def test_representatives_have_their_minimal_states_languages(monkeypatch):
    # The walk from both starts maps every raw pattern state to a minimal
    # one; that map commutes with every letter and keeps acceptance, so a
    # raw state and its image have one language, and each representative
    # is mapped to the minimal state it represents.
    from diffchain.closure import _normalize

    targets = [("corpus", d) for d in inclusion_corpus()[1]] + wide_and_positional_targets()
    for label, d in targets:
        for k in (1, 2, 3):
            raw, pattern, _, rep = labelled_keyed_pattern(monkeypatch, label, _normalize(d), k)
            image = {raw.start: pattern.start}
            todo = [raw.start]
            for r in todo:
                m = image[r]
                assert (r in raw.accepting) == (m in pattern.accepting), (d, k)
                for t, u in zip(raw.delta[r], pattern.delta[m]):
                    if t not in image:
                        image[t] = u
                        todo.append(t)
                    assert image[t] == u, (d, k)
            assert len(image) == raw.n_states
            assert [image[r] for r in rep] == list(range(pattern.n_states)), (d, k)


def key_kind(key: tuple[int, int], n: int, k: int) -> str:
    """The kind of a key that ``_pattern_automaton`` recorded for a target
    of n states at k: a set of target states lies below bit n, and a
    profile carries its layer's tag bit above n, a length set in the top
    layer and a one-pin profile in layer k - 1."""
    c, subset = key
    if not subset >> n:
        return "target sets"
    return "length sets" if c == k else "one-pin profiles"


def test_keys_prove_only_true_inclusions(monkeypatch):
    # Every pair of minimal pattern states whose keys pass the key test is
    # an inclusion.  The expected inclusions are rerooted_inclusions, except
    # on the period-65 patterns: there it takes 1.3 s at k = 1 and 8 s at
    # k = 3, so they take _language_below, which agrees with
    # rerooted_inclusions on the corpus patterns and on the period-65
    # target.  With a period of 65 every key is a set of target states.
    from diffchain.closure import _normalize

    sizes = [_normalize(d).n_states for d in inclusion_corpus()[1] for _ in (1, 2, 3)]
    cases = [("corpus", k, pattern, expected, keys, n)
             for (k, pattern, expected, keys), n in zip(minimal_patterns(), sizes)]
    for label, d in wide_and_positional_targets():
        target = _normalize(d)
        for k in (1, 2, 3):
            _, pattern, keys, _ = labelled_keyed_pattern(monkeypatch, label, target, k)
            inclusions = fixpoint_inclusions if label == "period 65" else rerooted_inclusions
            expected = inclusions(pattern)
            cases.append((label, k, pattern, expected, keys, target.n_states))
    passed: Counter = Counter()
    for label, k, pattern, expected, keys, n in cases:
        if label == "period 65":
            assert {key_kind(key, n, k) for key in keys} == {"target sets"}, k
        for q in range(pattern.n_states):
            for p in range(pattern.n_states):
                if p != q and key_below(keys, p, q):
                    assert expected[q][p] == 1, (label, k, p, q)
                    passed[label] += 1
                    passed[key_kind(keys[p], n, k)] += 1
    assert set(passed) == {
        "corpus", "period 65", "positional", "length sets", "one-pin profiles", "target sets"
    }, passed


def test_profile_keys_pass_only_against_profile_keys():
    # A profile key is recorded in a collapsed layer: length sets in the
    # top layer, one-pin profiles in layer k - 1.  Each such layer's keys
    # share one tag bit, their highest, and the layers' tags differ.
    # Against a key of another layer the pin counts alone let the key test
    # pass one way; the tag bits must fail it both ways.
    from diffchain.closure import _normalize, _pattern_automaton

    _, targets = inclusion_corpus()
    pairs: Counter = Counter()
    for d in targets + [first_big_dfa()]:
        target = _normalize(d)
        for k in (1, 2, 3):
            recorded = []
            _pattern_automaton(target, k, 10_000, recorded)
            kinds = {key: key_kind(key, target.n_states, k) for key in recorded}
            profiles = [key for key, kind in kinds.items() if kind != "target sets"]
            tags = {c: {key[1].bit_length() for key in profiles if key[0] == c}
                    for c, _ in profiles}
            assert set(tags) <= {k - 1, k}, (d, k)
            assert all(len(tag) == 1 for tag in tags.values()), (d, k)
            assert len(set.union(set(), *tags.values())) == len(tags), (d, k)
            for profile in profiles:
                for other in kinds:
                    if other[0] != profile[0]:
                        pair = [profile, other]
                        assert not key_below(pair, 0, 1) and not key_below(pair, 1, 0), (d, k)
                        pairs[kinds[profile], kinds[other]] += 1
    assert set(pairs) == {
        ("length sets", "one-pin profiles"), ("length sets", "target sets"),
        ("one-pin profiles", "length sets"), ("one-pin profiles", "target sets"),
    }, pairs


def test_plain_letters_lower_the_top_pin_count(monkeypatch):
    # the layers that _inclusion_table's search relies on, also where the
    # top layer keeps subset states
    from diffchain.closure import BOX, _normalize, _pin_counts

    patterns = [(k, pattern) for k, pattern, _, _ in minimal_patterns()]
    target = _normalize(period_65_counter())
    for k in (1, 2, 3):
        patterns.append((k, labelled_keyed_pattern(monkeypatch, "period 65", target, k)[1]))
    for k, pattern in patterns:
        box = pattern.letter_index(BOX)
        top = [bits.bit_length() for bits in _pin_counts(pattern, box, k)]
        for p, row in enumerate(pattern.delta):
            assert top[row[box]] <= top[p], (p, k)
            for t in row[:box]:
                assert not top[t] or top[t] < top[p], (p, t, k)


def test_universal_projection_refuses_a_letter_that_keeps_the_pin_count():
    from diffchain.closure import BOX, _universal_projection

    # every pattern of a's and boxes: a letter leads back to the same layer
    looping = Dfa(("a", BOX), [[0, 0]], 0, [0])
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match=r"^a letter from pattern state 0 to 0 "):
            _universal_projection(looping, k, 100, identity_keys(1))


def reference_projection(pattern: Dfa, letters, k: int, explored=None) -> Dfa:
    """The universal projection from its definition, with no table and no
    signature: every state is the set of minimal runs (p, c) under fewer
    pins and included languages, as ``rerooted_inclusions`` decides them,
    and a run in the empty-language state makes it ``((dead, 0),)``.  The
    list ``explored``, when given, receives the states in numbering
    order."""
    from diffchain.automata import _explore
    from diffchain.closure import BOX

    below = rerooted_inclusions(pattern)
    dead = empty_state(pattern)
    box = pattern.letter_index(BOX)

    def minimal(runs):
        if any(p == dead for p, _ in runs):
            return ((dead, 0),)
        return tuple(sorted(
            (p, c) for p, c in runs
            if not any((p2, c2) != (p, c) and c2 <= c and below[p][p2] == 1
                       for p2, c2 in runs)
        ))

    def step(runs):
        if explored is not None:
            explored.append(runs)
        moved = {(pattern.delta[p][box], c) for p, c in runs}
        return [
            minimal(moved | {(pattern.delta[p][col], c + 1) for p, c in runs if c < k})
            for col in map(pattern.letter_index, letters)
        ]

    return _explore(
        letters, minimal({(pattern.start, 0)}), step,
        lambda runs: all(p in pattern.accepting for p, _ in runs),
        10_000, "reference projection passed 10000 states",
    )


def projected_runs(monkeypatch, pattern: Dfa, k: int, keys):
    """``(projection, runs)``: ``_universal_projection``'s automaton, and
    for each state it explored, in numbering order, its set of runs
    (p, c).  A run that should have been dropped changes no automaton when
    it comes and goes with the runs that are kept, so only the runs show
    it."""
    from diffchain.closure import _universal_projection

    explored = []
    real = closure._explore

    def recording(letters, start, step, *rest):
        def recorded(state):
            explored.append(state)
            return step(state)

        return real(letters, start, recorded, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(closure, "_explore", recording)
        got = _universal_projection(pattern, k, 10_000, keys)
    shift = k.bit_length()
    pins = (1 << shift) - 1
    return got, [{(run >> shift, run & pins) for run in state} for state in explored]


def check_against_the_reference(monkeypatch, target: Dfa, k: int) -> Dfa:
    """The projection of the target's minimal pattern automaton, with its
    keys and with identity keys, has the reference's automaton and the
    reference's runs in every state."""
    _, pattern, keys, _ = keyed_pattern(target, k)
    explored = []
    want = reference_projection(pattern, target.alphabet, k, explored)
    for given in (identity_keys(pattern.n_states), keys):
        got, runs = projected_runs(monkeypatch, pattern, k, given)
        assert got == want
        assert runs == [set(state) for state in explored]
    return want


def test_universal_projection_matches_the_reference_runs(monkeypatch):
    from diffchain.closure import _normalize

    rng = random.Random(6061)
    targets = [a_plus(), b_plus(), a_plus_or_b_plus(), contains("a"),
               contains("b"), literal("ab"), literal("aba"), ab_repeat(),
               a_star_b(), letters_plus("ab")]
    targets += [random_dfa(rng, 5, AB) for _ in range(20)]
    for d in targets:
        target = _normalize(d)
        for k in (1, 2, 3):
            check_against_the_reference(monkeypatch, target, k)


def test_universal_projection_matches_the_reference_runs_above_the_cap(monkeypatch):
    # k = 4 and 5 nest the inclusion search deeper than the default cap allows
    from diffchain.closure import _normalize

    monkeypatch.setattr(closure, "DEFAULT_K_CAP", 5)
    rng = random.Random(4242)
    for _ in range(10):
        d = random_dfa(rng, 5, AB)
        target = _normalize(d)
        for k in (4, 5):
            got = check_against_the_reference(monkeypatch, target, k)
            assert pi1_closure(d, k) == minimize(got), (d, k)


# ----- chains of closures ------------------------------------------------


def test_chain_trace_for_contains_b():
    trace = chain_trace(contains("b"), 1)
    assert trace.succeeded and trace.pair_count == 1
    assert len(trace.chain) == 2
    first, second = trace.chain
    # closes up to "everything but the single word a", overshoot aa+
    assert equivalent(first, difference(nonempty(), literal("a")))
    assert equivalent(second, difference(a_plus(), literal("a")))
    assert equivalent(difference_union(trace), trace.target)
    assert equivalent(nested_difference(trace), trace.target)


def test_chain_trace_of_a_two_state_language_exhausts_at_two_variables():
    # four pairs do not reach the target; each term is three states larger
    d = Dfa(AB, [[1, 1], [0, 1]], 0, [0])
    trace = chain_trace(d, 2, 4)
    assert trace.status == "exhausted" and trace.pair_count is None
    assert [c.n_states for c in trace.chain] == [7, 10, 13, 16, 19, 22, 25, 28]
    for bigger, smaller in zip(trace.chain, trace.chain[1:]):
        assert subset_of(smaller, bigger)


def test_chain_trace_of_a_closed_language_is_one_pair():
    trace = chain_trace(a_plus(), 1)
    assert trace.succeeded and trace.pair_count == 1
    assert equivalent(trace.chain[0], a_plus())
    assert is_empty_lang(trace.chain[1])


def test_chain_trace_of_the_empty_language():
    trace = chain_trace(dfa_no_words(AB), 1)
    assert trace.succeeded and trace.pair_count == 0
    assert trace.chain == ()
    assert is_empty_lang(difference_union(trace))


def test_chain_trace_exhausts_at_one_variable_on_two_branches():
    trace = chain_trace(a_plus_or_b_plus(), 1)
    assert not trace.succeeded
    assert trace.status == "exhausted" and trace.pair_count is None
    assert len(trace.chain) == 2
    # the one completed pair only recovers the two single-letter words
    got = difference_union(trace)
    assert equivalent(got, union(literal("a"), literal("b")))
    assert subset_of(got, trace.target) and not equivalent(got, trace.target)


def test_chain_traces_decrease_and_stay_inside_the_target():
    rng = random.Random(98)
    for _ in range(5):
        d = random_dfa(rng, 4, AB)
        trace = chain_trace(d, 1, max_m=3)
        for earlier, later in zip(trace.chain, trace.chain[1:]):
            assert subset_of(later, earlier)
        for i in range(0, len(trace.chain) - 1, 2):
            diff = difference(trace.chain[i], trace.chain[i + 1])
            assert subset_of(diff, trace.target)
        if trace.succeeded:
            assert equivalent(difference_union(trace), trace.target)
            assert equivalent(nested_difference(trace), trace.target)


@pytest.mark.parametrize(
    "d, k, max_m, status, computed, stabilized",
    [
        (contains("b"), 1, 8, "success", 1, False),
        (Dfa(AB, [[2, 0], [1, 3], [1, 2], [1, 2]], 0, [0, 1, 3]), 2, 8, "success", 2, False),
        # the second pair's difference is empty
        (a_plus_or_b_plus(), 1, 8, "exhausted", 2, True),
        # three pairs, none of which reaches the target
        (Dfa(AB, [[1, 1], [0, 1]], 0, [0]), 2, 3, "exhausted", 3, False),
    ],
)
def test_chain_trace_asks_for_no_closure_it_does_not_use(
    monkeypatch, d, k, max_m, status, computed, stabilized
):
    calls = 0
    real = closure.pi1_closure

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(closure, "pi1_closure", counted)
    trace = chain_trace(d, k, max_m)
    assert trace.status == status
    assert calls == 2 * computed
    calls = 0
    closure_terms(d, k, 2 * computed - 1)
    assert calls == 2 * computed - 1
    terms = closure_terms(d, k, 2 * computed)
    assert calls == 4 * computed - 1
    if stabilized:  # the trace drops the pair that repeats its odd term
        assert terms[-1] == terms[-2]
        terms = terms[:-2]
    assert tuple(terms) == trace.chain


def test_chain_trace_success_matches_the_union_of_differences():
    # chain_trace calls a pair a success when its even term misses the
    # target; at every pair, that must agree with the union of the
    # differences so far reaching the target.  It calls a pair stabilized
    # when its two terms are equal; at every pair, including the one that
    # stops the trace, that must agree with an empty difference.
    rng = random.Random(4242)
    targets = [Dfa(AB, [[2, 0], [1, 3], [1, 2], [1, 2]], 0, [0, 1, 3])]
    targets += [random_dfa(rng, 5, AB) for _ in range(12)]
    stabilized = 0
    for d in targets:
        for k in (1, 2, 3):
            trace = chain_trace(d, k, max_m=3)
            terms = closure_terms(d, k, 6)
            stop = len(trace.chain)
            assert terms[:stop] == list(trace.chain)
            if not trace.succeeded and stop < 6:
                assert terms[stop] == terms[stop + 1]  # the pair that stopped it
            for odd, even in zip(terms[::2], terms[1::2]):
                assert (odd == even) == is_empty_lang(difference(odd, even))
                stabilized += odd == even
            if not trace.chain:
                assert trace.pair_count == 0 and is_empty_lang(trace.target)
                continue
            reached = dfa_no_words(AB)
            verdicts = []
            for odd, even in zip(trace.chain[::2], trace.chain[1::2]):
                assert odd != even  # a stabilized pair ends the trace unrecorded
                reached = union(reached, difference(odd, even))
                verdict = equivalent(reached, trace.target)
                assert verdict == is_empty_lang(intersect(even, trace.target))
                verdicts.append(verdict)
            if trace.succeeded:
                assert verdicts.index(True) + 1 == trace.pair_count == len(verdicts)
            else:
                assert not any(verdicts), (d, k)
    assert stabilized  # the equality test is met, not only passed over


def test_decompose_prefers_fewer_variables():
    trace = decompose_bpi1(contains("b"))
    assert trace.succeeded and trace.k == 1 and trace.pair_count == 1
    trace = decompose_bpi1(ab_repeat())
    assert trace.succeeded and trace.k == 1 and trace.pair_count == 1


def test_decompose_escalates_to_two_variables():
    trace = decompose_bpi1(a_plus_or_b_plus(), max_k=2)
    assert trace.succeeded and trace.k == 2 and trace.pair_count == 1
    assert equivalent(trace.chain[0], minimize(a_plus_or_b_plus()))


def test_decompose_reports_exhaustion_honestly():
    trace = decompose_bpi1(a_plus_or_b_plus(), max_k=1)
    assert not trace.succeeded and trace.k == 1
    with pytest.raises(ValueError):
        decompose_bpi1(a_plus(), max_k=0)
    with pytest.raises(ValueError):
        decompose_bpi1(a_plus(), max_m=0)


def test_chain_trace_checks_its_bounds_whatever_the_target():
    empty = dfa_no_words(AB)
    for d in (empty, a_plus()):
        with pytest.raises(ValueError, match="at least one variable"):
            chain_trace(d, 0)
        with pytest.raises(ValueError, match="at least one variable"):
            pi1_closure(d, 0)
        with pytest.raises(CapacityError, match=r"k=9 exceeds the variable cap 3"):
            chain_trace(d, 9)
        with pytest.raises(CapacityError, match=r"k=99 exceeds the variable cap 3"):
            pi1_closure(d, 99)
        for max_m in (0, -3):
            with pytest.raises(ValueError):
                chain_trace(d, 1, max_m=max_m)


# Pairs needed: none at k=1, two at k=2, one at k=3.
SHRINKING = Dfa(AB, [[2, 0], [1, 3], [1, 2], [1, 2]], 0, [0, 1, 3])


def test_success_is_upward_closed_in_the_number_of_variables():
    # A chain of j-closed languages is a chain of k-closed ones for k >= j,
    # and the canonical chain at k is the shortest: decompose_bpi1's search
    # order rests on this.
    rng = random.Random(31)
    targets = [random_dfa(rng, 5, AB) for _ in range(20)]
    targets += [SHRINKING, a_plus(), a_plus_or_b_plus(), contains("b")]
    targets += [literal("aba"), ab_repeat(), a_star_b()]
    checked = 0
    for d in targets:
        traces = {k: chain_trace(d, k, max_m=4) for k in (1, 2, 3)}
        for j in (1, 2):
            if not traces[j].succeeded:
                continue
            for k in range(j + 1, 4):
                assert traces[k].succeeded, (d, j, k)
                assert traces[k].pair_count <= traces[j].pair_count, (d, j, k)
                checked += 1
    assert checked >= 50


def _ascending(d: Dfa, max_k: int, max_m: int, state_cap: int) -> str:
    """decompose_bpi1 as the plain search with k = 1, 2, ... in turn, after
    the check of ``max_k`` against the variable cap."""
    if max_k > closure.DEFAULT_K_CAP:
        return f"capacity: k={max_k} exceeds the variable cap {closure.DEFAULT_K_CAP}"
    for k in range(1, max_k + 1):
        try:
            trace = chain_trace(d, k, max_m, state_cap)
        except CapacityError as err:
            return f"capacity: {err}"
        if trace.succeeded:
            break
    return trace_to_json(trace)


def test_decompose_ends_as_the_ascending_search_does():
    rng = random.Random(77)
    targets = [random_dfa(rng, 5, AB) for _ in range(8)]
    targets += [SHRINKING, a_plus_or_b_plus(), contains("b")]
    outcomes = set()
    for d in targets:
        for max_k in (1, 2, 3, 4):
            for max_m in (1, 3):
                for cap in (40, closure.DEFAULT_STATE_CAP):
                    try:
                        got = trace_to_json(decompose_bpi1(d, max_k, max_m, cap))
                    except CapacityError as err:
                        got = f"capacity: {err}"
                    assert got == _ascending(d, max_k, max_m, cap), (d, max_k)
                    capped = got.startswith("capacity")
                    outcomes.add("capacity" if capped else json.loads(got)["status"])
    assert outcomes == {"success", "exhausted", "capacity"}


@pytest.fixture
def asked_k(monkeypatch):
    """The k of every chain_trace call, in order."""
    calls = []
    real = closure.chain_trace

    def counted(d, k, *args):
        calls.append(k)
        return real(d, k, *args)

    monkeypatch.setattr(closure, "chain_trace", counted)
    return calls


@pytest.mark.parametrize(
    "d, max_k, asked, k, status",
    [
        (Dfa(AB, [[1, 1], [0, 1]], 0, [0]), 3, [1, 3], 3, "exhausted"),
        (contains("b"), 3, [1], 1, "success"),
        (a_plus_or_b_plus(), 3, [1, 3, 2], 2, "success"),
        (SHRINKING, 3, [1, 3, 2], 2, "success"),
    ],
)
def test_decompose_asks_one_then_max_k(asked_k, d, max_k, asked, k, status):
    trace = decompose_bpi1(d, max_k=max_k, max_m=3)
    assert asked_k == asked
    assert (trace.k, trace.status) == (k, status)


def test_decompose_raises_the_cap_of_max_k_when_nothing_below_succeeds(asked_k):
    # k = 1 and k = 2 exhaust under 200 states; k = 3 does not fit
    with pytest.raises(CapacityError, match="universal projection passed 200 states at k=3"):
        decompose_bpi1(Dfa(AB, [[1, 1], [0, 1]], 0, [0]), max_k=3, max_m=3, state_cap=200)
    assert asked_k == [1, 3, 2]


@pytest.mark.parametrize("max_k", [4, 5])
@pytest.mark.parametrize(
    "d", [contains("b"), Dfa(AB, [[1, 1], [0, 1]], 0, [0])], ids=["k1", "none"]
)
def test_decompose_rejects_max_k_above_the_variable_cap(asked_k, d, max_k):
    # whether the target decomposes at k = 1 or at no k, the error names max_k
    with pytest.raises(CapacityError, match=f"^k={max_k} exceeds the variable cap 3$"):
        decompose_bpi1(d, max_k=max_k, max_m=3)
    assert asked_k == []


def test_chain_terms_without_stopping():
    terms = closure_terms(a_plus(), 1, 4)
    assert len(terms) == 4
    assert equivalent(terms[0], a_plus())
    for t in terms[1:]:
        assert is_empty_lang(t)
    longer = closure_terms(contains("b"), 1, 6)
    for earlier, later in zip(longer, longer[1:]):
        assert subset_of(later, earlier)


def test_family_monotonicity_examples():
    ok, witness = family_monotonicity(contains("a"), 1, 2)
    assert ok and witness is None
    ok, witness = family_monotonicity(a_plus_or_b_plus(), 1, 2)
    assert ok and witness is None
    with pytest.raises(ValueError):
        family_monotonicity(a_plus(), 2, 1)
    with pytest.raises(ValueError):
        family_monotonicity(a_plus(), 0, 1)
    with pytest.raises(ValueError):
        family_monotonicity(a_plus(), 1, 2, pairs=0)


# ----- serialization -----------------------------------------------------


def test_trace_json_success_document():
    trace = chain_trace(contains("b"), 1)
    obj = json.loads(trace_to_json(trace))
    assert obj["k"] == 1 and obj["status"] == "success" and obj["m"] == 1
    assert len(obj["chain"]) == 2 and len(obj["witness_diffs"]) == 1
    diff = dfa_from_json_obj(obj["witness_diffs"][0])
    assert equivalent(diff, minimize(contains("b")))
    chain0 = dfa_from_json_obj(obj["chain"][0])
    assert equivalent(chain0, trace.chain[0])


def test_trace_json_exhausted_document_has_no_pair_count():
    trace = chain_trace(a_plus_or_b_plus(), 1)
    obj = json.loads(trace_to_json(trace))
    assert obj["status"] == "exhausted"
    assert "m" not in obj
    assert len(obj["chain"]) == 2
