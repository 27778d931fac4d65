"""Universal-sentence closures and difference chains of closures."""

from __future__ import annotations

import functools
import inspect
import json
import random
import sys
import time
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
    nth_letter_is_a,
    pin_counts,
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


def test_closure_guards():
    with pytest.raises(ValueError):
        pi1_closure(a_plus(), 0)
    assert pi1_closure(a_plus(), 4) == minimize(a_plus())
    with pytest.raises(CapacityError, match=r"^pattern automaton passed 3 states at k=2$"):
        pi1_closure(contains("a"), 2, state_cap=3)
    # 18 raw pattern states fit under the cap; the projection needs 24
    lopsided = Dfa(AB, [[2, 0], [0, 0], [1, 1]], 0, [1])
    with pytest.raises(CapacityError, match=r"universal projection .*k=2"):
        pi1_closure(lopsided, 2, state_cap=18)
    assert pi1_closure(lopsided, 2, state_cap=24) is not None


def parity() -> Dfa:
    """Words with an even number of a's."""
    return Dfa(AB, [[1, 0], [0, 1]], 0, [0])


@pytest.mark.parametrize(
    "k, message",
    [
        (316, "universal projection needs 100489 runs, more than 100000, at k=316"),
        (2**62, f"pattern automaton passed 100000 states at k={2**62}"),
    ],
)
@pytest.mark.parametrize("d", [a_plus(), parity()], ids=["a_plus", "parity"])
def test_closure_stops_promptly_at_any_k(d, k, message):
    # Their patterns hold up to k pins, so the projection's run tables need
    # (k + 1)² runs, past the default cap from k = 316 on.  At k = 2⁶² the
    # pattern automaton, a few states per pin count, passes the cap first
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=f"^{message}$"):
        pi1_closure(d, k)
    assert time.perf_counter() - start < 20


def test_closures_at_four_to_six_variables_match_the_reference_slices():
    rng = random.Random(4646)
    for _ in range(20):
        d = random_dfa(rng, 5, AB)
        for k in (4, 5, 6):
            assert closure_miss(pi1_closure(d, k), d, k, 10) is None, (d, k)


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
    # its language.  k = 5 runs on the two-letter targets, where
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


# ----- the closure from the reversed target --------------------------------


def forward_only(monkeypatch, d: Dfa, k: int, state_cap: int = 100_000) -> Dfa:
    """``pi1_closure`` with the reversed route switched off."""
    with monkeypatch.context() as patched:
        patched.setattr(closure, "_MIRROR_ABOVE", float("inf"))
        return pi1_closure(d, k, state_cap)


def mirrored_calls(monkeypatch) -> list:
    """Each ``_mirrored_closure`` call's outcome, in order: the closure,
    or the CapacityError that sent ``pi1_closure`` back to the forward
    route."""
    outcomes = []
    real = closure._mirrored_closure

    def spied(*args):
        try:
            outcomes.append(real(*args))
        except CapacityError as err:
            outcomes.append(err)
            raise
        return outcomes[-1]

    monkeypatch.setattr(closure, "_mirrored_closure", spied)
    return outcomes


LONG_CHAINS = (1, 2, 6, 7, 12, 14, 29)


def long_chain_closure_inputs(
    monkeypatch, max_m: int, targets=LONG_CHAINS
) -> list[tuple[Dfa, Dfa]]:
    """``(input, closure)`` of every closure of the k = 3 traces, up to
    ``max_m`` pairs, of decompose-corpus targets, by default the seven
    whose chains run past 8 pairs (``random_dfa(Random(5), 5, AB)``, the
    i-th draw)."""
    rng = random.Random(5)
    corpus = [random_dfa(rng, 5, AB) for _ in range(30)]
    calls = []
    real = closure.pi1_closure

    def recorded(d, k, *args):
        calls.append((d, real(d, k, *args)))
        return calls[-1][1]

    with monkeypatch.context() as patched:
        patched.setattr(closure, "pi1_closure", recorded)
        for i in targets:
            chain_trace(corpus[i], 3, max_m)
    return calls


def test_closure_from_the_reversed_target_agrees_with_the_reference(monkeypatch):
    outcomes = mirrored_calls(monkeypatch)
    calls = long_chain_closure_inputs(monkeypatch, 3)
    assert len(calls) == 42
    assert len(outcomes) == 19 and all(isinstance(c, Dfa) for c in outcomes)
    for d, cl in calls:
        assert closure_miss(cl, d, 3, 8) is None, d
        assert cl == forward_only(monkeypatch, d, 3), d


def test_the_reversed_route_projects_far_fewer_raw_states(monkeypatch):
    # the last closure of a long chain at k = 3, up to 4 pairs: 1 068 raw
    # pattern states and 1 267 raw projection states forwards, 149 and 43
    # from the reversed target, which has 40 states to the target's 39
    from diffchain.automata import reverse
    from diffchain.closure import _normalize, _universal_projection

    d = long_chain_closure_inputs(monkeypatch, 4, [12])[-1][0]
    target = _normalize(d)
    counts = []
    for start in (target, reverse(target)):
        raw, _, pattern, keys, sig = keyed_pattern(start, 3)
        projection = _universal_projection(pattern, 3, 10_000, keys, sig)
        counts.append((start.n_states, raw.n_states, projection.n_states))
    assert counts == [(39, 1_068, 1_267), (40, 149, 43)]
    outcomes = mirrored_calls(monkeypatch)
    assert pi1_closure(d, 3) == forward_only(monkeypatch, d, 3)
    assert len(outcomes) == 1 and isinstance(outcomes[0], Dfa)


def test_both_routes_give_one_closure_when_every_closure_tries_both(monkeypatch):
    monkeypatch.setattr(closure, "_MIRROR_ABOVE", 0)
    outcomes = mirrored_calls(monkeypatch)
    rng = random.Random(33)
    for case in range(120):
        alphabet = AB if case % 2 else ("a", "b", "c")
        k = 1 + case % 3
        d = random_dfa(rng, 8, alphabet)
        assert pi1_closure(d, k) == forward_only(monkeypatch, d, k), (case, k)
    # 43 of the 120 targets are not their own reversal, and the route
    # closes 22 of them under its caps
    assert sum(isinstance(c, Dfa) for c in outcomes) >= 20


def test_a_language_that_is_its_own_reversal_takes_the_forward_route(monkeypatch):
    monkeypatch.setattr(closure, "_MIRROR_ABOVE", 0)
    outcomes = mirrored_calls(monkeypatch)
    for d in (contains("a"), a_plus_or_b_plus(), literal("aba"), period_65_counter()):
        pi1_closure(d, 2)
    assert outcomes == []
    pi1_closure(a_star_b(), 2)
    assert len(outcomes) == 1


def test_the_forward_route_takes_over_when_the_reversed_one_passes_a_cap(monkeypatch):
    # forwards: 49 raw pattern states, 93 raw projection states; from the
    # 14-state reversed target: 48 and 111
    monkeypatch.setattr(closure, "_MIRROR_ABOVE", 0)
    outcomes = mirrored_calls(monkeypatch)
    d = Dfa(AB, [[1, 1], [2, 2], [3, 3], [0, 1]], 0, [1])
    want = forward_only(monkeypatch, d, 3)
    assert pi1_closure(d, 3, state_cap=93) == want
    assert str(outcomes.pop()) == "universal projection passed 93 states at k=3"
    assert pi1_closure(d, 3, state_cap=111) == want
    assert isinstance(outcomes.pop(), Dfa)
    # past both projections' caps, the error is the forward route's
    with pytest.raises(CapacityError, match=r"^universal projection passed 92 states at k=3$"):
        pi1_closure(d, 3, state_cap=92)
    assert str(outcomes.pop()) == "universal projection passed 92 states at k=3"
    # a reversed target larger than the forward pattern automaton stops there
    d = Dfa(AB, [[1, 1], [3, 0], [1, 0], [2, 2]], 0, [2, 3])
    assert pi1_closure(d, 1) == forward_only(monkeypatch, d, 1)
    assert outcomes == []  # 13 reversed states against 12 raw pattern states


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


def keyed_pattern(target: Dfa, k: int, cap: int = 10_000):
    """``(raw, recorded, pattern, keys, sig)``: the pattern automaton of a
    normalized target at k and the key of each of its states, then its
    minimal automaton with the key of a raw state of each class and the
    pin-count signatures, as ``pi1_closure`` finds them."""
    from diffchain.closure import _minimal_pattern, _pattern_automaton

    recorded = []
    raw = _pattern_automaton(target, k, cap, recorded)
    return (raw, recorded, *_minimal_pattern(raw, recorded))


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
            _, _, pattern, keys, _ = keyed_pattern(target, k)
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
    from diffchain.closure import BOX

    for k, pattern, expected, _ in minimal_patterns():
        sig = pin_counts(pattern, pattern.letter_index(BOX), k)
        for q, row in enumerate(expected):
            for p, included in enumerate(row):
                if included == 1:
                    assert sig[p] & ~sig[q] == 0, (p, q, k)


def test_pin_counts_match_a_forward_search_of_state_and_pins():
    # bit j + 1 of state p: some (s, j) with s accepting is reachable from
    # (p, 0), where a letter adds a pin and the box does not
    from diffchain.closure import BOX

    for k, pattern, _, _ in minimal_patterns():
        box = pattern.letter_index(BOX)
        sig = pin_counts(pattern, box, k)
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
    from diffchain.closure import BOX

    rng, _ = inclusion_corpus()
    keyed_rng = random.Random(7)
    with_acceptance = with_pins = marked_with_pins = marked_with_keys = 0
    for k, pattern, expected, keys in minimal_patterns():
        n = pattern.n_states
        sig = pin_counts(pattern, pattern.letter_index(BOX), k)
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
    from diffchain.closure import BOX, _inclusion_table

    checked = 0
    for k, pattern, expected, _ in minimal_patterns():
        n = pattern.n_states
        sig = pin_counts(pattern, pattern.letter_index(BOX), k)
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


def test_minimal_pattern_agrees_with_hopcroft(monkeypatch):
    # The bottom-up pass over the pin layers against Hopcroft's minimize on
    # the raw pattern automaton: one language and as many states.  The walk
    # from both starts maps every raw state to a class; that map commutes
    # with every letter and keeps acceptance, so a raw state and its class
    # have one language, each kept key is the key of a raw state of its
    # class, and the signatures are the backward pass's pin counts.  The
    # period-65 counter runs with subset states in every layer, two_cycles
    # has box cycles of 1 147 states, and the big DFAs run up to k = 6.
    # Profiles of at most one bit keep subset states in nearly every layer,
    # where some box cycles hold two raw states of one language: their
    # words of local signatures are not primitive.
    from diffchain.closure import BOX, _normalize

    cases = [("corpus", d, 3) for d in inclusion_corpus()[1]]
    cases += [("one-bit profiles", d, 3) for d in inclusion_corpus()[1]]
    cases += [(label, d, 3) for label, d in wide_and_positional_targets()]
    cases += [("two cycles", two_cycles(), 3)] + [("big", d, 6) for d in big_dfas()]
    merged: Counter = Counter()
    for label, d, top_k in cases:
        target = _normalize(d)
        for k in range(1, top_k + 1):
            with monkeypatch.context() as patched:
                if label == "period 65":
                    patched.setattr(closure, "_PROFILE_BITS", NARROW_PROFILES)
                if label == "one-bit profiles":
                    patched.setattr(closure, "_PROFILE_BITS", 1)
                raw, recorded, pattern, keys, sig = keyed_pattern(target, k, 100_000)
            want = minimize(raw)
            assert minimize(pattern) == want, (label, k)
            assert pattern.n_states == want.n_states, (label, k)
            image = [-1] * raw.n_states
            image[raw.start] = pattern.start
            todo = [raw.start]
            for r in todo:
                m = image[r]
                assert (r in raw.accepting) == (m in pattern.accepting), (label, k)
                for t, u in zip(raw.delta[r], pattern.delta[m]):
                    if image[t] < 0:
                        image[t] = u
                        todo.append(t)
                    assert image[t] == u, (label, k)
            assert len(todo) == raw.n_states
            raw_of = {key: r for r, key in enumerate(recorded)}
            assert [image[raw_of[key]] for key in keys] == list(range(pattern.n_states))
            assert sig == pin_counts(pattern, pattern.letter_index(BOX), k), (label, k)
            for cycle in box_cycles(raw):
                merged[label, len({image[r] for r in cycle}) < len(cycle)] += 1
    # box cycles of raw states with distinct classes, and of some with one
    assert merged["two cycles", False] and merged["one-bit profiles", True], merged


def box_cycles(d: Dfa) -> list[list[int]]:
    """The cycles of d's last column, the box of a pattern automaton."""
    box_of = [row[-1] for row in d.delta]
    seen = [False] * d.n_states
    cycles = []
    for s in range(d.n_states):
        path = []
        while not seen[s]:
            seen[s] = True
            path.append(s)
            s = box_of[s]
        if s in path:
            cycles.append(path[path.index(s):])
    return cycles


def test_minimal_pattern_refuses_a_transition_across_the_layers():
    # State 2 is the dead state, the key (0, 0).  A letter must lead to a
    # higher layer, also when its target is classed first, and the box
    # must stay in its layer, up or down.
    from diffchain.closure import BOX, _minimal_pattern

    looping = Dfa(("a", BOX), [[0, 0]], 0, [0])
    with pytest.raises(ValueError, match=r"^a letter from pattern state 0 to 0 stays in layer 1 "):
        _minimal_pattern(looping, [(1, 1)])
    sideways = Dfa(("a", BOX), [[2, 0], [0, 1], [2, 2]], 1, [0])
    with pytest.raises(ValueError, match=r"^a letter from pattern state 1 to 0 stays in layer 1 "):
        _minimal_pattern(sideways, [(1, 1), (1, 2), (0, 0)])
    for layer in (0, 2):
        leaving = Dfa(("a", BOX), [[2, 1], [2, 1], [2, 2]], 0, [1])
        with pytest.raises(ValueError, match=r"^the box from pattern state 0 leaves layer 1$"):
            _minimal_pattern(leaving, [(1, 1), (layer, 1), (0, 0)])


def test_least_rotation_is_the_least_of_all_rotations():
    from diffchain.closure import _least_rotation

    rng = random.Random(1980)
    for _ in range(2_000):
        word = [rng.randrange(rng.randint(1, 3)) for _ in range(rng.randint(1, 30))]
        r = _least_rotation(word)
        assert 0 <= r < len(word)
        assert word[r:] + word[:r] == min(word[i:] + word[:i] for i in range(len(word))), word


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
            _, _, pattern, keys, _ = labelled_keyed_pattern(monkeypatch, label, target, k)
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
    from diffchain.closure import BOX, _normalize

    patterns = [(k, pattern) for k, pattern, _, _ in minimal_patterns()]
    target = _normalize(period_65_counter())
    for k in (1, 2, 3):
        patterns.append((k, labelled_keyed_pattern(monkeypatch, "period 65", target, k)[2]))
    for k, pattern in patterns:
        box = pattern.letter_index(BOX)
        top = [bits.bit_length() for bits in pin_counts(pattern, box, k)]
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
            _universal_projection(looping, k, 100, identity_keys(1), pin_counts(looping, 1, k))


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
        sig = pin_counts(pattern, pattern.letter_index(closure.BOX), k)
        got = _universal_projection(pattern, k, 10_000, keys, sig)
    shift = k.bit_length()
    pins = (1 << shift) - 1
    return got, [{(run >> shift, run & pins) for run in state} for state in explored]


def check_against_the_reference(monkeypatch, target: Dfa, k: int) -> Dfa:
    """The projection of the target's minimal pattern automaton, with its
    keys and with identity keys, has the reference's automaton and the
    reference's runs in every state."""
    _, _, pattern, keys, _ = keyed_pattern(target, k)
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
    # k = 4 and 5, above the default max_k of decompose_bpi1, nest the
    # inclusion search deeper than k <= 3 does
    from diffchain.closure import _normalize

    rng = random.Random(4242)
    for _ in range(10):
        d = random_dfa(rng, 5, AB)
        target = _normalize(d)
        for k in (4, 5):
            got = check_against_the_reference(monkeypatch, target, k)
            assert pi1_closure(d, k) == minimize(got), (d, k)


# ----- chains of closures ------------------------------------------------


def test_count_languages_need_the_count_chains_pairs():
    # Known answers with m >= 2, a conjecture checked here only.  L_S holds
    # the words whose number of a's lies in S, a count of t meaning t or
    # more.  Its least k is 1 + the last j where membership changes between
    # j and j + 1 (1 when it never does), and there its chain has the pairs
    # of S's canonical chain on the count chain t < ... < 1 < 0.  Every S
    # with t <= 5 runs, 124 sets, at k up to 5.
    from itertools import combinations

    from diffchain import FinPoset, canonical_chain
    from diffchain.oracle import count_language

    found: Counter = Counter()
    for t in range(1, 6):
        counts = FinPoset.from_covers([(j + 1, j) for j in range(t)], t + 1)
        for size in range(t + 2):
            for members in combinations(range(t + 1), size):
                d = count_language(members, t)
                changes = [j for j in range(t) if (j in members) != (j + 1 in members)]
                k = 1 + changes[-1] if changes else 1
                m = canonical_chain(counts, members).pairs
                trace = chain_trace(d, k, 8)
                assert trace.succeeded and trace.pair_count == m, (members, t, k)
                if k > 1:
                    assert not chain_trace(d, k - 1, 8).succeeded, (members, t, k)
                found[k, m] += 1
    assert sum(found.values()) == 124
    assert found[4, 3] and found[5, 3] and max(m for _, m in found) == 3, found


def test_the_count_set_0_2_4_6_needs_four_pairs_at_six_variables():
    # the count family's first m = 4: the least k is 6, as the last change
    # of membership is between 5 and 6
    from diffchain.oracle import count_language

    d = count_language({0, 2, 4, 6}, 6)
    trace = chain_trace(d, 6, 8)
    assert trace.succeeded and trace.pair_count == 4
    assert not chain_trace(d, 5, 8).succeeded
    trace = decompose_bpi1(d, max_k=6, max_m=8)
    assert (trace.k, trace.pair_count) == (6, 4)


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
        # the second pair's difference is empty, and its odd term equals
        # the first pair's even term, so its even term is not asked for
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
    assert calls == 2 * computed - stabilized
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
    # the trace at k = 10⁶ stops at the state cap, and the search goes on
    # up from k = 2
    assert trace_to_json(decompose_bpi1(a_plus_or_b_plus(), max_k=10**6)) == trace_to_json(trace)


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
    """decompose_bpi1 as the plain search with k = 1, 2, ... in turn."""
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
    # k = 1 and k = 2 exhaust under 200 states; k = 3 does not fit.  The
    # k = 3 trace of Dfa(AB, [[1, 1], [0, 1]], 0, [0]) fits since its
    # closures can be built from the reversed target
    d = Dfa(AB, [[0, 1], [2, 1], [1, 1]], 0, [0, 2])
    with pytest.raises(CapacityError, match="universal projection passed 200 states at k=3"):
        decompose_bpi1(d, max_k=3, max_m=3, state_cap=200)
    assert asked_k == [1, 3, 2]


@pytest.mark.parametrize("max_k", [4, 5])
@pytest.mark.parametrize(
    "d", [contains("b"), Dfa(AB, [[1, 1], [0, 1]], 0, [0])], ids=["k1", "none"]
)
def test_decompose_rejects_max_k_above_the_variable_cap(asked_k, d, max_k):
    # no k is refused: above the default max_k the search asks k = 1, then
    # max_k, and ends as the ascending search does
    got = trace_to_json(decompose_bpi1(d, max_k=max_k, max_m=3))
    assert asked_k == ([1] if d == contains("b") else [1, max_k])
    assert got == _ascending(d, max_k, 3, closure.DEFAULT_STATE_CAP)


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
