"""Closure of a regular language under k-variable universal sentences, and
difference chains of such closures.

The closure keeps exactly the words that agree with some member of the
language on every k-tuple of positions (with matching length).  Variables are
interchangeable and may share a position, so membership depends only on the
set of at most k pinned positions.  The closure is built from the normalized
target in two determinizations, with a minimization in between:

* the *pattern automaton* reads the target's letters plus a box letter for an
  unpinned position, and accepts the patterns with at most k pins that some
  member of the language matches.  Its states hold subsets of target states
  closed downward under the inclusion relation between the target states'
  languages, which ``_language_below`` computes from short-word signatures,
  so subsets that differ only in included states are one state.  Its top
  two pin layers hold languages, not subsets, where these fit in
  ``_PROFILE_BITS`` bits: a *profile*, an ultimately periodic set of box
  lengths and, per position of a further pin and per letter, the top
  layer's length set that follows, ORed from per-state profiles.  In the
  top layer no pin is left, so its profiles have no slices.  Each such
  layer tags its keys with a bit of its own, so that the key test
  compares only like with like; wider profiles keep the subset states;
* the *universal projection* reads a word and tracks every pattern of it at
  once, keeping only the hardest runs (an antichain, as in De Wulf, Doyen,
  Henzinger and Raskin, *Antichains: a new algorithm for checking
  universality of finite automata*, CAV 2006).  Runs are ints, and the
  inclusions between pattern states that prune them are read off the keys
  the pattern automaton built its states from where these prove them, and
  otherwise searched on demand: a pattern's letter is a pin, so a plain
  letter always leads to a lower layer of pin counts, and each search
  walks one box chain of state pairs, settling every pair on it.

``diffchain.oracle.marked_pi1_closure`` is the paper's literal construction
over marked alphabets, kept as the independent reference route.  All
semantics are over nonempty words: the input language is normalized by
dropping the empty word.
"""

from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass

from .automata import (
    DEFAULT_STATE_CAP,
    Dfa,
    Marked,
    dfa_nonempty_words,
    dfa_to_json_obj,
    difference,
    intersect,
    is_empty_lang,
    minimize,
    _explore,
    _plain_alphabet,
)
from .chains import canonical_pairs
from .errors import CapacityError
from .poset import bits

DEFAULT_K_CAP = 3
DEFAULT_MAX_M = 8

# The pattern letter of an unpinned position: the erased letter.
BOX = Marked(None)
# Width of _language_below's short-word signatures, which hold the words of
# length up to the largest ℓ whose words fit: ℓ = 127 on one letter, 6 on
# two, 4 on three, 3 on four, 2 on five to ten, 1 on 11 to 127 and 0 from
# 128, where acceptance alone seeds.  On the benchmark targets 64 bits was
# about 7 % slower, 32 bits twice as slow on three letters, and 256 bits no
# faster.
_SIGNATURE_BITS = 128
# Widest profile a collapsed layer of the pattern automaton holds; past it the
# layer keeps subset states.  For the top layer this bounds the threshold plus
# period of its length sets.  The benchmark's big targets need 30 to 39 bits
# in layer k - 1.  Of the 218 decompose-corpus pattern automata, 24 have profiles
# of 1 035 to 3 828 bits (targets of 24 to 86 states): on them profiles cut
# the raw states by only 4 % (7 658 to 7 345), and pattern stage plus
# projection took 2-3 % longer (0.240 to 0.244 s and 0.263 to 0.271 s,
# medians of 21 alternations; subset states faster in 12 and 14 of 21).
_PROFILE_BITS = 1024


def _normalize(d: Dfa) -> Dfa:
    """Canonical form of the nonempty-word part of the language."""
    base = _plain_alphabet(d)
    if d.start in d.accepting:  # L ∩ A⁺ = L exactly when ε is not in L
        d = intersect(d, dfa_nonempty_words(base))
    return minimize(d)


def _check_variables(k: int) -> None:
    if k < 1:
        raise ValueError("need at least one variable")
    if k > DEFAULT_K_CAP:
        raise CapacityError(f"k={k} exceeds the variable cap {DEFAULT_K_CAP}")


def pi1_closure(d: Dfa, k: int, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """Least language containing d's that a k-variable universal sentence
    can define, over nonempty words.

    Raises CapacityError when k exceeds ``DEFAULT_K_CAP`` or when the pattern
    automaton or the universal projection passes ``state_cap`` states; the
    message names the stage and k.
    """
    _check_variables(k)
    target = _normalize(d)
    pattern, keys = _keyed_pattern(target, k, state_cap)
    return minimize(_universal_projection(pattern, k, state_cap, keys))


def _keyed_pattern(
    target: Dfa, k: int, state_cap: int
) -> tuple[Dfa, list[tuple[int, int]]]:
    """The minimal pattern automaton, and for each of its states the key of
    a raw state with its language.  The raw automaton and the other keys
    are dropped on return, before the projection."""
    recorded: list[tuple[int, int]] = []
    raw = _pattern_automaton(target, k, state_cap, recorded)
    pattern = minimize(raw)
    return pattern, [recorded[r] for r in _representatives(raw, pattern)]


def _representatives(raw: Dfa, minimal: Dfa) -> list[int]:
    """For each state of ``minimal``, the minimal automaton of ``raw``, a
    raw state of its block, found by walking both from their starts in
    lockstep: the two states of a visited pair have one language."""
    rep = [-1] * minimal.n_states
    rep[minimal.start] = raw.start
    todo = [(raw.start, minimal.start)]
    for r, m in todo:  # the loop reaches the pairs it appends
        for t, u in zip(raw.delta[r], minimal.delta[m]):
            if rep[u] < 0:
                rep[u] = t
                todo.append((t, u))
    return rep


def _language_below(d: Dfa) -> list[int]:
    """For each state q, the bitmask of the states whose language is
    included in q's.

    Each state gets a *signature*: one int with a bit for every word of
    length at most ℓ, set when the state accepts that word.  ℓ is the
    largest length whose words fit in ``_SIGNATURE_BITS`` bits.  The words
    are ordered by length, so the words shorter than ℓ are the low bits,
    and ℓ rounds of shift-and-OR over the transition table build every
    signature.
    L(p) ⊆ L(q) needs sig(p) ⊆ sig(q), so ``below[q]`` starts as the states
    whose signature is a subset of q's, one test per pair of distinct
    signatures.

    Say a word *separates* (p, q) when p accepts it and q does not.  The
    pairs separated first at length exactly ℓ seed a pair-removal fixpoint
    (after Henzinger, Henzinger and Kopke, *Computing simulations on finite
    and infinite graphs*, FOCS 1995): a pair is removed when some letter
    leads to a removed pair, following the removals backwards through the
    predecessor lists.  This is exact.  Take a pair whose shortest
    separating word has length m > ℓ.  Follow that word's first m − ℓ
    letters.  Each letter leads to a pair whose shortest separating word
    is one letter shorter.  So the walk ends at a pair separated first at
    exactly ℓ, which is a seed, and the removals reach back along it to
    the starting pair.  A pair separated first below ℓ needs no seed:
    every pair a letter leads to it from is separated by length ℓ, so it
    was never a candidate.  The fixpoint's work so grows with the pairs
    that short words cannot separate, not with all n² pairs.
    """
    n = d.n_states
    columns = list(zip(*d.delta))
    width = len(columns)
    layer = [1 if q in d.accepting else 0 for q in range(n)]
    sig = layer
    size, short = 1, 0  # words of the newest length; bits of the shorter ones
    while short + size + size * width <= _SIGNATURE_BITS:
        short += size
        new = [layer[t] for t in columns[0]]
        for i in range(1, width):
            shift = i * size
            new = [v | layer[t] << shift for v, t in zip(new, columns[i])]
        layer = new
        size *= width
        sig = [s | v << short for s, v in zip(sig, layer)]
    shorter = (1 << short) - 1
    groups: dict[int, int] = {}
    for q, s in enumerate(sig):
        groups[s] = groups.get(s, 0) | 1 << q
    below = [0] * n
    removed = []
    for s, qs in groups.items():
        rejected = ~s
        row = seeds = 0
        for t, ps in groups.items():
            extra = t & rejected
            if not extra:
                row |= ps
            elif not extra & shorter:
                seeds |= ps
        for q in bits(qs):
            below[q] = row
        if seeds:
            removed += [(p, q) for p in bits(seeds) for q in bits(qs)]
    if not removed:
        return below
    letters = []
    for column in columns:
        preds: list[list[int]] = [[] for _ in range(n)]
        masks = [0] * n
        for p, t in enumerate(column):
            preds[t].append(p)
            masks[t] |= 1 << p
        letters.append((masks, preds))
    while removed:
        p, q = removed.pop()
        for masks, preds in letters:
            mask = masks[p]
            if not mask:
                continue
            for q2 in preds[q]:
                gone = below[q2] & mask
                if gone:
                    below[q2] ^= gone
                    while gone:
                        low = gone & -gone
                        gone ^= low
                        removed.append((low.bit_length() - 1, q2))
    return below


def _pattern_automaton(
    target: Dfa, k: int, state_cap: int, keys: list[tuple[int, int]]
) -> Dfa:
    """Patterns over the target's letters and BOX with at most k pinned
    letters that some word of the target matches, letter for letter.

    A layer that does not collapse (below) holds *subset states*
    ``(c, S)``: c pins used and S the target states some matching prefix
    reaches, as a bitmask closed downward under language inclusion (adding
    a state whose language is included changes nothing).  Every empty S is
    the one dead state ``(0, 0)``.

    In the top layer (c = k) only BOX moves, so a state's language is the
    set of lengths m with Post^m(S) meeting the accepting states.  Let
    ``reaching[m]`` be the states with a path of exactly m letters to an
    accepting state.  That sequence first repeats at index T + P, with
    ``reaching[T + P] == reaching[T]``, so every such set is ultimately
    periodic with threshold T and period P (Chrobak, *Finite automata and
    unary languages*, TCS 1986).  ``_reaching`` gives each target state q
    its length set λ(q) as L = T + P bits.

    Layer k - 1's patterns hold at most one more pin, so its language is a
    box length set and, per position i of the pin and pinned letter x, the
    top-layer length set that follows; these repeat in i from some T1 with
    period P1.  ``_one_pin_profiles`` writes them for each target state as
    one int, its *profile*: λ(q) in bits 0 .. L - 1, then N = T1 + P1
    slices of W·L bits for W letters, letter x's length set at x·L in each.
    A top-layer length set is a profile with no slices.

    A *collapsed* layer's state is ``(c, profile)``, one state per
    language, where subset states gave one per set.  The top layer
    collapses when L fits in ``_PROFILE_BITS`` bits, and for k >= 2 layer
    k - 1 with it when the one-pin profiles fit too; layer 0 (k = 1) never
    collapses, as it holds only the start's box orbit.  The last subset
    layer's letters enter the first collapsed layer with the OR of the
    target states' profiles (λ(q) alone when only the top layer
    collapses).  BOX shifts the lengths and the slices down by one,
    wrapping at T and at T1, and letter x reads its top-layer length set
    off slice 0, empty in the top layer, so that there it leads to the
    dead state.  A collapsed state accepts on bit 0.

    ``keys`` receives each state's key in numbering order.
    A key proves inclusions: L(c, S) ⊆ L(c', S') when c >= c' and
    S ⊆ S', and L(c, π) ⊆ L(c, π') in a collapsed layer when the profile
    π ⊆ π', bit by bit: each bit stands for its own nonempty set of
    patterns.  A profile is recorded with its layer's tag bit, one per
    collapsed layer above both n and every profile bit, so that the one
    test, c >= c' and S ⊆ S', compares two profiles of one layer as sets
    and never passes between a profile and a key of another layer.
    """
    n = target.n_states
    width = len(target.alphabet)
    below = _language_below(target)
    # Successor masks of one state, every letter side by side in one int
    # (letter i in bits i*n .. i*n+n-1), ORed together 4 bits of S at a time.
    post_tables = _nibble_tables(
        [sum(below[t] << (i * n) for i, t in enumerate(row)) for row in target.delta]
    )
    full = (1 << n) - 1
    accepting = sum(1 << q for q in target.accepting)

    def post(subset: int) -> list[int]:
        """Successor masks per letter, then the box's (any letter)."""
        both = _or_nibbles(post_tables, subset)
        out = [both >> (i * n) & full for i in range(width)]
        box = 0
        for mask in out:
            box |= mask
        out.append(box)
        return out

    dead = (0, 0)
    record = keys.append
    # the collapsed layers, from first_collapsed up to k: none, the top one,
    # or for k >= 2 layer k - 1 too, as far as their profiles fit
    first_collapsed = k + 1
    periodic = _reaching(target, accepting)
    if periodic is not None:
        state_lengths, lengths_bits, threshold = periodic
        profiled = _one_pin_profiles(target, state_lengths, lengths_bits) if k > 1 else None
        # λ(q) alone is the profile with no slices
        profiles, slices, slice_threshold = profiled or (state_lengths, 0, 0)
        first_collapsed = k if profiled is None else k - 1
        profile_tables = _nibble_tables(profiles)
        all_lengths = (1 << lengths_bits) - 1
        last_bit = lengths_bits - 1
        slice_bits = width * lengths_bits
        whole_slice = (1 << slice_bits) - 1
        end = slices * slice_bits
        repeat = slice_threshold * slice_bits
        # a tag bit per collapsed layer, above n and every profile bit
        tag = 1 << max(n, lengths_bits + end)

    def step(state):
        c, subset = state
        if c >= first_collapsed:
            record((c, subset | tag << (k - c)))
            # a letter reads its length set off slice 0, empty in the top layer
            succ = []
            for x in range(lengths_bits, lengths_bits + slice_bits, lengths_bits):
                lengths = subset >> x & all_lengths
                succ.append((k, lengths) if lengths else dead)
            # the box moves the lengths and every slice one down
            lengths = subset & all_lengths
            rest = subset >> lengths_bits
            shifted = (
                lengths >> 1 | (lengths >> threshold & 1) << last_bit
                | (rest | (rest >> repeat & whole_slice) << end) >> slice_bits << lengths_bits
            )
            succ.append((c, shifted) if shifted else dead)
            return succ
        record(state)
        succ = []
        for j, mask in enumerate(post(subset)):
            if not mask:
                t = dead
            elif j == width:
                t = (c, mask)
            elif c == k:
                t = dead  # only the box moves in the top layer
            elif c + 1 == first_collapsed:
                profile = _or_nibbles(profile_tables, mask)
                t = (c + 1, profile) if profile else dead
            else:
                t = (c + 1, mask)
            succ.append(t)
        return succ

    return _explore(
        target.alphabet + (BOX,), (0, below[target.start]), step,
        lambda s: s[1] & (1 if s[0] >= first_collapsed else accepting),
        state_cap, f"pattern automaton passed {state_cap} states at k={k}",
    )


def _nibble_tables(values: list[int]) -> list[list[int]]:
    """Per 4 bits of a subset of ``range(len(values))``, the OR of the
    values of every subset of those bits, for ``_or_nibbles``.  Tables of 8
    bits held 16 times the entries: on profiles of about 1 000 bits, 200 KB
    for 40 states, and 0.1 to 0.2 MB more peak memory on the
    decompose-corpus benchmark, with no faster lookups on the closure-big
    one."""
    tables = []
    for low_state in range(0, len(values), 4):
        table = [0] * (1 << min(4, len(values) - low_state))
        for nibble in range(1, len(table)):
            low = nibble & -nibble
            table[nibble] = table[nibble ^ low] | values[low_state + low.bit_length() - 1]
        tables.append(table)
    return tables


def _or_nibbles(tables: list[list[int]], subset: int) -> int:
    """The OR of the values of the members of ``subset``, 4 bits at a time."""
    out = 0
    for table in tables:
        out |= table[subset & 15]
        subset >>= 4
    return out


def _reaching(target: Dfa, accepting: int) -> tuple[list[int], int, int] | None:
    """``(lengths, L, T)``: per target state q, the set λ(q) of the lengths
    m < L of its paths into ``accepting``, bit m of ``lengths[q]``, and the
    threshold T from which these sets repeat with period P = L - T.  None
    when L exceeds ``_PROFILE_BITS``.

    ``reaching[m]``, the states with a path of exactly m letters into
    ``accepting``, is the predecessors of ``reaching[m - 1]``, so the
    sequence repeats from its first repeated set."""
    pred_any = [0] * target.n_states
    for p, row in enumerate(target.delta):
        for t in row:
            pred_any[t] |= 1 << p
    index = {accepting: 0}
    reaching = [accepting]
    while True:
        rest = reaching[-1]
        earlier = 0
        while rest:
            low = rest & -rest
            rest ^= low
            earlier |= pred_any[low.bit_length() - 1]
        if earlier in index:
            break
        if len(reaching) == _PROFILE_BITS:
            return None
        index[earlier] = len(reaching)
        reaching.append(earlier)
    lengths = [0] * target.n_states
    for m, states in enumerate(reaching):
        for q in bits(states):
            lengths[q] |= 1 << m
    return lengths, len(reaching), index[earlier]


def _one_pin_profiles(
    target: Dfa, lengths: list[int], lengths_bits: int
) -> tuple[list[int], int, int] | None:
    """``(profiles, N, T1)``: per target state q, the language of the
    patterns with at most one pin that q's words match, as one int, and the
    slices N = T1 + P1 it holds, the last P1 repeating from slice T1.
    None when a profile is wider than ``_PROFILE_BITS``.

    With L = ``lengths_bits`` and W letters, bits 0 .. L - 1 are λ(q) =
    ``lengths[q]``, the lengths after which q accepts, as ``_reaching``
    gives them.  Slice i follows, W·L bits from L + i·W·L on, with letter
    x's L bits at x·L in it: the length set of the top-layer state that
    some i-letter path from q, then x, reaches.  Column i is that slice for
    every state at once: col₀[q] = Σₓ λ(δ(q, x)) ≪ x·L and
    colᵢ₊₁[q] = OR_y colᵢ[δ(q, y)].  The columns are tuples, so their
    sequence repeats from some T1 with period P1, as ``_reaching``'s does.
    """
    slice_bits = len(target.alphabet) * lengths_bits
    column = tuple(
        sum(lengths[t] << (x * lengths_bits) for x, t in enumerate(row))
        for row in target.delta
    )
    index: dict[tuple[int, ...], int] = {}
    columns = []
    while column not in index:
        if lengths_bits + (len(columns) + 1) * slice_bits > _PROFILE_BITS:
            return None
        index[column] = len(columns)
        columns.append(column)
        nxt = []
        for row in target.delta:
            out = 0
            for t in row:
                out |= column[t]
            nxt.append(out)
        column = tuple(nxt)
    profiles = lengths
    for i, col in enumerate(columns):
        shift = lengths_bits + i * slice_bits
        profiles = [p | c << shift for p, c in zip(profiles, col)]
    return profiles, len(columns), index[column]


def _universal_projection(
    pattern: Dfa, k: int, state_cap: int, keys: list[tuple[int, int]]
) -> Dfa:
    """Words all of whose patterns with at most k pins the minimal pattern
    automaton accepts.  BOX, after every plain letter, is its last column.

    A state is an antichain of runs: a pattern state p and the pins c its
    pattern used, as the int ``p << k.bit_length() | c``, so that sorted
    runs are sorted pairs.  A run is dropped when another run has at most
    as many pins and a pattern language included in its own, since every
    suffix the smaller run allows the larger one allows too.  A run in the
    dead pattern state makes the whole state the dead antichain, the one run
    ``(dead, 0)``.

    Every live state holds exactly one run with no pins, which only follows
    the box, and which no run can drop.  So a state is the tuple
    ``(zero run, *sorted other runs)``.  The successors of the other runs
    depend on them alone: per distinct tuple of them, their box successors
    are pruned once, each letter's pinned runs are inserted into a copy,
    and the result is kept for the rest of the projection.  ``step`` then
    adds only the zero run's two successors, in one pass over each kept
    tuple, the minimal runs of A ∪ B being those of min(A) ∪ B.  The
    successor run of every run on every column is computed once.

    The inclusions are read inline from ``_inclusion_table``, preset from
    the ``_pin_counts`` signatures and tested on the pattern states'
    ``keys`` (see ``_pattern_automaton``).  Its search needs the
    pattern's layers: a plain letter into a live state must lower the
    highest pin count the state accepts, the top bit of its signature (the
    box never raises it).  In a pattern automaton it does, since a
    pattern's letter is a pin; ValueError names a transition that does
    not, checked before any search could misread it.  The antichains do not
    depend on how the inclusions are found.
    """
    box = len(pattern.alphabet) - 1
    pdelta = pattern.delta
    sig = _pin_counts(pattern, box, k)
    top = [bits.bit_length() for bits in sig]  # 0 for the dead state
    for p, row in enumerate(pdelta):
        for t in row[:box]:
            if top[t] and top[t] >= top[p]:
                raise ValueError(
                    f"a letter from pattern state {p} to {t} keeps its highest pin count"
                )
    # only the empty language has no pattern
    dead = next((p for p, bits in enumerate(sig) if not bits), None)
    rows, new_row, search = _inclusion_table(pattern, dead, sig, keys)
    shift = k.bit_length()
    pins = (1 << shift) - 1
    # the dead antichain; no run can reach it when no state is dead
    dead_state = None if dead is None else (dead << shift,)

    def successor_runs(col: int, added: int) -> list[int | None]:
        """Per run ``p << shift | c``: its successor run on column col,
        adding ``added`` pins; -1 in the dead state, None past k pins."""
        out: list[int | None] = [None] * (len(pdelta) << shift)
        moved = [-1 if row[col] == dead else row[col] << shift for row in pdelta]
        for c in range(k + 1 - added):
            out[c::1 << shift] = [t | c + added for t in moved]  # -1 stays -1
        return out

    box_runs = successor_runs(box, 0)
    letter_runs = [successor_runs(col, 1) for col in range(box)]

    def insert(kept: list[int], run: int) -> None:
        """Insert a live run into the antichain ``kept`` unless a kept run
        is below it, in one pass.  Once the run is below a kept run, no
        kept run is below it (kept is an antichain), so the rest of the
        pass only drops the kept runs above it."""
        p = run >> shift
        c = run & pins
        row = rows[p] or new_row(p)
        for other in kept:
            q = other >> shift
            d = other & pins
            if d <= c and (row[q] or search(q, p)) == 1:
                return
            if c <= d and (rows[q][p] or search(p, q)) == 1:
                i = kept.index(other)
                kept[i:] = [
                    run2 for run2 in kept[i + 1:]
                    if run2 & pins < c
                    or (rows[run2 >> shift][p] or search(p, run2 >> shift)) == 2
                ]
                break
        kept.append(run)

    successors_of: dict[tuple[int, ...], list[tuple[int, ...] | None]] = {}

    def successors(rest: tuple[int, ...]) -> list[tuple[int, ...] | None]:
        """Per letter, the pruned successors of the pinned runs ``rest``,
        None where a run reaches the dead state."""
        base: list[int] = []
        for run in rest:
            t = box_runs[run]
            if t < 0:
                return [None] * box
            insert(base, t)
        out: list[tuple[int, ...] | None] = []
        for moves in letter_runs:
            kept = base.copy()
            for run in rest:
                t = moves[run]
                if t is None:
                    continue
                if t < 0:
                    out.append(None)
                    break
                insert(kept, t)
            else:
                kept.sort()
                out.append(tuple(kept))
        return out

    def step(state):
        zero = state[0]
        z = box_runs[zero]
        if z < 0:
            return [dead_state] * box
        rest = state[1:]
        after = successors_of.get(rest)
        if after is None:
            after = successors_of[rest] = successors(rest)
        pz = z >> shift
        out = []
        for kept, moves in zip(after, letter_runs):
            t = moves[zero]
            if kept is None or t < 0:
                out.append(dead_state)
                continue
            # One pass over the other runs: the new zero run z drops every
            # run above it, and the zero run's pinned successor t goes in
            # unless z or a run with one pin, as many as t, is below it.
            # A run above t is dropped at once: then no kept run is below
            # t, as the kept runs are an antichain.
            pt = t >> shift
            row = rows[pt] or new_row(pt)
            add = (row[pz] or search(pz, pt)) == 2
            runs = [z]
            for run in kept:
                q = run >> shift
                if (rows[q][pz] or search(pz, q)) == 1:
                    continue
                if add:
                    if run & pins == 1 and (row[q] or search(q, pt)) == 1:
                        add = False
                    elif (rows[q][pt] or search(pt, q)) == 1:
                        continue
                runs.append(run)
            if add:
                insort(runs, t, 1)
            out.append(tuple(runs))
        return out

    start = pattern.start
    return _explore(
        pattern.alphabet[:box], dead_state if start == dead else (start << shift,), step,
        {p << shift | c for p in pattern.accepting for c in range(k + 1)}.issuperset,
        state_cap, f"universal projection passed {state_cap} states at k={k}",
    )


def _pin_counts(pattern: Dfa, box: int, k: int) -> list[int]:
    """A signature per pattern state: bit 0 set when it accepts, bit j + 1
    when it accepts some pattern with exactly j pins (j <= k).  Each bit
    says that the language holds some pattern, so L(p) ⊆ L(q) implies that
    sig[p] is a subset of sig[q].

    Bit j + 1 spreads back from its seeds over box predecessors; the letter
    predecessors of what it reached seed bit j + 2.
    """
    box_preds: list[list[int]] = [[] for _ in range(pattern.n_states)]
    letter_preds: list[list[int]] = [[] for _ in range(pattern.n_states)]
    for p, row in enumerate(pattern.delta):
        for i, t in enumerate(row):
            (box_preds if i == box else letter_preds)[t].append(p)
    sig = [int(p in pattern.accepting) for p in range(pattern.n_states)]
    todo = list(pattern.accepting)
    for bit in (2 << j for j in range(k + 1)):
        layer = []
        while todo:
            t = todo.pop()
            if not sig[t] & bit:
                sig[t] |= bit
                layer.append(t)
                todo += box_preds[t]
        todo = [p for t in layer for p in letter_preds[t]]
    return sig


def _inclusion_table(
    d: Dfa, dead: int | None, sig: list[int], keys: list[tuple[int, int]]
):
    """A table of language inclusions between the states of a minimal
    pattern automaton, filled on demand: ``rows[q][p]`` is 1 when L(p) is
    included in L(q), 2 when it is not and 0 while unknown.  ``sig`` is a
    bitmask per state, with sig[p] a subset of sig[q] whenever
    L(p) ⊆ L(q); the acceptance bit alone is one.

    Returns ``(rows, new_row, search)``.  ``rows[q]`` is None until
    ``new_row(q)`` allocates it as a copy of sig[q]'s template: 2 for every
    p whose signature has a bit that sig[q] lacks, 1 on the diagonal and
    for the dead state.  ``search(p, q)`` settles an unknown entry
    ``rows[q][p]`` of an allocated row and returns it, settling every pair
    it visits: no pair is searched twice.

    The search relies on the layers of a pattern automaton, whose box is
    its last column.  Call the layer of a live state the highest pin count
    it accepts, the top bit of its ``_pin_counts`` signature.  The box
    never raises it, and a plain letter into a live state lowers it, so
    every cycle of the pair product moves on the box alone.  The search
    walks the box chain of pairs from (p, q), marking each 3 while in
    progress.  At each pair it first settles the plain-letter successor
    pairs, each by a recursive search in a lower layer; one that is not
    included fails every pair of the chain, since each leads to the next.
    Otherwise the walk goes on until a settled pair, a pair of equal states
    or a pair of its own chain.  That pair's verdict, or inclusion for a
    cycle all of whose pairs passed their letters, holds for every pair of
    the chain.  A recursion stays below the layer of every pair its callers
    have marked, so a mark it meets closes its own cycle, and it nests at
    most k + 1 deep.  ``_universal_projection`` checks the layers first.

    ``keys`` gives each state the key ``(c, S)`` that ``_pattern_automaton``
    recorded for a raw state of its language: L(p) ⊆ L(q) whenever
    c_p >= c_q and S_p ⊆ S_q.  Before it marks a pair, the search tries
    that test, and a pair that passes is settled as included and ends the
    chain as a settled pair would.  The keys ``(0, 1 << p)`` pass only on
    the diagonal, which the search never enters, so they leave every
    inclusion to the walk.
    """
    box = len(d.alphabet) - 1
    box_of = [row[box] for row in d.delta]
    letters_of = [row[:box] for row in d.delta]
    templates: dict[int, bytearray] = {}
    rows: list[bytearray | None] = [None] * d.n_states

    def new_row(q: int) -> bytearray:
        template = templates.get(sig[q])
        if template is None:
            template = bytearray(2 if t & ~sig[q] else 0 for t in sig)
            if dead is not None:
                template[dead] = 1
            templates[sig[q]] = template
        row = rows[q] = bytearray(template)
        row[q] = 1
        return row

    key_pins = [c for c, _ in keys]
    key_sets = [subset for _, subset in keys]

    def search(p: int, q: int) -> int:
        x, y, row = p, q, rows[q]
        chain = []
        verdict = 0
        while not verdict:
            if key_pins[x] >= key_pins[y] and not key_sets[x] & ~key_sets[y]:
                row[x] = verdict = 1
                break
            row[x] = 3  # 3: on the chain of a search in progress
            chain.append((row, x))
            for nx, ny in zip(letters_of[x], letters_of[y]):
                if nx != ny and ((rows[ny] or new_row(ny))[nx] or search(nx, ny)) == 2:
                    verdict = 2
                    break
            else:
                x, y = box_of[x], box_of[y]
                row = rows[y] or new_row(y)
                verdict = row[x]  # 1 on the diagonal
        verdict = 2 if verdict == 2 else 1  # 3: the chain closed a cycle
        for row, x in chain:
            row[x] = verdict
        return verdict

    return rows, new_row, search


def is_pi1_k(d: Dfa, k: int, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """True when the (nonempty-word part of the) language is its own closure."""
    return pi1_closure(d, k, state_cap) == _normalize(d)


# ----- difference chains of closures -------------------------------------


@dataclass(frozen=True)
class ChainTrace:
    """A difference chain of k-variable closures aimed at a target language.

    ``chain`` decreases under inclusion; odd positions contribute positively.
    ``status`` is "success" when the differences reconstruct the target, in
    which case ``pair_count`` is the number of odd/even pairs; on
    "exhausted" ``pair_count`` is None and ``chain`` holds the pairs built
    before ``max_m`` ran out or a pair's difference came out empty (that
    pair is left out).
    """

    k: int
    target: Dfa
    chain: tuple[Dfa, ...]
    pair_count: int | None
    status: str

    @property
    def succeeded(self) -> bool:
        return self.status == "success"


def chain_trace(
    d: Dfa,
    k: int,
    max_m: int = DEFAULT_MAX_M,
    state_cap: int = DEFAULT_STATE_CAP,
) -> ChainTrace:
    """Difference chain of k-variable closures aimed at d's language.

    Builds odd/even pairs until a pair's difference is empty, the
    differences reconstruct the target, or ``max_m`` pairs were computed
    (``chains.canonical_pairs`` with the k-variable closure).  An empty
    target succeeds with the empty chain.  Raises ValueError when k or
    ``max_m`` is below 1, and CapacityError when k exceeds
    ``DEFAULT_K_CAP``, whatever the target.

    The chain is canonical: a success's pair count is the least at k, and
    "exhausted" proves that no chain of k-closed languages gives L in at
    most ``max_m`` pairs.  A j-closed language is k-closed for every
    k >= j, so the same holds at every j <= k: a success at j with m pairs
    means a success at k with at most m, and exhaustion at k refutes every
    smaller j.
    """
    _check_variables(k)
    if max_m < 1:
        raise ValueError("need at least one pair")
    target = _normalize(d)
    comps, m = canonical_pairs(
        lambda lang: pi1_closure(lang, k, state_cap),
        difference, intersect, is_empty_lang, target, max_m,
    )
    return ChainTrace(k, target, tuple(comps), m, "exhausted" if m is None else "success")


def decompose_bpi1(
    d: Dfa,
    max_k: int = DEFAULT_K_CAP,
    max_m: int = DEFAULT_MAX_M,
    state_cap: int = DEFAULT_STATE_CAP,
) -> ChainTrace:
    """Search for a difference-chain decomposition with the fewest
    variables, at most ``max_k``, of at most ``max_m`` pairs.

    Returns the successful trace of the least k; on failure, the exhausted
    trace at ``max_k``, which proves that no chain of at most ``max_m``
    pairs exists at any k <= ``max_k``.  Raises ValueError when a bound is
    below 1, and CapacityError when ``max_k`` exceeds ``DEFAULT_K_CAP``,
    whatever the target.

    Success is upward closed in k (see ``chain_trace``), so the search asks
    k = 1 first, the cheapest trace, and then ``max_k``: a failure there
    settles every k in between.  Only when ``max_k`` succeeds are
    k = 2 .. ``max_k`` - 1 tried, ascending.  When the trace at ``max_k``
    raises CapacityError, the search goes on as an ascending one would, and
    the error is raised again if no k in between succeeds.  A failure at
    ``max_k`` is returned even where an ascending search would have stopped
    at the state cap at a smaller k.
    """
    if max_k < 1 or max_m < 1:
        raise ValueError("bounds must be at least 1")
    _check_variables(max_k)
    first = chain_trace(d, 1, max_m, state_cap)
    if first.succeeded or max_k == 1:
        return first
    capped: CapacityError | None = None
    try:
        top = chain_trace(d, max_k, max_m, state_cap)
    except CapacityError as err:
        capped = err
    else:
        if not top.succeeded:
            return top
    for k in range(2, max_k):
        trace = chain_trace(d, k, max_m, state_cap)
        if trace.succeeded:
            return trace
    if capped is not None:
        raise capped
    return top


# ----- serialization -----------------------------------------------------


def trace_to_json_obj(trace: ChainTrace) -> dict:
    obj: dict = {"k": trace.k, "status": trace.status}
    if trace.pair_count is not None:
        obj["m"] = trace.pair_count
    obj["chain"] = [dfa_to_json_obj(c) for c in trace.chain]
    diffs = []
    for i in range(0, len(trace.chain) - 1, 2):
        diffs.append(
            dfa_to_json_obj(minimize(difference(trace.chain[i], trace.chain[i + 1])))
        )
    obj["witness_diffs"] = diffs
    return obj


def trace_to_json(trace: ChainTrace) -> str:
    return json.dumps(trace_to_json_obj(trace), indent=2)
