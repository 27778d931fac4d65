"""Closure of a regular language under k-variable universal sentences, and
difference chains of such closures.

The closure keeps exactly the words that agree with some member of the
language on every k-tuple of positions (with matching length).  Variables are
interchangeable and may share a position, so membership depends only on the
set of at most k pinned positions.  The closure is built from the normalized
target in two determinizations, with a minimization in between:

* the *pattern automaton* reads the target's letters plus a box letter for an
  unpinned position, and accepts the patterns with at most k pins that some
  member of the language matches;
* the *universal projection* reads a word and tracks every pattern of it at
  once, keeping only the hardest runs (an antichain, as in De Wulf, Doyen,
  Henzinger and Raskin, *Antichains: a new algorithm for checking
  universality of finite automata*, CAV 2006).

``diffchain.oracle.marked_pi1_closure`` is the paper's literal construction
over marked alphabets, kept as the independent reference route.  All
semantics are over nonempty words: the input language is normalized by
dropping the empty word.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice

from .automata import (
    DEFAULT_STATE_CAP,
    Dfa,
    Marked,
    dfa_nonempty_words,
    dfa_to_json_obj,
    difference,
    equivalent,
    intersect,
    is_empty_lang,
    minimize,
    _explore,
    _plain_alphabet,
)
from .chains import canonical_pairs, canonical_terms
from .errors import CapacityError

DEFAULT_K_CAP = 3
DEFAULT_MAX_M = 8

# The pattern letter of an unpinned position: the erased letter.
BOX = Marked(None)
# Widest length set (threshold plus period) the pattern automaton's top layer
# collapses to; past it the top layer keeps subset states.
_LENGTH_BITS = 64


def _normalize(d: Dfa) -> Dfa:
    """Canonical form of the nonempty-word part of the language."""
    base = _plain_alphabet(d)
    return minimize(intersect(d, dfa_nonempty_words(base)))


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
    pattern = minimize(_pattern_automaton(target, k, state_cap))
    return minimize(_universal_projection(pattern, k, state_cap))


def _language_below(d: Dfa) -> list[int]:
    """For each state q, the bitmask of the states whose language is
    included in q's.

    Starts from the pairs (p, q) where q accepts if p does, and removes a
    pair whenever some letter leads to a removed pair, following the
    removals backwards through the predecessor lists.
    """
    n = d.n_states
    width = len(d.alphabet)
    every = (1 << n) - 1
    rejecting = every & ~sum(1 << q for q in d.accepting)
    below = [every if q in d.accepting else rejecting for q in range(n)]
    preds: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(width)]
    pred_masks = [[0] * n for _ in range(width)]
    for p, row in enumerate(d.delta):
        for i, t in enumerate(row):
            preds[i][t].append(p)
            pred_masks[i][t] |= 1 << p
    removed = [
        (p, q) for q in range(n) if q not in d.accepting for p in d.accepting
    ]
    while removed:
        p, q = removed.pop()
        for i in range(width):
            mask = pred_masks[i][p]
            if not mask:
                continue
            for q2 in preds[i][q]:
                gone = below[q2] & mask
                if gone:
                    below[q2] ^= gone
                    while gone:
                        low = gone & -gone
                        gone ^= low
                        removed.append((low.bit_length() - 1, q2))
    return below


def _pattern_automaton(target: Dfa, k: int, state_cap: int) -> Dfa:
    """Patterns over the target's letters and BOX with at most k pinned
    letters that some word of the target matches, letter for letter.

    Below the top layer a state is ``(c, S)``: c < k pins used and S the
    target states some matching prefix reaches, as a bitmask closed downward
    under language inclusion (adding a state whose language is included
    changes nothing).  Every empty S is the one dead state ``(0, 0)``.

    In the top layer (c = k) only BOX moves, so a state's language is the
    set of lengths m with Post^m(S) meeting the accepting states.  Let
    ``reaching[m]`` be the states with a path of exactly m letters to an
    accepting state.  That sequence first repeats at index T + P, with
    ``reaching[T + P] == reaching[T]``, so every such set is ultimately
    periodic with threshold T and period P (Chrobak, *Finite automata and
    unary languages*, TCS 1986).  A top-layer state is ``(k, lengths)``,
    bit m of ``lengths`` set when m < T + P is in the set; BOX shifts it
    down one length, and an empty set is the dead state.  Equal sets give
    one state where the subsets S, Post(S), Post^2(S), ... gave many.  When
    T + P exceeds ``_LENGTH_BITS``, the top layer keeps the subset states
    ``(k, S)`` of the layers below.
    """
    n = target.n_states
    width = len(target.alphabet)
    below = _language_below(target)
    # Successor masks of one state, every letter side by side in one int
    # (letter i in bits i*n .. i*n+n-1), ORed together a byte of S at a time.
    packed = [
        sum(below[t] << (i * n) for i, t in enumerate(row)) for row in target.delta
    ]
    tables = []
    for low_state in range(0, n, 8):
        table = [0] * 256
        for byte in range(1, 256):
            low = byte & -byte
            q = low_state + low.bit_length() - 1
            table[byte] = table[byte ^ low] | (packed[q] if q < n else 0)
        tables.append(table)
    full = (1 << n) - 1
    accepting = sum(1 << q for q in target.accepting)
    posts: dict[int, list[int]] = {}

    def post(subset: int) -> list[int]:
        """Successor masks per letter, then the box's (any letter)."""
        out = posts.get(subset)
        if out is None:
            both = 0
            rest = subset
            for table in tables:
                both |= table[rest & 255]
                rest >>= 8
            out = [both >> (i * n) & full for i in range(width)]
            box = 0
            for mask in out:
                box |= mask
            out.append(box)
            posts[subset] = out
        return out

    dead = (0, 0)
    periodic = _reaching(target, accepting)
    # the layer of length sets: the top one, unless the lengths are too wide
    collapsed = k if periodic is not None else -1
    reaching, threshold = periodic or ([], 0)
    last_bit = len(reaching) - 1
    lengths_of: dict[int, tuple[int, int]] = {}

    def enter(subset: int) -> tuple[int, int]:
        """The top-layer state of the target states ``subset``."""
        t = lengths_of.get(subset)
        if t is None:
            lengths = 0
            for m, states in enumerate(reaching):
                if states & subset:
                    lengths |= 1 << m
            t = lengths_of[subset] = (k, lengths) if lengths else dead
        return t

    def step(state):
        c, subset = state
        if c == collapsed:
            # only the box moves: every length one down
            shifted = subset >> 1 | (subset >> threshold & 1) << last_bit
            return [dead] * width + [(c, shifted) if shifted else dead]
        succ = []
        for j, mask in enumerate(post(subset)):
            if not mask:
                t = dead
            elif j == width:
                t = (c, mask)
            elif c + 1 == collapsed:
                t = enter(mask)
            else:
                t = (c + 1, mask) if c < k else dead
            succ.append(t)
        return succ

    return _explore(
        target.alphabet + (BOX,), (0, below[target.start]), step,
        lambda s: s[1] & (1 if s[0] == collapsed else accepting),
        state_cap, f"pattern automaton passed {state_cap} states at k={k}",
    )


def _reaching(target: Dfa, accepting: int) -> tuple[list[int], int] | None:
    """``(reaching, T)``: ``reaching[m]`` for m < T + P, the target states
    with a path of exactly m letters into ``accepting``, and the threshold
    T from which the sequence repeats with period P = len(reaching) - T.
    None when T + P exceeds ``_LENGTH_BITS``."""
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
            return reaching, index[earlier]
        if len(reaching) == _LENGTH_BITS:
            return None
        index[earlier] = len(reaching)
        reaching.append(earlier)


def _universal_projection(pattern: Dfa, k: int, state_cap: int) -> Dfa:
    """Words all of whose patterns with at most k pins the minimal pattern
    automaton accepts.  BOX, after every plain letter, is its last column.

    A state is an antichain of runs ``(p, c)``: a pattern state and the pins
    its pattern used.  A run is dropped when another run has at most as many
    pins and a pattern language included in its own, since every suffix the
    smaller run allows the larger one allows too.  A run in the dead pattern
    state makes the whole state the dead antichain ``((dead, 0),)``.  Every
    letter's runs include the box successors of all runs, so ``step`` prunes
    those once per state and adds each letter's pinned runs to a copy: the
    minimal runs of A ∪ B are those of min(A) ∪ B.

    The inclusions are read inline from ``_inclusion_table``, preset from
    the ``_pin_counts`` signatures.  The antichains do not depend on how the
    inclusions are found.
    """
    box = len(pattern.alphabet) - 1
    pdelta = pattern.delta
    paccepting = pattern.accepting
    sig = _pin_counts(pattern, box, k)
    # only the empty language has no pattern
    dead = next((p for p, bits in enumerate(sig) if not bits), None)
    rows, new_row, search = _inclusion_table(pattern, dead, sig)
    dead_runs = ((dead, 0),)

    def add(kept: list[tuple[int, int]], p: int, c: int) -> bool:
        """Insert the run ``(p, c)`` into the antichain ``kept`` unless a
        kept run is below it; False when p is the dead state."""
        if p == dead:
            return False
        row = rows[p] or new_row(p)
        for p2, c2 in kept:
            if c2 <= c and (row[p2] or search(p2, p)) == 1:
                return True
        kept[:] = [
            run for run in kept
            if run[1] < c or (rows[run[0]][p] or search(p, run[0])) == 2
        ]
        kept.append((p, c))
        return True

    def step(runs):
        base: list[tuple[int, int]] = []
        if not all(add(base, pdelta[p][box], c) for p, c in runs):
            return [dead_runs] * box
        succ = []
        for col in range(box):
            kept = base.copy()
            alive = all(add(kept, pdelta[p][col], c + 1) for p, c in runs if c < k)
            succ.append(tuple(sorted(kept)) if alive else dead_runs)
        return succ

    start = pattern.start
    return _explore(
        pattern.alphabet[:box], dead_runs if start == dead else ((start, 0),), step,
        lambda runs: all(p in paccepting for p, _ in runs),
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


def _inclusion_table(d: Dfa, dead: int | None, sig: list[int]):
    """A table of language inclusions between the states of a minimal DFA,
    filled on demand: ``rows[q][p]`` is 1 when L(p) is included in L(q), 2
    when it is not and 0 while unknown.  ``sig`` is a bitmask per state,
    with sig[p] a subset of sig[q] whenever L(p) ⊆ L(q); the acceptance bit
    alone is one.

    Returns ``(rows, new_row, search)``.  ``rows[q]`` is None until
    ``new_row(q)`` allocates it as a copy of sig[q]'s template: 2 for every
    p whose signature has a bit that sig[q] lacks, 1 on the diagonal and
    for the dead state.  ``search(p, q)`` settles an unknown entry
    ``rows[q][p]`` of an allocated row by a depth-first search of the pair
    product and returns it: on success every visited pair is included; on
    failure every pair on the path from (p, q) to the failing pair is not,
    since a letter leads each to the next.
    """
    delta = d.delta
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

    def search(p: int, q: int) -> int:
        rows[q][p] = 3  # 3: visited by this search
        visited = [(p, q, -1)]  # each pair with the index of its parent
        stack = [0]
        while stack:
            i = stack.pop()
            x, y, _ = visited[i]
            for nx, ny in zip(delta[x], delta[y]):
                if nx == ny:
                    continue
                row = rows[ny] or new_row(ny)
                known = row[nx]
                if known == 2:
                    for x, y, _ in visited:
                        rows[y][x] = 0
                    while i >= 0:
                        x, y, i = visited[i]
                        rows[y][x] = 2
                    return 2
                if not known:
                    row[nx] = 3
                    stack.append(len(visited))
                    visited.append((nx, ny, i))
        for x, y, _ in visited:
            rows[y][x] = 1
        return 1

    return rows, new_row, search


def is_pi1_k(d: Dfa, k: int, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """True when the (nonempty-word part of the) language is its own closure."""
    return equivalent(pi1_closure(d, k, state_cap), _normalize(d))


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


def closure_chain_terms(
    d: Dfa, k: int, count: int, state_cap: int = DEFAULT_STATE_CAP
) -> list[Dfa]:
    """First ``count`` terms of the canonical closure chain at k variables
    (``chains.canonical_terms`` with the k-variable closure).

    Term 1 is the closure of the target; even terms close up what the
    previous term has outside the target, odd terms what it has inside.  No
    early stopping: the sequence is well defined at every index.  Raises
    ValueError when k is below 1, and CapacityError when k exceeds
    ``DEFAULT_K_CAP``, whatever ``count``.
    """
    _check_variables(k)
    terms = canonical_terms(
        lambda lang: pi1_closure(lang, k, state_cap), difference, intersect, _normalize(d)
    )
    return list(islice(terms, max(count, 0)))


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
