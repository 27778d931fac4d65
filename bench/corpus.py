"""Seeded corpora for the four benchmark workloads.

Every automaton and poset is rebuilt here from plain integers, so the corpus
does not change when the library's own generators or fixtures change.  The
structure of each workload is pinned; ``--seed`` changes only what can vary
without changing the work done:

* language inputs get their states renumbered by a seeded permutation (every
  command minimizes its input first, so the computation after that step and
  the output are the same for every seed);
* the sparse random poset and the "seeded half" member sets of
  ``poset-chains`` are drawn from the seed (chains and the grid keep their
  natural numbering, because renumbering them would change how deep
  ``FinPoset.from_covers`` recurses);
* ``verify`` runs its invocations in an order drawn from the seed.

A case whose input does not depend on the seed is marked ``pinned``: its
canonical output is compared with ``pins.json``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import canon

WORKLOADS = ("closure-big", "decompose-corpus", "poset-chains", "verify")

# One state cap for every workload; see README.md for why 10 000.
STATE_CAP = 10_000
# Per-case wall-clock guard in seconds.  The slowest decided case takes about
# 3.5 s on a 2-core VM, so only a hang or a large slowdown reaches it.
GUARD_S = 60.0

BIG_SEED = 11          # closure-big: random_dfa(Random(11), 80, "abc")
DECOMPOSE_SEED = 5     # decompose-corpus: random_dfa(Random(5), 5, "ab")
DECOMPOSE_CASES = 40
DECOMPOSE_ARGS = ["--max-k", "3", "--max-m", "4"]
VERIFY_SEED = 7        # draws the verify --seed values
VERIFY_ROUNDS = 16     # invocations per randomized verify suite
VERIFY_CASES = 10      # --cases per invocation
VERIFY_MAX_LEN = 7


@dataclass
class Case:
    """One CLI invocation.  ``argv`` names input files relative to the work
    directory as ``{name}``; ``check`` holds what the correctness check
    needs."""

    id: str
    kind: str
    argv: list[str]
    inputs: dict[str, str] = field(default_factory=dict)
    check: dict = field(default_factory=dict)
    pinned: bool = False


# ----- automata as plain data --------------------------------------------
# A DFA is (alphabet, delta, start, accepting) with delta[q][i] the successor
# of q on alphabet[i], the same shape as the library's JSON.


def random_dfa(rng: random.Random, max_states: int, alphabet) -> tuple:
    """Same draws, in the same order, as ``diffchain.oracle.random_dfa``."""
    alphabet = tuple(alphabet)
    n = rng.randint(1, max_states)
    delta = [[rng.randrange(n) for _ in alphabet] for _ in range(n)]
    accepting = [q for q in range(n) if rng.random() < 0.5]
    return alphabet, delta, 0, accepting


def relabel(dfa: tuple, rng: random.Random) -> tuple:
    alphabet, delta, start, accepting = dfa
    perm = list(range(len(delta)))
    rng.shuffle(perm)
    new = [None] * len(delta)
    for q, row in enumerate(delta):
        new[perm[q]] = [perm[t] for t in row]
    return alphabet, new, perm[start], sorted(perm[q] for q in accepting)


def dfa_json(dfa: tuple) -> str:
    alphabet, delta, start, accepting = dfa
    return json.dumps({
        "alphabet": list(alphabet), "states": len(delta), "start": start,
        "accepting": sorted(accepting), "delta": delta,
    })


AB = ("a", "b")


def _letters_plus(allowed: str) -> tuple:
    rows = [[1 if x in allowed else 2 for x in AB]] * 2 + [[2, 2]]
    return AB, rows, 0, [1]


def _contains(letter: str) -> tuple:
    return AB, [[1 if x == letter else 0 for x in AB], [1, 1]], 0, [1]


def _literal(word: str) -> tuple:
    n, sink = len(word), len(word) + 1
    rows = [[p + 1 if x == word[p] else sink for x in AB] for p in range(n)]
    return AB, rows + [[sink, sink], [sink, sink]], 0, [n]


def _mod_counter(n: int) -> tuple:
    """Nonempty words whose number of a's is a multiple of n (the empty
    word is dropped by every command's normalization)."""
    return AB, [[(q + 1) % n, q] for q in range(n)], 0, [0]


# The language fixtures of the test suite, rebuilt as plain data.
HELPER_LANGUAGES = {
    "a_plus": _letters_plus("a"),
    "b_plus": _letters_plus("b"),
    "a_plus_or_b_plus": (AB, [[1, 2], [1, 3], [3, 2], [3, 3]], 0, [1, 2]),
    "contains_a": _contains("a"),
    "contains_b": _contains("b"),
    "literal_ab": _literal("ab"),
    "ab_repeat": (AB, [[1, 3], [3, 2], [1, 3], [3, 3]], 0, [2]),
    "a_star_b": (AB, [[0, 1], [2, 2], [2, 2]], 0, [1]),
}


def big_dfas() -> list[tuple]:
    """The first three minimized DFAs with >= 50 states drawn from
    random_dfa(Random(11), 80, "abc")."""
    rng = random.Random(BIG_SEED)
    found = []
    while len(found) < 3:
        small = canon.minimal(random_dfa(rng, 80, "abc"))
        if len(small[1]) >= 50:
            found.append(small)
    return found


# ----- workloads ---------------------------------------------------------


def closure_big(seed: int) -> list[Case]:
    rng = random.Random(seed)
    langs = {f"rand{len(d[1])}": d for d in big_dfas()}
    langs.update({f"mod{n}": _mod_counter(n) for n in (3, 6, 10, 20)})
    langs.update(HELPER_LANGUAGES)
    cases = []
    for name, dfa in langs.items():
        text = dfa_json(relabel(dfa, rng))
        for k in (1, 2, 3):
            cases.append(Case(
                id=f"{name}-k{k}", kind="closure",
                argv=["lang", "closure", "--dfa", "{in}", "--k", str(k)],
                inputs={"in": text}, check={"dfa": dfa, "k": k}, pinned=True,
            ))
    return cases


def decompose_corpus(seed: int) -> list[Case]:
    source = random.Random(DECOMPOSE_SEED)
    rng = random.Random(seed)
    cases = []
    for i in range(DECOMPOSE_CASES):
        dfa = random_dfa(source, 5, "ab")
        cases.append(Case(
            id=f"dfa{i}", kind="decompose",
            argv=["lang", "decompose", "--dfa", "{in}", *DECOMPOSE_ARGS],
            inputs={"in": dfa_json(relabel(dfa, rng))},
            check={"dfa": dfa, "max_k": 3}, pinned=True,
        ))
    return cases


def _chain(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _grid(side: int) -> list[tuple[int, int]]:
    covers = []
    for i in range(side):
        for j in range(side):
            x = i * side + j
            if i + 1 < side:
                covers.append((x, x + side))
            if j + 1 < side:
                covers.append((x, x + 1))
    return covers


def _sparse(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Two random covers from each element to one of the next 30."""
    covers = set()
    for i in range(n - 1):
        for _ in range(2):
            covers.add((i, rng.randint(i + 1, min(n - 1, i + 30))))
    return sorted(covers)


def poset_chains(seed: int) -> list[Case]:
    rng = random.Random(seed)
    posets = [(f"chain{n}", n, _chain(n), True) for n in (200, 400, 800, 1200)]
    posets.append(("grid20x20", 400, _grid(20), True))
    posets.append(("sparse300", 300, _sparse(rng, 300), False))
    cases = []
    for name, n, covers, fixed in posets:
        text = json.dumps({"n": n, "covers": [list(c) for c in covers]})
        member_sets = [
            ("every2nd", list(range(0, n, 2)), fixed),
            ("half", sorted(rng.sample(range(n), n // 2)), False),
        ]
        for label, members, pinned in member_sets:
            cases.append(Case(
                id=f"{name}-{label}", kind="poset",
                argv=["poset", "chain", "--poset", "{in}",
                      "--set", ",".join(map(str, members))],
                inputs={"in": text},
                check={"n": n, "covers": covers, "members": members},
                pinned=pinned,
            ))
    return cases


def verify(seed: int) -> list[Case]:
    """Fixed ``verify --seed`` values, in an order drawn from the seed.  The
    oracle's caches are unbounded, so every order does the same work and
    makes the same number of cache hits."""
    source = random.Random(VERIFY_SEED)
    cases = []
    for r in range(VERIFY_ROUNDS):
        for suite in ("closure", "images", "adjunction"):
            cases.append(Case(
                id=f"{suite}-{r}", kind="verify",
                argv=["verify", "--suite", suite, "--cases", str(VERIFY_CASES),
                      "--max-len", str(VERIFY_MAX_LEN),
                      "--seed", str(source.randrange(1 << 31))],
            ))
    cases.append(Case(
        id="poset-chains", kind="verify",
        argv=["verify", "--suite", "poset-chains", "--max-len", "5"],
    ))
    random.Random(seed).shuffle(cases)
    return cases


BUILDERS = {
    "closure-big": closure_big,
    "decompose-corpus": decompose_corpus,
    "poset-chains": poset_chains,
    "verify": verify,
}


def build(workload: str, seed: int, workdir: Path) -> list[Case]:
    """Generate the cases and write their input files under ``workdir``."""
    cases = BUILDERS[workload](seed)
    for i, case in enumerate(cases):
        paths = {}
        for name, text in case.inputs.items():
            path = workdir / f"{i:03d}-{name}.json"
            path.write_text(text, encoding="utf-8")
            paths[name] = str(path)
        case.argv = [paths.get(a[1:-1], a) if a.startswith("{") else a
                     for a in case.argv]
    return cases
