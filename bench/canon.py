"""Canonical minimal automata, written independently of the library.

A DFA is (alphabet, delta, start, accepting) over string letters.  Two DFAs
accept the same language exactly when ``key`` gives the same string, so the
benchmark compares outputs with the pinned ones by language, whatever state
numbering the program chose.
"""

from __future__ import annotations

import json


def minimal(dfa: tuple) -> tuple:
    """Minimal DFA of the same language: reachable part, Moore refinement,
    then breadth-first numbering with letters in sorted order."""
    alphabet, delta, start, accepting = dfa
    letters = sorted(alphabet)
    cols = [list(alphabet).index(a) for a in letters]
    accepting = set(accepting)
    seen, stack = {start}, [start]
    while stack:
        q = stack.pop()
        for c in cols:
            t = delta[q][c]
            if t not in seen:
                seen.add(t)
                stack.append(t)
    block = {q: int(q in accepting) for q in seen}
    count = len(set(block.values()))
    while True:
        ids: dict[tuple, int] = {}
        block = {
            q: ids.setdefault(
                (block[q], tuple(block[delta[q][c]] for c in cols)), len(ids))
            for q in seen
        }
        if len(ids) == count:
            break
        count = len(ids)
    rep = {}
    for q in seen:
        rep.setdefault(block[q], q)
    number = {block[start]: 0}
    order = [block[start]]
    rows = []
    for b in order:
        row = []
        for c in cols:
            t = block[delta[rep[b]][c]]
            if t not in number:
                number[t] = len(order)
                order.append(t)
            row.append(number[t])
        rows.append(row)
    final = sorted(number[b] for b in order if rep[b] in accepting)
    return tuple(letters), rows, 0, final


def key(dfa: tuple) -> str:
    return json.dumps(minimal(dfa), separators=(",", ":"))


def from_json(obj: dict) -> tuple:
    """The library's automaton JSON as a plain tuple."""
    return tuple(obj["alphabet"]), obj["delta"], obj["start"], obj["accepting"]


def accepts(dfa: tuple, word) -> bool:
    alphabet, delta, start, accepting = dfa
    index = {a: i for i, a in enumerate(alphabet)}
    q = start
    for a in word:
        q = delta[q][index[a]]
    return q in accepting
