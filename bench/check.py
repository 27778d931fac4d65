"""Outcome of each case, decided outside the timed region.

Every output is checked against ``diffchain.oracle`` (or, for ``verify``,
against its own report) and, where the input does not depend on the seed,
against the pinned canonical output in ``pins.json``.  A case is decided
when it ends in an answer (or ``exhausted`` for decompose) that passes its
checks; a capacity stop, exit 2, uncaught exception, guard timeout or
mismatch leaves it undecided.  Only a mismatch makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import product

import canon

DECIDED = ("answer", "exhausted")
# The wording of every CapacityError the library raises.
CAPACITY = re.compile(r"\bpassed \d+|\bcap\b|more than \d+")
# Word lengths for the brute-force closure check, by alphabet size.
CLOSURE_WORD_LEN = {2: 6, 3: 4}
DECOMPOSE_WORD_LEN = 8
# brute_degree enumerates every increasing sequence below x, so it is run
# only on elements with at most this many elements below them.
BRUTE_DEGREE_DOWN = 10


class Mismatch(Exception):
    pass


def words(alphabet, max_len):
    for n in range(1, max_len + 1):
        yield from product(alphabet, repeat=n)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def judge(case, code, out: str, err: str, failure: str | None, oracle, dfa_cls, poset_cls):
    """Return (outcome, pin digest or None, detail)."""
    if failure is not None:
        return failure, None, ""
    obj = None
    if case.kind != "verify" and out.strip():
        try:
            obj = json.loads(out)
        except json.JSONDecodeError:
            obj = None
    if isinstance(obj, dict) and obj.get("status") == "capacity":
        return "capacity", None, ""
    if code == 2:
        return ("capacity" if CAPACITY.search(err) else "exit2"), None, err.strip()
    try:
        if case.kind == "closure" and code == 0:
            return "answer", _closure(case, obj, oracle, dfa_cls), ""
        if case.kind == "decompose" and code in (0, 1):
            return _decompose(case, obj, code)
        if case.kind == "poset" and code in (0, 1):
            return "answer", _poset(case, obj, code, oracle, poset_cls), ""
        if case.kind == "verify" and code in (0, 1):
            _verify(out, code)
            return "answer", None, ""
    except (Mismatch, KeyError, TypeError, ValueError, IndexError) as exc:
        return "mismatch", None, f"{type(exc).__name__}: {exc}"
    return f"exit{code}", None, err.strip()


def _closure(case, obj, oracle, dfa_cls) -> str:
    got = canon.from_json(obj)
    alphabet, delta, start, accepting = case.check["dfa"]
    target = dfa_cls(alphabet, delta, start, accepting)
    k = case.check["k"]
    if sorted(got[0]) != sorted(alphabet):
        raise Mismatch("alphabet changed")
    for w in words(sorted(alphabet), CLOSURE_WORD_LEN[len(alphabet)]):
        if canon.accepts(got, w) != oracle.brute_pi1_closure_member(target, k, w):
            raise Mismatch(f"closure disagrees with the oracle on {''.join(w)}")
    return digest(canon.key(got))


def _decompose(case, obj, code):
    status = obj["status"]
    chain = [canon.from_json(c) for c in obj["chain"]]
    if (code, status) not in ((0, "success"), (1, "exhausted")):
        raise Mismatch(f"exit {code} with status {status!r}")
    if status == "success" and obj["m"] != len(chain) // 2:
        raise Mismatch("pair count does not match the chain")
    if status == "exhausted" and (obj["k"] != case.check["max_k"] or "m" in obj):
        raise Mismatch("exhausted trace is not at the largest k")
    target = case.check["dfa"]
    for w in words(target[0], DECOMPOSE_WORD_LEN):
        member = [canon.accepts(c, w) for c in chain]
        if any(b and not a for a, b in zip(member, member[1:])):
            raise Mismatch(f"chain does not decrease on {''.join(w)}")
        value = False
        for m in reversed(member):
            value = m and not value
        if status == "success" and value != canon.accepts(target, w):
            raise Mismatch(f"differences miss the target on {''.join(w)}")
    pin = digest([status, obj["k"], obj.get("m"), [canon.key(c) for c in chain]])
    return status if status == "exhausted" else "answer", pin, ""


def _poset(case, obj, code, oracle, poset_cls) -> str:
    n, covers = case.check["n"], case.check["covers"]
    members = frozenset(case.check["members"])
    comps = [frozenset(c) for c in obj["K"]]
    degs = obj["degrees"]
    if code != 0:
        raise Mismatch("the CLI reports that its chain misses the set")
    if obj["V"] != sorted(members) or len(degs) != n:
        raise Mismatch("echoed set or degree list is wrong")
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for i, j in covers:
        succ[i].append(j)
        pred[j].append(i)
    for i, comp in enumerate(comps):
        if any(y not in comp for x in comp for y in succ[x]):
            raise Mismatch(f"component {i + 1} is not an upset")
        if i and not comp <= comps[i - 1]:
            raise Mismatch(f"component {i + 1} is not below component {i}")
        if comp != {x for x in range(n) if degs[x] >= i + 1}:
            raise Mismatch(f"component {i + 1} is not a level set of the degrees")
    if oracle.nested_difference(comps) != members:
        raise Mismatch("nested difference does not rebuild the set")
    if obj["m"] != (len(comps) + 1) // 2:
        raise Mismatch("pair count does not match the chain")
    for x in range(n):
        down = _small_downset(pred, x)
        if down is None:
            continue
        index = {y: i for i, y in enumerate(down)}
        sub = poset_cls.from_covers(
            [(index[i], index[j]) for j in down for i in pred[j]], len(down))
        want = oracle.brute_degree(sub, [index[y] for y in down if y in members], index[x])
        if degs[x] != want:
            raise Mismatch(f"degree of {x} is {degs[x]}, brute force says {want}")
    return digest([obj["m"], obj["K"], degs])


def _small_downset(pred, x):
    seen, stack = {x}, [x]
    while stack:
        for y in pred[stack.pop()]:
            if y not in seen:
                if len(seen) > BRUTE_DEGREE_DOWN:
                    return None
                seen.add(y)
                stack.append(y)
    return sorted(seen)


def _verify(out: str, code: int) -> None:
    lines = [line for line in out.splitlines() if line.strip()]
    if code != 0 or not lines or not all(line.endswith("... ok") for line in lines):
        raise Mismatch("verify reports a mismatch: " + " | ".join(lines))
