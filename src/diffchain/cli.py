"""Command-line interface.

One binary with verb subcommands; JSON in, JSON out.  Exit codes: 0 for
success or a true verdict, 1 for a false verdict or an exhausted search, 2
for input errors.  The DIFFCHAIN_STATE_CAP environment variable overrides
the intermediate-automaton state guard.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from functools import cache
from pathlib import Path
from typing import Iterable, Iterator

from . import automata, chains, closure, oracle
from .errors import DiffChainError
from .poset import bits, poset_from_json, poset_to_dot

DEFAULT_SEED = 271828
# verify's longest words: the checks enumerate every word up to --max-len,
# and each extra letter doubles their time
MAX_VERIFY_LEN = 12

_INDEX = re.compile("-?[0-9]+")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DiffChainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` returns a fresh
    namespace each call and keeps no state of its own."""
    parser = argparse.ArgumentParser(
        prog="diffchain",
        description="Difference chains over finite posets and closures of regular languages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    poset_cmd = sub.add_parser("poset", help="poset-side operations")
    poset_sub = poset_cmd.add_subparsers(dest="subcommand", required=True)
    chain_cmd = poset_sub.add_parser(
        "chain", help="canonical difference chain of a subset"
    )
    chain_cmd.add_argument("--poset", required=True, help="poset JSON file")
    chain_cmd.add_argument(
        "--set", required=True, dest="members",
        help="comma-separated element indices (empty string for the empty set)",
    )
    chain_cmd.add_argument("--out", help="write JSON here instead of stdout")
    chain_cmd.add_argument(
        "--dot", action="store_true",
        help="also write a DOT rendering next to --out",
    )
    chain_cmd.set_defaults(handler=_cmd_poset_chain)

    lang_cmd = sub.add_parser("lang", help="language-side operations")
    lang_sub = lang_cmd.add_subparsers(dest="subcommand", required=True)

    closure_cmd = lang_sub.add_parser(
        "closure", help="closure under k-variable universal sentences"
    )
    closure_cmd.add_argument("--dfa", required=True, help="automaton JSON file")
    closure_cmd.add_argument("--k", type=int, required=True, help="number of variables")
    closure_cmd.add_argument("--out", help="write JSON here instead of stdout")
    closure_cmd.add_argument(
        "--dot", action="store_true",
        help="also write a DOT rendering next to --out",
    )
    closure_cmd.set_defaults(handler=_cmd_lang_closure)

    decompose_cmd = lang_sub.add_parser(
        "decompose", help="search for a difference chain of closures"
    )
    decompose_cmd.add_argument("--dfa", required=True, help="automaton JSON file")
    decompose_cmd.add_argument("--max-k", type=int, default=closure.DEFAULT_K_CAP)
    decompose_cmd.add_argument("--max-m", type=int, default=closure.DEFAULT_MAX_M)
    decompose_cmd.add_argument("--out", help="write JSON here instead of stdout")
    decompose_cmd.set_defaults(handler=_cmd_lang_decompose)

    eq_cmd = lang_sub.add_parser("eq", help="language equivalence of two automata")
    eq_cmd.add_argument(
        "--dfa", action="append", required=True,
        help="automaton JSON file (give exactly twice)",
    )
    eq_cmd.set_defaults(handler=_cmd_lang_eq)

    verify_cmd = sub.add_parser(
        "verify", help="cross-check the algorithms against brute-force oracles"
    )
    verify_cmd.add_argument(
        "--suite", required=True,
        choices=[*_SUITES, "all"],
    )
    verify_cmd.add_argument(
        "--max-len", type=int, default=6,
        help="word length bound (poset-chains: carrier size bound, capped at 5)",
    )
    verify_cmd.add_argument("--cases", type=int, default=10, help="random cases per suite")
    verify_cmd.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify_cmd.set_defaults(handler=_cmd_verify)

    return parser


def _state_cap() -> int:
    raw = os.environ.get("DIFFCHAIN_STATE_CAP")
    if raw is None:
        return automata.DEFAULT_STATE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"DIFFCHAIN_STATE_CAP must be a positive integer, got {raw!r}")
    return cap


def _emit(lines: Iterable[str], out: str | None, dot_text: str | None, want_dot: bool) -> None:
    """Write ``lines`` one by one to ``out`` (stdout when None)."""
    if want_dot and out is None:
        raise ValueError("--dot needs --out to know where to write")
    if want_dot and Path(out).suffix == ".dot":
        raise ValueError(f"--dot would overwrite --out {out}; give --out another suffix")
    if out is None:
        for line in lines:
            sys.stdout.write(line + "\n")
        return
    with open(out, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    if want_dot and dot_text is not None:
        Path(out).with_suffix(".dot").write_text(dot_text, encoding="utf-8")


def _parse_members(raw: str) -> list[int]:
    """Comma-separated element indices, each an optional minus sign and
    ASCII digits, so ``1_0``, ``+1`` and other digit scripts are refused."""
    if not isinstance(raw, str):
        # argparse (up to Python 3.11 at least) drops the value of --set=--
        # as an end-of-options marker and hands on an empty list instead
        raw = "--"
    raw = raw.strip()
    if not raw:
        return []
    parts = raw.split(",")
    if not all(_INDEX.fullmatch(part.strip()) for part in parts):
        raise ValueError(f"cannot parse element list {raw!r}")
    return [int(part) for part in parts]


# ----- handlers ----------------------------------------------------------


def _cmd_poset_chain(args) -> int:
    poset, labels = poset_from_json(Path(args.poset).read_text(encoding="utf-8"))
    members = frozenset(_parse_members(args.members))
    degs = chains.degrees(poset, members)
    # component i of the canonical chain holds the elements of degree >= i,
    # so its nested difference holds exactly those of odd degree
    ok = sum(d & 1 for d in degs) == len(members) and all(degs[x] & 1 for x in members)
    dot = poset_to_dot(poset, labels) if args.dot else None
    _emit(_chain_lines(members, degs), args.out, dot, args.dot)
    return 0 if ok else 1


def _chain_lines(members, degs):
    """The chain report as JSON, one top-level key per line and one chain
    component per line, so no part needs the pure-Python indenting encoder.
    The components' text comes from ``_component_texts``, not from
    ``json.dumps``."""
    top = max(degs, default=0)
    count = top + top % 2  # an odd top pads one empty component
    yield "{"
    yield f'  "V": {json.dumps(sorted(members))},'
    yield f'  "m": {count // 2},'
    yield '  "K": ['
    for i, text in enumerate(_component_texts(degs, top), 1):
        yield f"    {text}{',' if i < count else ''}"
    yield "  ],"
    yield f'  "degrees": {json.dumps(degs)}'
    yield "}"


def _component_texts(degs, top: int) -> Iterator[str]:
    """The sorted members of each component of the canonical chain as JSON
    text, outermost first: component i holds the elements of degree >= i,
    and an odd ``top`` pads one empty component.

    On a tall poset the report is quadratic in size (a 1200-element chain
    with every second element chosen has 1200 nested components), so each
    text costs time in its own length only, and no text is kept past the
    next one.  When the elements of degree i - 1 all come before those of
    degree >= i, as on a chain numbered upward, component i's text is a
    suffix of the last built text, starting past the width of the elements
    dropped since.  Otherwise it is built again from the last built list,
    keeping the elements of degree >= i."""
    if not top:
        return
    kept = [x for x, d in enumerate(degs) if d]
    names = list(map(str, range(kept[-1] + 1)))
    least = [len(degs)] * (top + 1)  # least element of each degree, then of degree >= d
    last = [0] * (top + 1)  # greatest element of each degree
    width = [0] * (top + 1)  # text width of each degree's elements, with their ", "
    for x in kept:
        d = degs[x]
        if least[d] > x:
            least[d] = x
        last[d] = x
        width[d] += len(names[x]) + 2
    for d in range(top - 1, 0, -1):
        least[d] = min(least[d], least[d + 1])
    text = f"[{', '.join([names[x] for x in kept])}]"
    start = 1
    yield text
    for i in range(2, top + 1):
        if last[i - 1] < least[i]:
            start += width[i - 1]
            yield "[" + text[start:]
        else:
            kept = [x for x in kept if degs[x] >= i]
            text = f"[{', '.join([names[x] for x in kept])}]"
            start = 1
            yield text
    if top % 2:
        yield "[]"


def _cmd_lang_closure(args) -> int:
    dfa = automata.dfa_from_json(Path(args.dfa).read_text(encoding="utf-8"))
    closed = closure.pi1_closure(dfa, args.k, state_cap=_state_cap())
    dot = automata.dfa_to_dot(closed) if args.dot else None
    _emit([automata.dfa_to_json(closed)], args.out, dot, args.dot)
    return 0


def _cmd_lang_decompose(args) -> int:
    dfa = automata.dfa_from_json(Path(args.dfa).read_text(encoding="utf-8"))
    trace = closure.decompose_bpi1(
        dfa, max_k=args.max_k, max_m=args.max_m, state_cap=_state_cap()
    )
    _emit([closure.trace_to_json(trace)], args.out, None, False)
    return 0 if trace.succeeded else 1


def _cmd_lang_eq(args) -> int:
    if len(args.dfa) != 2:
        raise ValueError("give --dfa exactly twice")
    first = automata.dfa_from_json(Path(args.dfa[0]).read_text(encoding="utf-8"))
    second = automata.dfa_from_json(Path(args.dfa[1]).read_text(encoding="utf-8"))
    same = automata.equivalent(first, second)
    print("equivalent" if same else "different")
    return 0 if same else 1


def _cmd_verify(args) -> int:
    for flag, value in (("--max-len", args.max_len), ("--cases", args.cases)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1")
    if args.max_len > MAX_VERIFY_LEN:
        raise ValueError(f"--max-len must be at most {MAX_VERIFY_LEN}")
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in suites:
        good, detail = _SUITES[name](args)
        line = "ok" if good else "MISMATCH"
        print(f"suite {name}: {detail} ... {line}")
        ok = ok and good
    return 0 if ok else 1


def _suite_poset_chains(args) -> tuple[bool, str]:
    size = min(args.max_len, 5)
    checked = 0
    for poset in oracle.all_posets_upto(size):
        sequences = oracle.increasing_sequences(poset)
        for chosen in range(1 << poset.n):
            members = frozenset(bits(chosen))
            chain = chains.canonical_chain(poset, members)
            if chains.evaluate(chain) != members:
                return False, f"reconstruction fails on n={poset.n} bits={chosen}"
            degs = chains.degrees(poset, members)
            want = oracle.sequence_degrees(sequences, poset.n, chosen)
            for x in range(poset.n):
                if degs[x] != want[x]:
                    return False, f"degree mismatch on n={poset.n} bits={chosen} x={x}"
            checked += 1
    return True, f"{checked} poset/subset pairs, sizes 1..{size}"


def _suite_closure(args) -> tuple[bool, str]:
    rng = random.Random(args.seed)
    cap = _state_cap()
    for case in range(args.cases):
        dfa = oracle.random_dfa(rng, 3, ("a", "b"))
        for k in (1, 2):
            closed = closure.pi1_closure(dfa, k, state_cap=cap)
            for n in range(1, args.max_len + 1):
                word = oracle.slice_difference(
                    oracle.accepted_slice(closed, n),
                    oracle.closure_slice(dfa, k, n),
                    dfa.alphabet, n,
                )
                if word is not None:
                    return False, f"case {case} k={k} word={''.join(word)}"
    return True, f"{args.cases} automata, k in {{1,2}}, words <= {args.max_len}"


def _suite_images(args) -> tuple[bool, str]:
    rng = random.Random(args.seed)
    cap = _state_cap()
    for case in range(args.cases):
        dfa = oracle.random_dfa(rng, 3, ("a", "b", "c"))
        hom = oracle.LpHom(
            ("a", "b", "c"), ("d", "e"),
            {a: rng.choice(("d", "e")) for a in ("a", "b", "c")},
        )
        left = oracle.forward_lp_image(dfa, hom, cap)
        right = oracle.monoid_forward_image(dfa, hom, cap)
        same, word = oracle.lang_eq_upto(left, right, args.max_len)
        if not same:
            return False, f"case {case} word={''.join(word)}"
    return True, f"{args.cases} homomorphism images, words <= {args.max_len}"


def _suite_adjunction(args) -> tuple[bool, str]:
    rng = random.Random(args.seed)
    cap = _state_cap()
    vs = oracle.variables(1)
    marked = oracle.marked_alphabet(("a", "b"), vs)
    nonempty = automata.dfa_nonempty_words(("a", "b"))
    for case in range(args.cases):
        lang = automata.minimize(
            automata.intersect(oracle.random_dfa(rng, 3, ("a", "b")), nonempty)
        )
        upper = oracle.random_dfa(rng, 3, marked)
        left = automata.subset_of(oracle.tensor(lang, vs), upper)
        right = automata.subset_of(
            lang, oracle.forall_adjoint(upper, vs, ("a", "b"), cap)
        )
        if left != right:
            return False, f"case {case}: adjunction sides disagree"
    return True, f"{args.cases} language/constraint pairs"


_SUITES = {
    "poset-chains": _suite_poset_chains,
    "closure": _suite_closure,
    "images": _suite_images,
    "adjunction": _suite_adjunction,
}


if __name__ == "__main__":
    sys.exit(main())
