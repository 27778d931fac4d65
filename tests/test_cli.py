"""End-to-end runs of the command line entry point."""

from __future__ import annotations

import contextlib
import io
import json
import random
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from diffchain import (
    FinPoset,
    dfa_from_json,
    dfa_nonempty_words,
    dfa_to_json,
    equivalent,
    poset_to_json,
)
from diffchain import automata, chains, cli, closure, oracle
from diffchain.cli import main

from helpers import AB, a_plus_or_b_plus, contains


@pytest.fixture()
def chain_poset_file(tmp_path):
    poset = FinPoset.from_covers([(0, 1), (1, 2)], 3)
    path = tmp_path / "poset.json"
    path.write_text(poset_to_json(poset), encoding="utf-8")
    return path


def dfa_file(tmp_path, name, dfa):
    path = tmp_path / name
    path.write_text(dfa_to_json(dfa), encoding="utf-8")
    return path


# A JSON value nested 100 000 lists deep: ``json.loads`` hits the recursion
# limit on it.  Documents carry this marker and get the raw text spliced in.
_DEEP = "@deep@"
_DEEP_TEXT = "[" * 100_000 + "]" * 100_000


def _doc_text(doc) -> str:
    return json.dumps(doc).replace(json.dumps(_DEEP), _DEEP_TEXT)


# ----- poset chain -------------------------------------------------------


def test_poset_chain_output(chain_poset_file, capsys):
    code = main(["poset", "chain", "--poset", str(chain_poset_file), "--set", "0,2"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["V"] == [0, 2]
    assert obj["m"] == 2
    assert obj["K"] == [[0, 1, 2], [1, 2], [2], []]
    assert obj["degrees"] == [1, 2, 3]


def test_poset_chain_computes_the_degrees_once(chain_poset_file, monkeypatch, capsys):
    # the canonical chain computes the degrees; the report reads them off
    # the chain's components
    real = chains.degrees
    calls = []
    monkeypatch.setattr(chains, "degrees", lambda p, m: calls.append(m) or real(p, m))
    assert main(["poset", "chain", "--poset", str(chain_poset_file), "--set", "0,2"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["degrees"] == [1, 2, 3]


def test_poset_chain_builds_no_mask(tmp_path, monkeypatch, capsys):
    # the report reads only the linear extension and the lower edges: a
    # 3x3 grid given with a transitive edge keeps n, order and lower alone
    covers = [[3 * r + c, 3 * r + c + 1] for r in range(3) for c in range(2)]
    covers += [[3 * r + c, 3 * r + c + 3] for r in range(2) for c in range(3)]
    path = poset_doc_file(tmp_path, {"n": 9, "covers": covers + [[0, 8]]})
    read = []
    real = cli.poset_from_json
    monkeypatch.setattr(cli, "poset_from_json", lambda text: read.append(real(text)) or read[-1])
    assert main(["poset", "chain", "--poset", str(path), "--set", "0,4,8"]) == 0
    assert json.loads(capsys.readouterr().out)["degrees"] == [1, 2, 2, 2, 3, 4, 2, 4, 5]
    (p, _), = read
    chains.degrees(p, {0, 4, 8})
    assert sorted(vars(p)) == ["lower", "n", "order"]


def test_chain_components_give_every_degree():
    # every subset of every poset on at most 4 points, then random subsets
    # of a 60-chain and of random orders on 12 points (edges i -> j, i < j):
    # each element lies in as many of the report's components as its degree
    cases = [(p, chosen) for p in oracle.all_posets_upto(4) for chosen in range(1 << p.n)]
    rng = random.Random(1702)
    posets = [FinPoset.from_covers([(i, i + 1) for i in range(59)], 60)]
    for _ in range(20):
        edges = [(i, j) for i in range(12) for j in range(i + 1, 12) if rng.random() < 0.2]
        posets.append(FinPoset.from_covers(edges, 12))
    cases += [(p, rng.getrandbits(p.n)) for p in posets for _ in range(30)]
    for poset, chosen in cases:
        members = frozenset(i for i in range(poset.n) if chosen >> i & 1)
        degs = chains.degrees(poset, members)
        counts = [0] * poset.n
        for text in cli._component_texts(degs, max(degs, default=0)):
            for x in json.loads(text):
                counts[x] += 1
        assert counts == list(degs), (poset, chosen)


def _component_text_cases():
    """(poset, members) pairs: every subset of every poset on at most 4
    points, random posets on up to 40 points with shuffled numbering, and
    chains of 50 and 51 points numbered upward and downward."""
    cases = [
        (p, frozenset(i for i in range(p.n) if chosen >> i & 1))
        for p in oracle.all_posets_upto(4) for chosen in range(1 << p.n)
    ]
    rng = random.Random(1907)
    for _ in range(200):
        n = rng.randint(1, 40)
        perm = rng.sample(range(n), n)
        edges = [
            (perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.15
        ]
        poset = FinPoset.from_covers(edges, n)
        cases.append((poset, frozenset(x for x in range(n) if rng.random() < 0.5)))
    for n in (50, 51):
        for down in (False, True):
            covers = [(i + 1, i) if down else (i, i + 1) for i in range(n - 1)]
            poset = FinPoset.from_covers(covers, n)
            cases += [
                (poset, frozenset(range(0, n, 2))),
                (poset, frozenset(range(1, n, 3))),
                (poset, frozenset(rng.sample(range(n), n // 2))),
            ]
    return cases


def test_chain_component_text_matches_the_json_encoder():
    # a component's text is cut from the last built one or built again; it
    # must read exactly as json.dumps writes the sorted component.  The cases
    # put new elements before, after and between the inner ones
    seen = set()
    for poset, members in _component_text_cases():
        chain = chains.canonical_chain(poset, members)
        degs = chains.degrees(poset, members)
        comps = list(cli._component_texts(degs, max(degs, default=0)))
        assert comps == [json.dumps(sorted(s)) for s in chain.sets], (poset, members)
        for outer, inner in zip(chain.masks, chain.masks[1:]):
            new = outer & ~inner
            if new and inner:
                seen.add(
                    "before" if new < inner & -inner
                    else "after" if inner < new & -new
                    else "between"
                )
    assert seen == {"before", "after", "between"}
    assert list(cli._component_texts((0, 0), 0)) == []


def test_poset_chain_encodes_no_component(tmp_path, monkeypatch, capsys):
    # json.dumps writes V and the degrees; the components' text never goes
    # through it, however many components there are
    n = 300
    path = poset_doc_file(tmp_path, {"n": n, "covers": [[i, i + 1] for i in range(n - 1)]})
    real = cli.json.dumps
    calls = []
    monkeypatch.setattr(cli.json, "dumps", lambda obj: calls.append(obj) or real(obj))
    for members, count in (("0", 2), (",".join(map(str, range(0, n, 2))), n)):
        calls.clear()
        assert main(["poset", "chain", "--poset", str(path), "--set", members]) == 0
        assert len(json.loads(capsys.readouterr().out)["K"]) == count
        assert len(calls) == 2


def test_poset_chain_empty_set(chain_poset_file, capsys):
    code = main(["poset", "chain", "--poset", str(chain_poset_file), "--set", ""])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"V": [], "m": 0, "K": [], "degrees": [0, 0, 0]}


def test_poset_chain_writes_files(chain_poset_file, tmp_path, capsys):
    out = tmp_path / "chain.json"
    code = main([
        "poset", "chain", "--poset", str(chain_poset_file),
        "--set", "1", "--out", str(out), "--dot",
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["K"] == [[1, 2], [2]]
    dot = (tmp_path / "chain.dot").read_text(encoding="utf-8")
    assert "digraph" in dot


def test_poset_chain_dot_needs_out(chain_poset_file, capsys):
    code = main(["poset", "chain", "--poset", str(chain_poset_file), "--set", "1", "--dot"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["poset", "lang"])
def test_dot_may_not_overwrite_the_json_result(chain_poset_file, tmp_path, capsys, verb):
    out = tmp_path / "result.dot"
    if verb == "poset":
        argv = ["poset", "chain", "--poset", str(chain_poset_file), "--set", "1"]
    else:
        path = dfa_file(tmp_path, "branches.json", a_plus_or_b_plus())
        argv = ["lang", "closure", "--dfa", str(path), "--k", "1"]
    assert main(argv + ["--out", str(out), "--dot"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_poset_chain_rejects_bad_inputs(chain_poset_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["poset", "chain", "--poset", str(bad), "--set", "0"]) == 2
    missing = tmp_path / "missing.json"
    assert main(["poset", "chain", "--poset", str(missing), "--set", "0"]) == 2
    assert main(["poset", "chain", "--poset", str(chain_poset_file), "--set", "0,x"]) == 2
    assert main(["poset", "chain", "--poset", str(chain_poset_file), "--set", "9"]) == 2
    assert capsys.readouterr().err.count("error:") == 4
    # only an optional minus and ASCII digits make an index
    for raw in ("1_0", "\u0662", "+1", " 0, 1_0"):
        assert main(["poset", "chain", "--poset", str(chain_poset_file), "--set", raw]) == 2
        assert "cannot parse element list" in capsys.readouterr().err
    assert main(["poset", "chain", "--poset", str(chain_poset_file), "--set", " 0 , -1 "]) == 2
    assert capsys.readouterr().err == "error: element -1 leaves the carrier 0..2\n"


def test_poset_chain_refuses_a_double_dash_set(chain_poset_file, capsys):
    # argparse hands --set=-- on as an empty list, not as the text "--"
    assert main(["poset", "chain", "--poset", str(chain_poset_file), "--set=--"]) == 2
    assert capsys.readouterr().err == "error: cannot parse element list '--'\n"


def test_poset_chain_output_puts_each_component_on_one_line(chain_poset_file, capsys):
    assert main(["poset", "chain", "--poset", str(chain_poset_file), "--set", "0,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "{",
        '  "V": [0, 2],',
        '  "m": 2,',
        '  "K": [',
        "    [0, 1, 2],",
        "    [1, 2],",
        "    [2],",
        "    []",
        "  ],",
        '  "degrees": [1, 2, 3]',
        "}",
    ]


def poset_doc_file(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(_doc_text(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 3, "covers": [[0, 1]], "labels": ["a", "b"]},
        {"n": True, "covers": []},
        {"n": 2, "covers": [[False, True]]},
        {"n": 2, "covers": _DEEP},
        # no list can have 10**20 entries: refused before anything is allocated
        {"n": 10**20, "covers": []},
    ],
    ids=["label-count", "bool-n", "bool-cover", "deep-covers", "huge-n"],
)
def test_poset_chain_rejects_malformed_posets(tmp_path, capsys, doc):
    path = poset_doc_file(tmp_path, doc)
    out = tmp_path / "chain.json"
    argv = ["poset", "chain", "--poset", str(path), "--set", "0"]
    assert main(argv + ["--out", str(out), "--dot"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert not out.exists()


def test_poset_chain_on_an_empty_carrier(tmp_path, capsys):
    path = poset_doc_file(tmp_path, {"n": 0, "covers": []})
    assert main(["poset", "chain", "--poset", str(path), "--set", ""]) == 0
    assert json.loads(capsys.readouterr().out) == {"V": [], "m": 0, "K": [], "degrees": []}
    assert main(["poset", "chain", "--poset", str(path), "--set", "0"]) == 2
    assert capsys.readouterr().err == "error: element 0 leaves the empty carrier\n"
    path = poset_doc_file(tmp_path, {"n": 0, "covers": [[0, 1]]})
    assert main(["poset", "chain", "--poset", str(path), "--set", ""]) == 2
    assert capsys.readouterr().err == "error: cover (0, 1) leaves the empty carrier\n"


def test_poset_chain_dot_builds_no_mask(tmp_path, monkeypatch, capsys):
    # the DOT rendering draws the Hasse relation of a poset given with a
    # transitive edge, found without the closure of the order
    path = poset_doc_file(tmp_path, {"n": 4, "covers": [[0, 1], [0, 2], [1, 3], [2, 3], [0, 3]]})
    read = []
    real = cli.poset_from_json
    monkeypatch.setattr(cli, "poset_from_json", lambda text: read.append(real(text)) or read[-1])
    out = tmp_path / "chain.json"
    assert main(["poset", "chain", "--poset", str(path), "--set", "1,2",
                 "--out", str(out), "--dot"]) == 0
    edges = [line for line in (tmp_path / "chain.dot").read_text().splitlines() if "->" in line]
    assert edges == ["  0 -> 1;", "  0 -> 2;", "  1 -> 3;", "  2 -> 3;"]
    (p, _), = read
    assert "upm" not in vars(p)


def test_poset_chain_on_a_3000_element_chain(tmp_path, capsys):
    n = 3000
    path = poset_doc_file(tmp_path, {"n": n, "covers": [[i, i + 1] for i in range(n - 1)]})
    assert main(["poset", "chain", "--poset", str(path), "--set", "0,1500"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["m"] == 2 and [k[0] for k in obj["K"]] == [0, 1, 1500, 1501]
    assert obj["degrees"][-1] == 4


_INDEX = st.one_of(st.integers(-2, 7), st.booleans(), st.just("1"), st.none())
_BAD_FIELDS = {
    "n": st.one_of(st.integers(-2, 8), st.booleans(), st.just(2.0), st.none()),
    "covers": st.one_of(
        st.lists(st.lists(_INDEX, max_size=3), max_size=4), st.just({"0": 1})
    ),
    "labels": st.lists(st.one_of(st.text(max_size=2), st.integers()), max_size=7),
}


@st.composite
def poset_documents(draw):
    """Mostly well-formed poset documents (cycles allowed), with up to two
    fields replaced by malformed values, sometimes a key missing, and
    sometimes the whole object wrapped in a list."""
    n = draw(st.integers(0, 6))
    index = st.integers(0, max(n - 1, 0))
    doc = {"n": n, "covers": draw(st.lists(st.lists(index, min_size=2, max_size=2), max_size=8))}
    if draw(st.booleans()):
        doc["labels"] = [str(i) for i in range(n)]
    for key in draw(st.sets(st.sampled_from(sorted(_BAD_FIELDS)), max_size=2)):
        doc[key] = draw(_BAD_FIELDS[key])
    drop = draw(st.sampled_from([None] * 8 + ["n", "covers"]))
    if drop:
        del doc[drop]
    return [doc] if draw(st.sampled_from([False] * 9 + [True])) else doc


_MEMBERS = st.one_of(
    st.lists(st.integers(-1, 7), max_size=5).map(lambda xs: ",".join(map(str, xs))),
    st.text(alphabet="0123456789,- x", max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(
    doc=poset_documents(),
    members=_MEMBERS,
    dot=st.booleans(),
)
def test_poset_chain_survives_fuzzed_documents(tmp_path_factory, doc, members, dot):
    work = tmp_path_factory.mktemp("fuzz")
    path = poset_doc_file(work, doc)
    out = work / "chain.json"
    argv = ["poset", "chain", "--poset", str(path), f"--set={members}"]
    if dot:
        argv += ["--out", str(out), "--dot"]
    with contextlib.redirect_stdout(io.StringIO()) as stdout, \
            contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = main(argv)
    # exit 1 would mean the canonical chain misses its target
    assert code in (0, 2)
    if code == 2:
        assert stderr.getvalue().startswith("error:")
        assert stderr.getvalue().count("\n") == 1
    else:
        obj = json.loads(out.read_text(encoding="utf-8") if dot else stdout.getvalue())
        assert len(obj["degrees"]) == doc["n"]


# ----- language commands -------------------------------------------------


def test_lang_closure_output(tmp_path, capsys):
    path = dfa_file(tmp_path, "branches.json", a_plus_or_b_plus())
    code = main(["lang", "closure", "--dfa", str(path), "--k", "1"])
    assert code == 0
    got = dfa_from_json(capsys.readouterr().out)
    assert equivalent(got, dfa_nonempty_words(AB))


def test_lang_closure_rejects_bad_k(tmp_path, capsys):
    path = dfa_file(tmp_path, "branches.json", a_plus_or_b_plus())
    assert main(["lang", "closure", "--dfa", str(path), "--k", "0"]) == 2
    assert main(["lang", "closure", "--dfa", str(path), "--k", "9"]) == 2
    assert capsys.readouterr().err.count("error:") == 2


def test_lang_decompose_success(tmp_path, capsys):
    path = dfa_file(tmp_path, "contains_b.json", contains("b"))
    code = main(["lang", "decompose", "--dfa", str(path)])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "success" and obj["k"] == 1 and obj["m"] == 1
    assert len(obj["chain"]) == 2 and len(obj["witness_diffs"]) == 1


def test_lang_decompose_exhaustion_exit_code(tmp_path, capsys):
    path = dfa_file(tmp_path, "branches.json", a_plus_or_b_plus())
    code = main(["lang", "decompose", "--dfa", str(path), "--max-k", "1"])
    assert code == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "exhausted" and "m" not in obj


@pytest.mark.parametrize("dfa", [contains("b"), a_plus_or_b_plus()], ids=["k1", "k2"])
def test_lang_decompose_names_a_max_k_above_the_variable_cap(tmp_path, capsys, dfa):
    # the target would decompose at a smaller k, but max_k itself is refused
    path = dfa_file(tmp_path, "lang.json", dfa)
    code = main(["lang", "decompose", "--dfa", str(path), "--max-k", "5"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: k=5 exceeds the variable cap 3\n"


def test_lang_eq(tmp_path, capsys):
    one = dfa_file(tmp_path, "one.json", a_plus_or_b_plus())
    two = dfa_file(tmp_path, "two.json", contains("b"))
    assert main(["lang", "eq", "--dfa", str(one), "--dfa", str(one)]) == 0
    assert capsys.readouterr().out.strip() == "equivalent"
    assert main(["lang", "eq", "--dfa", str(one), "--dfa", str(two)]) == 1
    assert capsys.readouterr().out.strip() == "different"
    assert main(["lang", "eq", "--dfa", str(one)]) == 2


def test_repeated_calls_share_one_parser_and_no_state(tmp_path, capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    one = dfa_file(tmp_path, "one.json", a_plus_or_b_plus())
    for _ in range(2):
        # a leaked --dfa list would make the second call see four files
        assert main(["lang", "eq", "--dfa", str(one), "--dfa", str(one)]) == 0
        assert capsys.readouterr().out.strip() == "equivalent"
    seen = []
    real = closure.decompose_bpi1

    def recording(d, max_k, max_m, state_cap):
        seen.append(max_m)
        return real(d, max_k=max_k, max_m=max_m, state_cap=state_cap)

    monkeypatch.setattr(closure, "decompose_bpi1", recording)
    path = dfa_file(tmp_path, "contains_b.json", contains("b"))
    main(["lang", "decompose", "--dfa", str(path), "--max-m", "1"])
    main(["lang", "decompose", "--dfa", str(path)])
    assert seen == [1, closure.DEFAULT_MAX_M]


def _malformed(**fields):
    doc = {"alphabet": ["a"], "states": 2, "start": 0, "accepting": [1], "delta": [[1], [0]]}
    doc.update(fields)
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        _malformed(delta=[5, [0]]),
        _malformed(delta=[[True], [0]]),
        _malformed(start=False),
        _malformed(accepting=[True]),
        _malformed(alphabet=5),
        _malformed(delta=_DEEP),
    ],
    ids=[
        "row-not-a-list", "bool-transition", "bool-start", "bool-accepting",
        "alphabet-not-a-list", "deep-delta",
    ],
)
def test_lang_closure_rejects_malformed_automata(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(_doc_text(doc), encoding="utf-8")
    assert main(["lang", "closure", "--dfa", str(path), "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "letter",
    [{"base": 1, "vars": []}, {"base": "a", "vars": [1]}],
    ids=["base-not-a-string", "variable-not-a-string"],
)
def test_lang_eq_rejects_malformed_marked_letters(tmp_path, capsys, letter):
    good = dfa_file(tmp_path, "good.json", a_plus_or_b_plus())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_malformed(alphabet=[letter])), encoding="utf-8")
    assert main(["lang", "eq", "--dfa", str(good), "--dfa", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed letter")
    assert captured.err.count("\n") == 1


_LETTER = st.one_of(
    st.sampled_from(["a", "b", "c"]),
    st.fixed_dictionaries({
        "base": st.sampled_from(["a", "eps"]),
        "vars": st.lists(st.sampled_from(["x1", "x2"]), max_size=2),
    }),
)
_BAD_DFA_FIELDS = {
    "alphabet": st.one_of(
        st.integers(), st.just("ab"), st.none(), st.just({"a": 0}), st.just(_DEEP),
        st.lists(st.one_of(_LETTER, st.integers(), st.booleans(), st.just({"base": "a"})),
                 max_size=3),
    ),
    "states": st.one_of(st.integers(-1, 4), st.booleans(), st.just(2.0), st.just("2")),
    "start": _INDEX,
    "accepting": st.one_of(st.lists(_INDEX, max_size=3), st.integers(), st.just(_DEEP)),
    "delta": st.one_of(
        st.lists(st.one_of(st.lists(_INDEX, max_size=3), _INDEX), max_size=4),
        st.just([[[0]], [0]]),
        st.just(_DEEP),
        st.just({"0": [0]}),
    ),
}


@st.composite
def dfa_documents(draw):
    """Mostly well-formed automaton documents over one or two plain or marked
    letters, with up to two fields replaced by malformed values (wrong types,
    bool indices, ragged or deep rows, a non-list alphabet), sometimes a key
    missing, and sometimes the whole object wrapped in a list."""
    alphabet = draw(st.lists(_LETTER, min_size=1, max_size=2, unique_by=json.dumps))
    n = draw(st.integers(1, 3))
    index = st.integers(0, n - 1)
    doc = {
        "alphabet": alphabet,
        "states": n,
        "start": draw(index),
        "accepting": draw(st.lists(index, max_size=n, unique=True)),
        "delta": [[draw(index) for _ in alphabet] for _ in range(n)],
    }
    for key in draw(st.sets(st.sampled_from(sorted(_BAD_DFA_FIELDS)), max_size=2)):
        doc[key] = draw(_BAD_DFA_FIELDS[key])
    drop = draw(st.sampled_from([None] * 8 + sorted(_BAD_DFA_FIELDS)))
    if drop:
        del doc[drop]
    return [doc] if draw(st.sampled_from([False] * 9 + [True])) else doc


@settings(max_examples=200, deadline=None)
@given(doc=dfa_documents(), decompose=st.booleans(), k=st.integers(1, 2))
def test_lang_commands_survive_fuzzed_documents(tmp_path_factory, doc, decompose, k):
    path = tmp_path_factory.mktemp("fuzz") / "dfa.json"
    path.write_text(_doc_text(doc), encoding="utf-8")
    if decompose:
        argv = ["lang", "decompose", "--dfa", str(path), "--max-k", str(k), "--max-m", "2"]
    else:
        argv = ["lang", "closure", "--dfa", str(path), "--k", str(k)]
    with contextlib.redirect_stdout(io.StringIO()) as stdout, \
            contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = main(argv)
    # exit 1 only for an exhausted decompose search
    assert code in ((0, 1, 2) if decompose else (0, 2))
    if code == 2:
        assert stdout.getvalue() == ""
        assert stderr.getvalue().startswith("error:")
        assert stderr.getvalue().count("\n") == 1
    else:
        obj = json.loads(stdout.getvalue())
        if not decompose:
            assert obj["alphabet"] == sorted(doc["alphabet"])


# ----- verify suites -----------------------------------------------------


def test_verify_all_suites(capsys):
    code = main(["verify", "--suite", "all", "--max-len", "3", "--cases", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("... ok") == 4
    for name in ("poset-chains", "closure", "images", "adjunction"):
        assert f"suite {name}:" in out


def test_verify_single_suite_respects_seed(capsys):
    code = main(["verify", "--suite", "closure", "--max-len", "2", "--cases", "1", "--seed", "5"])
    assert code == 0
    assert capsys.readouterr().out.count("... ok") == 1


@pytest.mark.parametrize(
    "suite, flag, value",
    [
        ("poset-chains", "--max-len", "-1"),
        ("poset-chains", "--max-len", "0"),
        ("closure", "--max-len", "0"),
        ("closure", "--max-len", "99"),
        ("closure", "--cases", "-3"),
        ("all", "--cases", "0"),
    ],
)
def test_verify_rejects_bounds_that_check_nothing(capsys, suite, flag, value):
    assert main(["verify", "--suite", suite, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error:") and flag in err and "\n" not in err


# The suites compare whole length slices; each must still report the first
# failure of the word-by-word (or element-by-element) check written out in
# these loops, in the same order.


def first_closure_failure(seed, cases, max_len):
    rng = random.Random(seed)
    for case in range(cases):
        dfa = oracle.random_dfa(rng, 3, AB)
        for k in (1, 2):
            closed = closure.pi1_closure(dfa, k, state_cap=automata.DEFAULT_STATE_CAP)
            for n in range(1, max_len + 1):
                members = oracle.closure_slice(dfa, k, n)
                for word, member in zip(product(AB, repeat=n), members):
                    if closed.accepts(word) != member:
                        return f"case {case} k={k} word={''.join(word)}"
    return None


def first_image_failure(seed, cases, max_len):
    rng = random.Random(seed)
    for case in range(cases):
        dfa = oracle.random_dfa(rng, 3, ("a", "b", "c"))
        hom = oracle.LpHom(
            ("a", "b", "c"), ("d", "e"),
            {a: rng.choice(("d", "e")) for a in ("a", "b", "c")},
        )
        left = oracle.forward_lp_image(dfa, hom)
        right = oracle.monoid_forward_image(dfa, hom)
        for word in oracle.words_upto(("d", "e"), max_len):
            if left.accepts(word) != right.accepts(word):
                return f"case {case} word={''.join(word)}"
    return None


def first_poset_failure(size):
    for poset in oracle.all_posets_upto(size):
        for chosen in range(1 << poset.n):
            members = frozenset(i for i in range(poset.n) if chosen >> i & 1)
            chain = cli.chains.canonical_chain(poset, members)
            if cli.chains.evaluate(chain) != members:
                return f"reconstruction fails on n={poset.n} bits={chosen}"
            degs = cli.chains.degrees(poset, members)
            for x in range(poset.n):
                if degs[x] != oracle.brute_degree(poset, members, x):
                    return f"degree mismatch on n={poset.n} bits={chosen} x={x}"
    return None


def assert_mismatch(capsys, argv, suite, detail):
    assert detail is not None
    assert main(argv) == 1
    assert capsys.readouterr().out == f"suite {suite}: {detail} ... MISMATCH\n"


@pytest.mark.parametrize("seed", [2, 7, 12])
@pytest.mark.parametrize("wrong", ["identity", "one variable"])
def test_verify_closure_names_the_first_wrong_word(monkeypatch, capsys, seed, wrong):
    # the language itself, or its closure with one variable at k = 2
    real = closure.pi1_closure
    monkeypatch.setattr(closure, "pi1_closure", {
        "identity": lambda d, k, state_cap: d,
        "one variable": lambda d, k, state_cap: real(d, 1, state_cap=state_cap),
    }[wrong])
    detail = first_closure_failure(seed, 5, 6)
    assert ("k=2" in detail) == (wrong == "one variable")
    assert_mismatch(capsys, ["verify", "--suite", "closure", "--max-len", "6",
                             "--cases", "5", "--seed", str(seed)], "closure", detail)


@pytest.mark.parametrize("seed", [7, 271828, 1607])
def test_verify_images_names_the_first_wrong_word(monkeypatch, capsys, seed):
    # the image along the hom with its two target letters swapped
    real = oracle.monoid_forward_image

    def swapped(d, h, state_cap=automata.DEFAULT_STATE_CAP):
        other = {"d": "e", "e": "d"}
        h = oracle.LpHom(h.source, h.target, {a: other[h.letter_image(a)] for a in h.source})
        return real(d, h, state_cap)

    monkeypatch.setattr(oracle, "monoid_forward_image", swapped)
    detail = first_image_failure(seed, 5, 6)
    assert_mismatch(capsys, ["verify", "--suite", "images", "--max-len", "6",
                             "--cases", "5", "--seed", str(seed)], "images", detail)


def test_verify_poset_chains_names_the_first_wrong_subset(monkeypatch, capsys):
    # off by one in the module, the canonical chain goes wrong with it
    real = chains.degrees
    monkeypatch.setattr(chains, "degrees", lambda p, m: tuple(d + 1 for d in real(p, m)))
    detail = first_poset_failure(3)
    assert detail.startswith("reconstruction fails")
    assert_mismatch(capsys, ["verify", "--suite", "poset-chains", "--max-len", "3"],
                    "poset-chains", detail)


def test_verify_poset_chains_names_the_first_wrong_degree(monkeypatch, capsys):
    # off by one where the suite reads the degrees, from degree 2 up
    real = chains.degrees
    monkeypatch.setattr(cli, "chains", SimpleNamespace(
        canonical_chain=chains.canonical_chain, evaluate=chains.evaluate,
        degrees=lambda p, m: tuple(d + (d >= 2) for d in real(p, m)),
    ))
    detail = first_poset_failure(4)
    assert detail.startswith("degree mismatch") and detail != "degree mismatch on n=1 bits=0 x=0"
    assert_mismatch(capsys, ["verify", "--suite", "poset-chains", "--max-len", "4"],
                    "poset-chains", detail)


# ----- environment guard -------------------------------------------------


def test_state_cap_env_is_honored(tmp_path, monkeypatch, capsys):
    path = dfa_file(tmp_path, "contains_a.json", contains("a"))
    monkeypatch.setenv("DIFFCHAIN_STATE_CAP", "2")
    assert main(["lang", "closure", "--dfa", str(path), "--k", "1"]) == 2
    assert "error:" in capsys.readouterr().err
    monkeypatch.setenv("DIFFCHAIN_STATE_CAP", "100000")
    assert main(["lang", "closure", "--dfa", str(path), "--k", "1"]) == 0
    adjunction = ["verify", "--suite", "adjunction", "--cases", "10"]
    monkeypatch.setenv("DIFFCHAIN_STATE_CAP", "8")
    assert main(adjunction) == 2
    assert capsys.readouterr().err == "error: subset construction passed 8 states\n"
    monkeypatch.setenv("DIFFCHAIN_STATE_CAP", "16")
    assert main(adjunction) == 0


def test_state_cap_env_must_be_a_positive_integer(tmp_path, monkeypatch, capsys):
    path = dfa_file(tmp_path, "contains_a.json", contains("a"))
    for raw in ("0", "-3", "many"):
        monkeypatch.setenv("DIFFCHAIN_STATE_CAP", raw)
        assert main(["lang", "closure", "--dfa", str(path), "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: DIFFCHAIN_STATE_CAP must be a positive integer, got {raw!r}\n"
        )


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
