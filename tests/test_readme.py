"""The README's library example runs and prints what its comments say, and
its ``poset chain`` report is what the command prints."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

from diffchain import FinPoset, poset_to_json
from diffchain.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_prints_its_comments():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == [
        "(frozenset({0, 1, 2}), frozenset({1, 2}), frozenset({2}), frozenset())",
        "2",
        "(1, 2, 3)",
        "1 1 success",
    ]


def _chain_report(tmp_path, capsys, members):
    path = tmp_path / "poset.json"
    path.write_text(poset_to_json(FinPoset.from_covers([(0, 1), (1, 2)], 3)), encoding="utf-8")
    assert main(["poset", "chain", "--poset", str(path), "--set", members]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def test_readme_poset_chain_report_is_the_cli_output_byte_for_byte(tmp_path, capsys):
    section = README.read_text(encoding="utf-8").split("`poset chain` prints", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert _chain_report(tmp_path, capsys, "0,2") == block


def test_empty_target_report_is_pinned(tmp_path, capsys):
    # no component lines: the "K" list opens and closes on lines of its own
    assert _chain_report(tmp_path, capsys, "") == (
        '{\n'
        '  "V": [],\n'
        '  "m": 0,\n'
        '  "K": [\n'
        '  ],\n'
        '  "degrees": [0, 0, 0]\n'
        '}\n'
    )
