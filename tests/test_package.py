"""The package's public surface and what it imports: every exported name
exists once, README's module table is the package's, the library needs only
the standard library, everything the benchmark calls exists, and the
oracle's caches start empty, as the benchmark requires."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import diffchain
from diffchain import cli, oracle

from test_oracle import imported_modules

PACKAGE = Path(diffchain.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"
BENCH = README.parent / "bench"


def test_every_public_name_resolves_once():
    repeated = [name for name, count in Counter(diffchain.__all__).items() if count > 1]
    assert not repeated
    missing = [name for name in diffchain.__all__ if not hasattr(diffchain, name)]
    assert not missing


def test_readme_layout_lists_every_module():
    section = README.read_text(encoding="utf-8").split("## Layout", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    listed = re.findall(r"^  (\S+\.py) ", block, re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == {path.name for path in PACKAGE.glob("*.py")}


def test_the_package_imports_only_the_standard_library():
    for path in sorted(PACKAGE.glob("*.py")):
        for module in imported_modules(path):
            top = module.split(".", 1)[0]
            assert top == "diffchain" or top in sys.stdlib_module_names, (path.name, module)


# The benchmark changes on its own schedule, so a library change must keep
# what it calls: the oracle functions its checker reads, and the verify
# suites its corpus runs.


def test_every_oracle_name_the_bench_checker_reads_exists():
    tree = ast.parse((BENCH / "check.py").read_text(encoding="utf-8"))
    read = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "oracle"
    }
    assert read  # the scan finds the checker's calls
    assert {name for name in read if not hasattr(oracle, name)} == set()


def test_every_verify_suite_the_bench_runs_exists():
    tree = ast.parse((BENCH / "corpus.py").read_text(encoding="utf-8"))
    # a suite is a literal, or a loop variable over a tuple of literals
    loops = {
        node.target.id: node.iter for node in ast.walk(tree)
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
    }
    suites = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.List):
            for flag, value in zip(node.elts, node.elts[1:]):
                if isinstance(flag, ast.Constant) and flag.value == "--suite":
                    if isinstance(value, ast.Name):
                        value = loops[value.id]
                    found = ast.literal_eval(value)
                    suites.update([found] if isinstance(found, str) else found)
    assert suites  # the scan finds the corpus's verify cases
    assert suites - set(cli._SUITES) == set()


def test_the_oracle_caches_start_empty():
    # the benchmark times a pass only when warm_caches finds every library
    # cache empty; it reads each cache's cache_info, so it must see the
    # oracle's memos of the marked constructions empty after the import,
    # and filled after one call
    code = (
        "import sys\n"
        "import diffchain.cli\n"
        "from diffchain import oracle\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "from one_pass import warm_caches\n"
        "cold = warm_caches()\n"
        "oracle.projection_hom(('a', 'b'), ('x1',))\n"
        "warm = warm_caches()\n"
        "print(cold, warm)\n"
        "sys.exit(0 if cold == [] and 'diffchain.oracle._projection_hom' in warm else 1)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
