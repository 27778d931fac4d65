"""The package's public surface and what it imports: every exported name
exists once, README's module table is the package's, and the library needs
only the standard library."""

from __future__ import annotations

import re
import sys
from collections import Counter
from pathlib import Path

import diffchain

from test_oracle import imported_modules

PACKAGE = Path(diffchain.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


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
