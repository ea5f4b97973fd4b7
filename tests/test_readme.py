"""README's ``python`` snippets import names that exist.

The blocks are parsed, never run: each ``from X import Y`` must name a
module ``X`` that imports and an attribute (or submodule) ``Y`` of it, so
a rename or deletion that strands a snippet fails here rather than in a
reader's session."""

import ast
import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(
    r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S
)


IMPORTS = [
    (node.module, alias.name)
    for block in BLOCKS
    for node in ast.walk(ast.parse(block))
    if isinstance(node, ast.ImportFrom)
    for alias in node.names
]


def test_readme_has_python_imports():
    assert BLOCKS and IMPORTS


@pytest.mark.parametrize(
    "module, name", IMPORTS, ids=[f"{m}.{n}" for m, n in IMPORTS]
)
def test_readme_import_resolves(module, name):
    mod = importlib.import_module(module)
    if not hasattr(mod, name):
        importlib.import_module(f"{module}.{name}")  # a submodule
