from __future__ import annotations

import ast
import re
from pathlib import Path

import splitread

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use() -> tuple[str, str]:
    """README's *Library use* section and the Python block in it."""
    text = README.read_text("utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return section, block


def test_every_exported_name_resolves():
    missing = [name for name in splitread.__all__ if not hasattr(splitread, name)]
    assert missing == []
    assert len(set(splitread.__all__)) == len(splitread.__all__)
    # README's 13 library names and the seven error and warning types.
    assert len(splitread.__all__) == 20


def test_star_import():
    namespace: dict = {}
    exec("from splitread import *", namespace)
    assert set(splitread.__all__) <= set(namespace)


def test_exports_match_readme_library_use():
    section, block = _library_use()
    imported = {
        alias.name
        for node in ast.parse(block).body
        if isinstance(node, ast.ImportFrom) and node.module == "splitread"
        for alias in node.names
    }
    assert imported <= set(splitread.__all__)
    unnamed = [n for n in splitread.__all__ if not re.search(rf"\b{n}\b", section)]
    assert unnamed == []


def test_readme_library_use_values():
    _, block = _library_use()
    lines = block.splitlines()
    statements = ast.parse(block).body
    namespace: dict = {}
    for statement in statements[:2]:  # the import and the tree
        exec(ast.get_source_segment(block, statement), namespace)
    for statement, value in zip(statements[2:4], ("0.666", "1.166")):
        assert lines[statement.lineno - 1].endswith(f"# {value}...")
        result = eval(ast.get_source_segment(block, statement), namespace)
        assert repr(result).startswith(value)
