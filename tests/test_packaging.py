"""The package declares what it imports.

Every module under ``src/repro`` is read with :mod:`ast`, and the top-level
name of every import that is neither standard library nor ``repro`` itself,
at module level or inside a function, must be a requirement of
``pyproject.toml``'s ``[project].dependencies``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

_ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports() -> dict[str, set[str]]:
    """Top-level imported name -> the modules importing it."""
    found: dict[str, set[str]] = {}
    for path in sorted((_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(str(path.relative_to(_ROOT)))
    return found


def _declared_dependencies() -> set[str]:
    with open(_ROOT / "pyproject.toml", "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", line).group(0) for line in requirements}


def test_every_third_party_import_is_a_declared_dependency():
    imports = _third_party_imports()
    assert {"numpy", "scipy", "networkx"} <= set(imports)
    declared = _declared_dependencies()
    missing = {name: sorted(where) for name, where in imports.items() if name not in declared}
    assert not missing, f"imported but not in [project].dependencies: {missing}"
