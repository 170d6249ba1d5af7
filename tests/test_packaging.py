"""The package declares what it imports: every third-party top-level
module imported anywhere under ``src/repro`` is named in
``pyproject.toml``'s ``[project] dependencies``, so a clean install can
run every entry point."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_modules() -> dict[str, set[str]]:
    """Top-level module name -> the source files importing it."""
    found: dict[str, set[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(
                    str(path.relative_to(ROOT))
                )
    return found


def declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    # a requirement's name ends at its first version, extra or marker character
    return {
        re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower()
        for requirement in project.get("dependencies", ())
    }


def test_every_third_party_import_is_declared():
    third_party = {
        name: files
        for name, files in imported_top_level_modules().items()
        if name not in sys.stdlib_module_names and name not in ("repro", "__future__")
    }
    assert third_party, "the walk found no third-party import at all"
    undeclared = {
        name: sorted(files)
        for name, files in third_party.items()
        if name.lower() not in declared_dependencies()
    }
    assert undeclared == {}
