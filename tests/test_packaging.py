"""The package runs on the standard library alone: no module under
``src/repro`` imports outside it, ``pyproject.toml`` declares no
runtime dependency, and a fresh interpreter importing an entry point
loads no third-party module."""

import ast
import os
import subprocess
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


def test_src_imports_only_the_standard_library():
    found = imported_top_level_modules()
    assert {"array", "json"} <= set(found), "the walk missed known stdlib imports"
    outside = {
        name: sorted(files)
        for name, files in found.items()
        if name not in sys.stdlib_module_names and name not in ("repro", "__future__")
    }
    assert outside == {}


def test_no_runtime_dependency_is_declared():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


@pytest.mark.parametrize("module", ["repro.service", "repro.cli"])
def test_a_fresh_import_loads_no_third_party_module(module):
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"import {module}\n"
        "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'repro'}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "[]\n"
