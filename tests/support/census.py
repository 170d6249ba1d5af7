"""Reachability census of ``src/repro``: which entry points import what.

Walks the static import graph (``ast`` only, nothing is imported) from
the five entry-point sets of :data:`ENTRY_POINTS`.  ``from package import
Name`` is resolved through the package ``__init__``'s own re-exports to
the module that defines ``Name``, so a re-export does not count as a use;
a package ``__init__`` is reached when anything inside it is.

``python -m tests.support.census`` prints the table committed (with the
justifications) as ``docs/REACHABILITY.md``.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: entry-point set -> the files whose imports start the walk
ENTRY_POINTS: dict[str, list[Path]] = {
    "cli": [SRC / "repro/cli.py", SRC / "repro/__main__.py"],
    "service": [SRC / "repro/service/__init__.py"],
    "e2e": sorted((ROOT / "benchmarks/e2e").glob("*.py")),
    "claims": [ROOT / "tests/test_experiments_claims.py"],
    "examples": sorted((ROOT / "examples").glob("*.py")),
}


def module_path(name: str) -> Path | None:
    """The source file of ``repro`` module ``name``, or None."""
    base = SRC.joinpath(*name.split("."))
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@lru_cache(maxsize=None)
def imports_of(path: Path) -> tuple[tuple[str, str | None], ...]:
    """Every ``(module, name)`` imported anywhere in ``path`` (function-level
    imports included); ``name`` is None for a plain ``import module``."""
    package = module_name(path).split(".") if SRC in path.parents else []
    if path.name != "__init__.py":
        package = package[:-1]
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + (node.module.split(".") if node.module else []))
            found += [(module, alias.name) for alias in node.names]
    return tuple(found)


def resolve(module: str, name: str | None) -> str | None:
    """The ``repro`` module that ``from module import name`` really uses."""
    if module.split(".")[0] != "repro" or module_path(module) is None:
        return None
    if name is None:
        return module
    if module_path(f"{module}.{name}") is not None:
        return f"{module}.{name}"
    path = module_path(module)
    if path.name == "__init__.py":
        for source, exported in imports_of(path):
            if exported == name and source != module:
                return resolve(source, name) or module
    return module


def reached_from(files: list[Path]) -> set[str]:
    seen: set[str] = set()
    queue = list(files)
    while queue:
        for module, name in imports_of(queue.pop()):
            target = resolve(module, name)
            if target is not None and target not in seen:
                seen.add(target)
                path = module_path(target)
                if path.name != "__init__.py":  # its imports are re-exports
                    queue.append(path)
    for name in list(seen):  # importing a.b.c runs a and a.b
        parts = name.split(".")
        seen.update(".".join(parts[:i]) for i in range(1, len(parts)))
    return seen | {module_name(f) for f in files if SRC in f.parents}


def census() -> list[tuple[str, int, list[str]]]:
    """``(module, lines, reaching entry-point sets)`` for every module
    under ``src/repro``, sorted by module name."""
    reach = {label: reached_from(files) for label, files in ENTRY_POINTS.items()}
    rows = []
    for path in sorted(SRC.rglob("*.py")):
        name = module_name(path)
        lines = len(path.read_text(encoding="utf-8").splitlines())
        rows.append((name, lines, [label for label in reach if name in reach[label]]))
    return sorted(rows)


if __name__ == "__main__":
    table = census()
    print("| Module | Lines | Reached from |")
    print("|---|---:|---|")
    for name, lines, labels in table:
        print(f"| `{name}` | {lines} | {', '.join(labels) or '**none**'} |")
    print(f"\n{len(table)} modules, {sum(row[1] for row in table)} lines")
