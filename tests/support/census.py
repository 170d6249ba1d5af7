"""Reachability census of ``src/repro``: which entry points import what,
and which functions they call.

The module pass walks the static import graph (``ast`` only, nothing is
imported) from the five entry-point sets of :data:`ENTRY_POINTS`.  ``from
package import Name`` is resolved through the package ``__init__``'s own
re-exports to the module that defines ``Name``, so a re-export does not
count as a use; a package ``__init__`` is reached when anything inside it
is.

The function pass (``--functions``) runs each set's own tests
(:data:`ENTRY_TESTS`; the examples through ``runpy``) in a fresh
interpreter under ``sys.setprofile`` / ``threading.setprofile``, installed
by a temporary ``sitecustomize.py`` that child processes inherit through
``PYTHONPATH`` (so the ``repro-logs serve`` daemons count), and maps every
called code object back to its ``def`` with ``ast``.  The ``def``s are
read before the runs; a ``src`` file that changes while they run stops
the census, since its recorded first lines no longer match.

``python -m tests.support.census`` prints the module table and
``python -m tests.support.census --functions`` the function table that
``docs/REACHABILITY.md`` commits with the justifications; ``--check``
exits 1 unless the uncalled functions are exactly the **Kept uncalled**
ones listed there.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
DOC = ROOT / "docs" / "REACHABILITY.md"

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


#: entry-point set -> the tests that exercise it (``examples`` runs the
#: scripts themselves)
ENTRY_TESTS: dict[str, list[Path]] = {
    "cli": [
        *sorted((ROOT / "tests").glob("test_cli*.py")),
        ROOT / "tests/exec/test_cli_batch.py",
        ROOT / "tests/test_options_binding.py",
    ],
    "service": [ROOT / "tests/service"],
    "e2e": [ROOT / "benchmarks/e2e/test_e2e_selfcheck.py"],
    "claims": [ROOT / "tests/test_experiments_claims.py"],
    "examples": ENTRY_POINTS["examples"],
}

#: the ``sitecustomize.py`` of a census run: appends ``file, first line,
#: name`` of each code object under ``src`` to ``<out>/<pid>`` the first
#: time it is called (flushed at once, so a killed daemon still counts),
#: and keeps itself on the ``PYTHONPATH`` of every child process
_HOOK = '''\
import json, os, subprocess, sys, threading

_here = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(_here, "census.json"), encoding="utf-8") as _fh:
    _src, _out = json.load(_fh)
_seen = set()
_sink = []


def _profile(frame, event, arg):
    if event == "call" and frame.f_code not in _seen:
        code = frame.f_code
        _seen.add(code)
        if code.co_filename.startswith(_src):
            if not _sink:
                _sink.append(open(os.path.join(_out, str(os.getpid())), "a", encoding="utf-8"))
            _sink[0].write(f"{code.co_filename}\\t{code.co_firstlineno}\\t{code.co_name}\\n")
            _sink[0].flush()


sys.setprofile(_profile)
threading.setprofile(_profile)
_popen_init = subprocess.Popen.__init__


def _inherit(self, *args, env=None, **kwargs):
    if env is not None:
        env = {**env, "PYTHONPATH": os.pathsep.join(filter(None, (_here, env.get("PYTHONPATH"))))}
    _popen_init(self, *args, env=env, **kwargs)


subprocess.Popen.__init__ = _inherit
'''

_RUN_EXAMPLES = """\
import runpy, sys
for path in sys.argv[1:]:
    sys.argv = [path]
    runpy.run_path(path, run_name="__main__")
"""


class Function(NamedTuple):
    module: str
    qualname: str
    path: Path
    line: int  # first line, decorators included, as in ``co_firstlineno``
    lines: int
    exempt: bool  # see :func:`is_protocol`

    @property
    def name(self) -> str:
        return f"{self.module}:{self.qualname}"


def is_protocol(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """The one exemption: a method the language or a subclass answers in
    its place.  Dunders are called through protocols (``len``, ``==``,
    ``with``, pickling), never by name; an abstract declaration (an
    ``@abstractmethod``, or a body that is only a docstring and ``...``,
    ``pass`` or ``raise NotImplementedError``) is called through its
    overrides."""
    if node.name.startswith("__") and node.name.endswith("__"):
        return True
    if any(ast.unparse(d).endswith("abstractmethod") for d in node.decorator_list):
        return True
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and getattr(stmt.value, "value", None) is Ellipsis)
        or (isinstance(stmt, ast.Raise) and "NotImplementedError" in ast.unparse(stmt))
        for stmt in body
    )


def functions_of(path: Path) -> list[Function]:
    """Every function defined at module or class level in ``path`` (nested
    ``def``s are part of the function that holds them)."""
    module = module_name(path)
    found: list[Function] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                last = child.end_lineno or child.lineno
                found.append(
                    Function(
                        module, prefix + child.name, path, first, last - first + 1,
                        is_protocol(child),
                    )
                )
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.stmt):
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def all_functions() -> list[Function]:
    return [function for path in sorted(SRC.rglob("*.py")) for function in functions_of(path)]


def calls(label: str) -> set[tuple[str, int, str]]:
    """``(file, first line, name)`` of every ``src`` function that the
    ``label`` set's tests (or scripts) call, in any process they start."""
    with tempfile.TemporaryDirectory() as tmp:
        hook, out = Path(tmp, "hook"), Path(tmp, "out")
        hook.mkdir()
        out.mkdir()
        (hook / "sitecustomize.py").write_text(_HOOK, encoding="utf-8")
        (hook / "census.json").write_text(json.dumps([str(SRC), str(out)]), encoding="utf-8")
        paths = [str(path) for path in ENTRY_TESTS[label]]
        if label == "examples":
            argv, cwd = [sys.executable, "-c", _RUN_EXAMPLES, *paths], tmp
        else:
            argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *paths]
            cwd = str(ROOT)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (hook, SRC, ROOT)))}
        done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            tail = done.stdout[-3000:] + done.stderr[-3000:]
            raise SystemExit(f"census: the {label} set failed\n{tail}")
        found = set()
        for sink in out.iterdir():
            for row in sink.read_text(encoding="utf-8").splitlines():
                filename, first, name = row.split("\t")
                found.add((filename, int(first), name))
        return found


def source_hashes() -> dict[Path, str]:
    return {path: hashlib.sha256(path.read_bytes()).hexdigest() for path in SRC.rglob("*.py")}


def function_census() -> list[tuple[Function, list[str]]]:
    """``(function, calling entry-point sets)`` for every function under
    ``src/repro``; runs every set's tests, so it takes minutes."""
    before = source_hashes()
    functions = all_functions()
    called = {label: calls(label) for label in ENTRY_TESTS}
    changed = sorted({path for path, _ in before.items() ^ source_hashes().items()})
    if changed:
        names = ", ".join(str(path.relative_to(SRC)) for path in changed)
        raise SystemExit(f"census: {names} changed while the census ran; run it again")
    rows = []
    for function in functions:
        key = (str(function.path), function.line, function.qualname.rsplit(".", 1)[-1])
        rows.append((function, [label for label in called if key in called[label]]))
    return rows


def kept_uncalled() -> set[str]:
    """The names the **Kept uncalled** list of ``docs/REACHABILITY.md`` justifies."""
    _, _, section = DOC.read_text(encoding="utf-8").partition("### Kept uncalled")
    section = section.split("\n#")[0]
    return set(re.findall(r"^\| `(repro[\w.]*:[\w.]+)` \|", section, flags=re.M))


def function_table(rows: list[tuple[Function, list[str]]]) -> str:
    kept = kept_uncalled()
    per_module: dict[str, list[int]] = {}
    uncalled = []
    for function, labels in rows:
        counts = per_module.setdefault(function.module, [0, 0, 0])
        counts[0] += 1
        if labels or function.exempt:
            counts[1] += 1
        else:
            counts[2] += 1
            uncalled.append(function)
    out = ["| Module | Functions | Called or exempt | Uncalled |", "|---|---:|---:|---:|"]
    out += [f"| `{module}` | {a} | {b} | {c} |" for module, (a, b, c) in sorted(per_module.items())]
    out += ["", "| Uncalled function | Lines | In the Kept list |", "|---|---:|---|"]
    out += [
        f"| `{f.name}` | {f.lines} | {'yes' if f.name in kept else '**no**'} |" for f in uncalled
    ]
    out.append(
        f"\n{len(rows)} functions, {len(uncalled)} uncalled "
        f"({sum(f.lines for f in uncalled)} lines), {len(kept)} kept"
    )
    return "\n".join(out)


def check(rows: list[tuple[Function, list[str]]]) -> list[str]:
    """What makes ``--check`` fail: an uncalled function the Kept list does
    not justify, or a Kept entry that is called, exempt or gone."""
    kept = kept_uncalled()
    uncalled = {f.name for f, labels in rows if not labels and not f.exempt}
    return [f"uncalled and not kept: {name}" for name in sorted(uncalled - kept)] + [
        f"kept but called, exempt or gone: {name}" for name in sorted(kept - uncalled)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.support.census", description=__doc__)
    parser.add_argument("--functions", action="store_true",
                        help="run every entry-point set's tests and print the function table")
    parser.add_argument("--check", action="store_true",
                        help="with --functions: exit 1 unless the uncalled functions are "
                             "exactly the Kept uncalled list of docs/REACHABILITY.md")
    args = parser.parse_args(argv)
    if not args.functions:
        table = census()
        print("| Module | Lines | Reached from |")
        print("|---|---:|---|")
        for name, lines, labels in table:
            print(f"| `{name}` | {lines} | {', '.join(labels) or '**none**'} |")
        print(f"\n{len(table)} modules, {sum(row[1] for row in table)} lines")
        return 0
    rows = function_census()
    print(function_table(rows))
    problems = check(rows) if args.check else []
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
