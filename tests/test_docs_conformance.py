"""The docs name only what exists: every backticked ``repro.x.y`` path,
every ``src/`` / ``tests/`` / ``benchmarks/`` / ``examples/`` file and
every ``--flag`` in README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md
resolves against the tree, every CLI flag is named in some doc, and
docs/SERVICE.md's reply-field table is the key set of the golden bodies."""

import argparse
import importlib
import json
import re
from functools import lru_cache
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"] + sorted(
    (ROOT / "docs").glob("*.md")
)

#: flags the docs name that belong to another tool, or to nothing any more
FOREIGN_FLAGS = {
    "--jobs-ceiling",  # deleted with the parallel backend; SERVICE.md says so
    "--workload", "--seconds", "--no-trace",  # benchmarks/e2e's own parsers
    "--benchmark-only", "--no-build-isolation",  # pytest-benchmark, pip
}


FLAG = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*[a-z0-9])")

#: ``repro.*`` names that are logging channels, not importable paths
LOGGER_NAMES = {"repro.service.access"}


def doc_text(path: Path) -> str:
    """The prose the checks read: code spans and fences included, the
    dated per-PR history of PERFORMANCE.md (``## PR n: …`` sections, a
    record of trees that no longer exist) left out."""
    text = path.read_text(encoding="utf-8")
    if path.name == "PERFORMANCE.md":
        text = re.sub(r"(?ms)^## PR \d+:.*?(?=^## (?!PR \d+:)|\Z)", "", text)
    return text


@lru_cache(maxsize=None)
def cli_flags() -> frozenset[str]:
    flags: set[str] = set()
    parsers = [build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            flags.update(s for s in action.option_strings if s.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return frozenset(flags)


def resolves(dotted: str) -> bool:
    """``repro.a.b.c`` is a module, or an attribute chain off one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                target = getattr(target, attr)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
def test_doc_names_only_what_exists(doc):
    text = doc_text(doc)
    missing = []
    # a whole code span (or a call): `repro.obs.trace/v1` is a schema id
    for dotted in sorted(set(re.findall(r"`(repro(?:\.\w+)+)[`(]", text))):
        if dotted not in LOGGER_NAMES and not resolves(dotted):
            missing.append(dotted)
    files = re.findall(r"\b((?:src|tests|benchmarks|examples)/[\w./*-]*\w)", text)
    for name in sorted(set(files)):
        if not (list(ROOT.glob(name)) if "*" in name else (ROOT / name).exists()):
            missing.append(name)
    known = cli_flags() | FOREIGN_FLAGS
    for flag in sorted(set(FLAG.findall(text))):
        if flag not in known:
            missing.append(flag)
    assert not missing, f"{doc.name} names things that do not exist: {missing}"


def test_every_cli_flag_is_documented():
    everything = "\n".join(doc_text(doc) for doc in DOCS)
    named = set(FLAG.findall(everything))
    undocumented = sorted(cli_flags() - named - {"--help"})
    assert not undocumented, f"CLI flags no doc names: {undocumented}"


#: reply keys present only under a condition no golden request meets
CONDITIONAL_FIELDS = {"clamped"}  # the server reduced a requested budget


def test_service_doc_and_golden_bodies_name_the_same_reply_fields():
    bodies = json.loads((ROOT / "tests/service/golden/bodies.json").read_text(encoding="utf-8"))
    in_bodies = {key for body in bodies.values() for key in json.loads(body)}
    text = (ROOT / "docs/SERVICE.md").read_text(encoding="utf-8")
    section = re.search(r"(?ms)^### Reply fields.*?(?=^#{2,3} )", text).group(0)
    in_table = set(re.findall(r"(?m)^\| `(\w+)` \|", section))
    assert in_bodies - in_table == set(), "golden reply keys docs/SERVICE.md does not list"
    assert in_table - in_bodies == set(), "docs/SERVICE.md lists reply keys no golden body has"
    assert all(f"`{field}`" in section for field in CONDITIONAL_FIELDS - in_table)
