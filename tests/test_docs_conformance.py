"""The docs name only what exists: every backticked ``repro.x.y`` path,
every ``src/`` / ``tests/`` / ``benchmarks/`` / ``examples/`` file and
every ``--flag`` in README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md
resolves against the tree, every CLI flag is named in some doc,
docs/SERVICE.md's reply-field table is the key set of the golden bodies,
its request-field and request-option tables are the wire tables (names,
types, required, defaults) and its access-log table the key set of a
logged line, docs/OBSERVABILITY.md's journal table is the journal's
field tables (and journaled runs and requests write nothing else), and
the README's ``EngineOptions`` table is the dataclass's field set."""

import argparse
import dataclasses
import importlib
import json
import re
from functools import lru_cache
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.core.options import EngineOptions
from repro.fields import table_of
from repro.obs.journal import ENVELOPE_FIELDS, EVENT_FIELDS
from repro.service.schemas import OPTION_FIELDS, REQUESTS, AppendRecord

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"] + sorted(
    (ROOT / "docs").glob("*.md")
)

#: flags the docs name that belong to another tool, or to nothing any more
FOREIGN_FLAGS = {
    "--jobs-ceiling",  # deleted with the parallel backend; SERVICE.md says so
    "--workload", "--seconds", "--no-trace",  # benchmarks/e2e's own parsers
    "--benchmark-only", "--benchmark-disable", "--benchmark-json",  # pytest-benchmark
    "--benchmark-autosave", "--benchmark-compare",
    "--ignore", "--no-build-isolation",  # pytest, pip
    "--functions", "--check",  # python -m tests.support.census
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


def table_keys(path: str, heading: str) -> set[str]:
    """The backticked first cells of the table under ``heading``."""
    text = (ROOT / path).read_text(encoding="utf-8")
    section = re.search(rf"(?ms)^#{{2,3}} {re.escape(heading)}.*?(?=^#{{2,3}} )", text).group(0)
    return set(re.findall(r"(?m)^\| `(\w+)` \|", section))


#: the heading of each request-field table in docs/SERVICE.md
REQUEST_HEADINGS = {
    "query": "`POST /v1/query`",
    "batch": "`POST /v1/batch`",
    "lint": "`POST /v1/lint`",
    "explain": "`POST /v1/explain`",
    "analyze": "`POST /v1/analyze`",
    "append": "`POST /v1/logs/{name}/records`",
}


def type_cell(kind) -> str:
    """How docs/SERVICE.md writes a field type."""
    if isinstance(kind, str):
        return kind
    if isinstance(kind, type):
        return kind.__name__
    form, inner = kind
    return "options" if form == "options" else f"{form} of {type_cell(inner)}"


def table_rows(section: str) -> dict[str, list[str]]:
    """The table rows of ``section``: first-cell name -> the other cells."""
    rows = {}
    for line in re.findall(r"(?m)^\| `\w+` \|.*\|$", section):
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = cells[1:]
    return rows


def request_table(heading: str) -> dict[str, list[str]]:
    text = (ROOT / "docs/SERVICE.md").read_text(encoding="utf-8")
    section = re.search(rf"(?ms)^#### {re.escape(heading)}\n.*?(?=^#)", text).group(0)
    return table_rows(section)


@pytest.mark.parametrize(
    "what", [*REQUEST_HEADINGS, "record"], ids=[*REQUEST_HEADINGS, "record"]
)
def test_service_doc_and_request_tables_name_the_same_fields(what):
    cls = AppendRecord if what == "record" else REQUESTS[what]
    heading = "`AppendRecord`: one item of `records`" if what == "record" else REQUEST_HEADINGS[what]
    documented = {
        name: (kind, required, default) for name, (kind, required, default, _) in request_table(heading).items()
    }
    declared = {
        row.name: (
            type_cell(row.type),
            "yes" if row.required else "no",
            "—" if row.required else f"`{json.dumps(row.default)}`",
        )
        for row in table_of(cls).values()
    }
    assert documented == declared


def test_service_doc_and_wire_schema_name_the_same_request_options():
    text = (ROOT / "docs/SERVICE.md").read_text(encoding="utf-8")
    section = re.search(r"(?ms)^### Request options.*?(?=^#{2,3} )", text).group(0)
    documented = {name: cells[0] for name, cells in table_rows(section).items()}
    assert documented == {name: row.type for name, row in OPTION_FIELDS.items()}
    # and every example request sends only options that exist
    for doc in DOCS:
        for body in re.findall(r'"options":\s*\{([^}]*)\}', doc_text(doc)):
            sent = set(re.findall(r'"(\w+)":', body))
            assert sent <= set(OPTION_FIELDS), f"{doc.name} sends unknown options {sent}"


def test_readme_and_engine_options_name_the_same_fields():
    in_table = table_keys("README.md", "Execution options: `EngineOptions`")
    fields = {field.name for field in dataclasses.fields(EngineOptions)}
    assert fields - in_table == set(), "EngineOptions fields the README does not list"
    assert in_table - fields == set(), "the README lists EngineOptions fields that do not exist"


def journal_row_fields(kind: str) -> set[str]:
    """The backticked names in the fields cell of ``kind``'s row of the
    journal table in docs/OBSERVABILITY.md."""
    text = (ROOT / "docs/OBSERVABILITY.md").read_text(encoding="utf-8")
    label = "every event" if kind == "*" else f"`{kind}`"
    (row,) = re.findall(rf"(?m)^\| {re.escape(label)} \|.*$", text)
    return set(re.findall(r"`(\w+)`", row.split("|")[3]))


def emitted_journal_fields(tmp_path, clinic_log) -> dict[str, set[str]]:
    """Every field, per event kind, that journaled ``repro-logs query`` /
    ``batch`` runs and journaled service ``/v1/query`` requests write:
    finished, cached, failed and killed ones."""
    from repro.cli import main
    from repro.logstore.io_jsonl import write_jsonl
    from repro.obs.journal import QueryJournal, read_journal
    from repro.service import QueryService, StoreCatalog

    log_file, journal_file = tmp_path / "clinic.jsonl", tmp_path / "journal.jsonl"
    write_jsonl(clinic_log, log_file)
    base = ["--log", str(log_file), "--journal", str(journal_file)]
    assert main(["query", *base, "--pattern", "GetRefer -> CheckIn", "--cache"]) == 0
    assert main(["query", *base, "--pattern", "GetRefer -> CheckIn", "--max-pairs", "3"]) == 4
    assert main(["batch", *base, "GetRefer", "GetRefer -> CheckIn"]) == 0
    assert main(["batch", *base, "GetRefer -> CheckIn", "--max-pairs", "3"]) == 4
    events = read_journal(journal_file, validate=True)

    catalog = StoreCatalog()
    catalog.add_log("clinic", clinic_log)
    service = QueryService(catalog, journal=QueryJournal())
    for body, status in (
        ({"pattern": "GetRefer -> CheckIn"}, 200),
        ({"pattern": "A ->"}, 400),
        ({"pattern": "GetRefer -> CheckIn", "options": {"deadline_ms": 0.001, "cache": False}}, 408),
    ):
        body = json.dumps({"log": "clinic", **body}).encode()
        assert service.dispatch("POST", "/v1/query", body).status == status
    events += service.journal.events

    fields: dict[str, set[str]] = {}
    for event in events:
        fields.setdefault(event["event"], set()).update(event)
    return fields


def test_observability_doc_and_journal_name_the_same_event_fields():
    assert journal_row_fields("*") == set(ENVELOPE_FIELDS)
    for kind in ("submit", "finish", "killed"):
        assert journal_row_fields(kind) == set(EVENT_FIELDS[kind]), kind


def test_journaled_runs_write_only_fields_of_their_kind_table(tmp_path, clinic_log):
    emitted = emitted_journal_fields(tmp_path, clinic_log)
    assert set(emitted) == {"submit", "finish", "killed"}
    for kind, written in emitted.items():
        assert written <= set(ENVELOPE_FIELDS) | set(EVENT_FIELDS[kind]), kind


def test_service_doc_and_access_log_name_the_same_keys(clinic_log, caplog):
    import logging

    from repro.service import QueryService, ServiceConfig, StoreCatalog

    catalog = StoreCatalog()
    catalog.add_log("clinic", clinic_log)
    service = QueryService(catalog, ServiceConfig(access_log=True))
    with caplog.at_level(logging.INFO, logger="repro.service.access"):
        service.dispatch("POST", "/v1/query", b'{"log": "clinic", "pattern": "GetRefer"}')
    (record,) = caplog.records
    logged = set(json.loads(record.message))
    in_table = table_keys("docs/SERVICE.md", "Access log")
    assert logged - in_table == set(), "access-log keys docs/SERVICE.md does not list"
    assert in_table - logged == set(), "docs/SERVICE.md lists access-log keys no line has"
