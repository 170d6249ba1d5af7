"""Every module under ``src/repro`` is reached by an entry point or is
listed, with its reason, in ``docs/REACHABILITY.md``; every function the
**Kept uncalled** list names still exists, and every probe of the
benchmark's tracer still resolves.

Which functions the entry points call is the dynamic half of the census
(``python -m tests.support.census --functions --check``, run in CI): it
runs every entry-point set's tests, which tier-1 has no time for."""

import importlib
import re
from pathlib import Path

import pytest

import tests.support.census as census_support
from benchmarks.e2e.trace import PROBES
from tests.support.census import all_functions, census, function_census, kept_uncalled

DOC = Path(__file__).resolve().parents[1] / "docs" / "REACHABILITY.md"


def test_unreached_modules_are_exactly_the_justified_ones():
    text = DOC.read_text(encoding="utf-8")
    kept = text.split("## Kept unreached")[1].split("\n## ")[0]
    justified = set(re.findall(r"^\| `(repro[\w.]*)` \|", kept, flags=re.M))
    rows = census()
    unreached = {name for name, _, reached_from in rows if not reached_from}
    assert unreached == justified, (
        f"unreached and unjustified: {sorted(unreached - justified)}; "
        f"justified but reached or gone: {sorted(justified - unreached)}"
    )
    untabled = [name for name, _, _ in rows if f"| `{name}` |" not in text]
    assert not untabled, f"modules missing from the census table: {untabled}"


def test_kept_uncalled_functions_exist_and_are_not_exempt():
    kept = kept_uncalled()
    assert kept, "the Kept uncalled list of docs/REACHABILITY.md is empty or unparsed"
    defined = {function.name: function for function in all_functions()}
    assert not kept - defined.keys(), f"kept but gone: {sorted(kept - defined.keys())}"
    exempt = sorted(name for name in kept if defined[name].exempt)
    assert not exempt, f"kept, but exempt by the protocol rule anyway: {exempt}"


def test_every_benchmark_probe_resolves():
    for span, module_name, path, _ in PROBES:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"probe {span}: {module_name}:{path} is gone"


@pytest.fixture()
def fake_src(tmp_path, monkeypatch):
    """A one-module ``src`` whose one entry-point set calls ``f``; the
    set's run inserts a docstring line above ``f`` when ``edit`` is set."""
    module = tmp_path / "repro" / "m.py"
    module.parent.mkdir()
    module.write_text("def f():\n    return 1\n\n\ndef g():\n    return 2\n")
    edit = []

    def fake_calls(label):
        if edit:
            module.write_text('"""A docstring."""\n' + module.read_text())
        return {(str(module), 1, "f")}

    monkeypatch.setattr(census_support, "SRC", tmp_path)
    monkeypatch.setattr(census_support, "ENTRY_TESTS", {"cli": []})
    monkeypatch.setattr(census_support, "calls", fake_calls)
    return edit


def test_the_function_census_maps_calls_to_the_defs_it_read(fake_src):
    rows = function_census()
    assert [(f.qualname, labels) for f, labels in rows] == [("f", ["cli"]), ("g", [])]


def test_a_file_changed_while_the_census_runs_stops_it(fake_src):
    fake_src.append(True)
    with pytest.raises(SystemExit, match=r"repro/m\.py changed while the census ran"):
        function_census()
