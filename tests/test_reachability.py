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

from benchmarks.e2e.trace import PROBES
from tests.support.census import all_functions, census, kept_uncalled

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
