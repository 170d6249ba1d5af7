"""Every module under ``src/repro`` is reached by an entry point or is
listed, with its reason, in ``docs/REACHABILITY.md``."""

import re
from pathlib import Path

from tests.support.census import census

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
