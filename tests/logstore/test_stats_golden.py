"""The statistics surfaces print the bytes they printed when the summary
was computed by numpy and the directly-follows graph by networkx.

``golden/`` holds the ``GET /v1/logs/{name}/stats`` body, the text of
``repro-logs stats`` and of ``repro-logs show --view dot`` on the
README's clinic log (100 instances, seed 42), recorded with the
third-party implementations; the store's random lineage is written as
``<lineage>``.  ``LENGTHS`` pairs instance lengths with the median and
p95 ``summarize`` reported through ``numpy.median`` /
``numpy.percentile`` (numpy 2.4, default linear method); on the first
four a naive ``(n - 1) * q / 100`` interpolation differs in the last
digit.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.core.model import Log
from repro.logstore.io_jsonl import write_jsonl
from repro.logstore.stats import summarize
from repro.service import QueryService, StoreCatalog
from repro.workflow import SimulationConfig, WorkflowEngine
from repro.workflow.models import clinic_referral_workflow

GOLDEN = Path(__file__).parent / "golden"

#: (instance lengths, median, p95)
LENGTHS = [
    ([4, 4, 8, 9, 9, 9, 11, 12], 9.0, 11.649999999999999),
    ([3, 3, 4, 9], 3.5, 8.249999999999998),
    ([12, 3, 4, 5, 5, 6, 7, 9], 5.5, 10.95),
    ([3, 4, 5, 7, 8, 9, 10, 11], 7.5, 10.649999999999999),
    ([5, 6, 9, 10], 7.5, 9.85),
    ([7], 7.0, 7.0),
]


@pytest.fixture(scope="module")
def readme_log():
    engine = WorkflowEngine(clinic_referral_workflow())
    return engine.run(SimulationConfig(instances=100, seed=42))


@pytest.fixture()
def readme_file(tmp_path, readme_log):
    path = tmp_path / "clinic.jsonl"
    write_jsonl(readme_log, path)
    return str(path)


def test_the_stats_body_is_byte_identical(readme_log):
    catalog = StoreCatalog()
    store = catalog.add_log("clinic", readme_log)
    response = QueryService(catalog).dispatch("GET", "/v1/logs/clinic/stats", None)
    assert response.status == 200
    body = response.body().decode("utf-8").replace(store.lineage, "<lineage>")
    assert body == (GOLDEN / "stats_body.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, golden",
    [(["stats"], "stats.txt"), (["show", "--view", "dot"], "dfg.dot")],
)
def test_the_cli_text_is_byte_identical(argv, golden, readme_file, capsys):
    assert main([*argv, "--log", readme_file]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("lengths, median, p95", LENGTHS)
def test_the_percentiles_are_numpys_to_the_last_bit(lengths, median, p95):
    # an instance of n records is START, n - 2 activities and END
    summary = summarize(Log.from_traces([["A"] * (n - 2) for n in lengths]))
    assert (summary.length_median, summary.length_p95) == (median, p95)
    assert (summary.length_min, summary.length_max) == (min(lengths), max(lengths))
