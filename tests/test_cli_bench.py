"""CLI coverage of the perf-observability surface: ``profile
--flamegraph/--folded`` and ``query --metrics-format prom``; the deleted
``bench`` command is a usage error."""

import json
import re

import pytest

from repro.cli import main
from repro.logstore.io_jsonl import write_jsonl


@pytest.fixture()
def clinic_file(tmp_path, clinic_log):
    path = tmp_path / "clinic.jsonl"
    write_jsonl(clinic_log, path)
    return str(path)


def test_the_deleted_bench_command_is_a_usage_error(capsys):
    """The in-process benchmarks are ``pytest benchmarks --benchmark-only``."""
    with pytest.raises(SystemExit) as info:
        main(["bench", "run", "--suite", "smoke"])
    assert info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestQueryPrometheus:
    def test_prom_format_implies_metrics(self, clinic_file, capsys):
        code = main([
            "query", "--log", clinic_file,
            "--pattern", "GetRefer -> CheckIn", "--limit", "1",
            "--metrics-format", "prom",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_engine_pairs_examined counter" in out
        assert "# TYPE repro_engine_max_live_incidents gauge" in out
        metric_lines = [
            line for line in out.splitlines()
            if line.startswith(("repro_", "# TYPE "))
        ]
        sample = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? \S+$')
        for line in metric_lines:
            assert line.startswith("# TYPE ") or sample.match(line), line

    def test_json_remains_the_default(self, clinic_file, capsys):
        assert main([
            "query", "--log", clinic_file, "--pattern", "GetRefer",
            "--mode", "count", "--metrics",
        ]) == 0
        out = capsys.readouterr().out
        assert '"schema": "repro.obs.metrics/v1"' in out


class TestProfileFlamegraph:
    def _node_count(self, node):
        return 1 + sum(self._node_count(c) for c in node["children"])

    def test_flamegraph_html_matches_span_tree(self, clinic_file, tmp_path, capsys):
        out = tmp_path / "flame.html"
        folded = tmp_path / "stacks.txt"
        code = main([
            "profile", "--log", clinic_file,
            "--pattern", "GetRefer -> CheckIn -> SeeDoctor",
            "--flamegraph", str(out), "--folded", str(folded),
        ])
        assert code == 0
        html = out.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")

        match = re.search(
            r'<script type="application/json" id="trace">(.*?)</script>',
            html,
            re.DOTALL,
        )
        assert match is not None
        trace = json.loads(match.group(1))
        assert trace["schema"] == "repro.obs.trace/v1"
        spans = self._node_count(trace["root"])
        # the rendered node set equals the recorded span tree
        assert html.count('class="frame"') == spans
        assert len(folded.read_text().strip().splitlines()) == spans
        assert f"flamegraph written to {out}" in capsys.readouterr().err
