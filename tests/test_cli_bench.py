"""CLI coverage of the perf-observability surface: ``bench
run|compare|report|list``, ``profile --flamegraph/--folded`` and
``query --metrics-format prom``."""

import json
import re

import pytest

from repro.cli import main
from repro.logstore.io_jsonl import write_jsonl
from repro.obs.bench import machine_fingerprint, summarize_samples
from repro.obs.export import BENCH_SCHEMA, validate_bench

# a cheap, deterministic-workload case for in-test bench runs
FAST_CASE = "optimizer.planning_overhead"


@pytest.fixture()
def clinic_file(tmp_path, clinic_log):
    path = tmp_path / "clinic.jsonl"
    write_jsonl(clinic_log, path)
    return str(path)


def _run_bench(tmp_path, *, out="results.json", history="history.jsonl"):
    out_path = tmp_path / out
    history_path = tmp_path / history
    code = main([
        "bench", "run", "--case", FAST_CASE,
        "--repeats", "2", "--warmup", "0",
        "--out", str(out_path), "--history", str(history_path),
    ])
    assert code == 0
    return out_path, history_path


def _synthetic_document(median_ms: float) -> dict:
    m = median_ms / 1e3
    samples = [m, m, m]
    return {
        "schema": BENCH_SCHEMA,
        "suite": "smoke",
        "created_unix": 1,
        "machine": machine_fingerprint(),
        "config": {"warmup": 0, "repeats": 3, "mad_k": 3.5},
        "cases": [{
            "name": "synthetic.case",
            "suites": ["smoke"],
            "params": {"n": 8},
            "samples_s": samples,
            "stats": summarize_samples(samples),
        }],
    }


class TestBenchRun:
    def test_writes_validated_document_and_history(self, tmp_path, capsys):
        out_path, history_path = _run_bench(tmp_path)
        document = json.loads(out_path.read_text())
        validate_bench(document)
        assert [c["name"] for c in document["cases"]] == [FAST_CASE]
        assert document["suite"] == "custom"  # --case overrides --suite
        assert len(history_path.read_text().splitlines()) == 1
        captured = capsys.readouterr()
        assert FAST_CASE in captured.out and "median" in captured.out
        assert "bench 1/1" in captured.err  # per-case progress on stderr

    def test_history_accumulates_across_runs(self, tmp_path):
        _, history_path = _run_bench(tmp_path)
        _run_bench(tmp_path)
        lines = history_path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            validate_bench(json.loads(line))

    def test_history_dash_skips_appending(self, tmp_path):
        out_path = tmp_path / "r.json"
        assert main([
            "bench", "run", "--case", FAST_CASE, "--repeats", "1",
            "--warmup", "0", "--out", str(out_path), "--history", "-",
        ]) == 0
        assert not (tmp_path / "-").exists()

    def test_unknown_case_is_a_cli_error(self, tmp_path, capsys):
        code = main([
            "bench", "run", "--case", "no.such.case",
            "--out", str(tmp_path / "r.json"), "--history", "-",
        ])
        assert code == 2
        assert "no.such.case" in capsys.readouterr().err

    def test_list_names_every_registered_case(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert FAST_CASE in out and "operators.sequential" in out
        assert re.search(r"\d+ case\(s\), suites: .*smoke", out)


class TestBenchSummary:
    """``bench run`` emits a per-suite ``BENCH_<suite>.json`` summary
    next to the history file (the ROADMAP workflow used to reference
    these summaries without anything writing them)."""

    def test_summary_is_written_next_to_history(self, tmp_path, capsys):
        _, history_path = _run_bench(tmp_path)
        summary_path = history_path.parent / "BENCH_custom.json"
        assert summary_path.exists()  # --case runs land in suite "custom"
        document = json.loads(summary_path.read_text())
        validate_bench(document)
        assert document["suite"] == "custom"
        assert [c["name"] for c in document["cases"]] == [FAST_CASE]
        assert f"summary -> {summary_path}" in capsys.readouterr().out

    def test_summary_tracks_the_latest_run(self, tmp_path):
        _run_bench(tmp_path)
        first = (tmp_path / "BENCH_custom.json").read_text()
        _run_bench(tmp_path)
        second = (tmp_path / "BENCH_custom.json").read_text()
        assert json.loads(second)["created_unix"] >= json.loads(first)[
            "created_unix"
        ]
        # one summary file, not one per run
        assert len(list(tmp_path.glob("BENCH_*.json"))) == 1

    def test_history_dash_skips_the_summary(self, tmp_path, capsys):
        assert main([
            "bench", "run", "--case", FAST_CASE, "--repeats", "1",
            "--warmup", "0", "--out", str(tmp_path / "r.json"),
            "--history", "-",
        ]) == 0
        assert not list(tmp_path.glob("BENCH_*.json"))
        assert "summary ->" not in capsys.readouterr().out


class TestBenchCompare:
    def test_identical_rerun_passes(self, tmp_path, capsys):
        out_path, _ = _run_bench(tmp_path)
        code = main([
            "bench", "compare",
            "--baseline", str(out_path), "--results", str(out_path),
        ])
        assert code == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_injected_two_x_slowdown_fails(self, tmp_path, capsys):
        # recorded timings, no sleeps: the candidate is the baseline with
        # every sample doubled
        baseline = tmp_path / "baseline.json"
        candidate = tmp_path / "candidate.json"
        baseline.write_text(json.dumps(_synthetic_document(10.0)))
        candidate.write_text(json.dumps(_synthetic_document(20.0)))
        code = main([
            "bench", "compare",
            "--baseline", str(baseline), "--results", str(candidate),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESS" in out and "verdict: FAIL" in out
        assert "x2.00" in out

    def test_report_only_never_gates(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        candidate = tmp_path / "candidate.json"
        baseline.write_text(json.dumps(_synthetic_document(10.0)))
        candidate.write_text(json.dumps(_synthetic_document(20.0)))
        code = main([
            "bench", "compare", "--report-only",
            "--baseline", str(baseline), "--results", str(candidate),
        ])
        assert code == 0
        assert "verdict: FAIL" in capsys.readouterr().out

    def test_missing_baseline_is_a_cli_error(self, tmp_path, capsys):
        code = main([
            "bench", "compare",
            "--baseline", str(tmp_path / "absent.json"),
            "--results", str(tmp_path / "absent.json"),
        ])
        assert code == 2
        assert "bench run" in capsys.readouterr().err

    def test_invalid_document_is_a_cli_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        code = main([
            "bench", "compare", "--baseline", str(bad), "--results", str(bad),
        ])
        assert code == 2
        assert "schema" in capsys.readouterr().err

    def test_committed_smoke_baseline_is_valid_and_comparable(self, capsys):
        # the in-repo baseline must always be a loadable bench/v1 document
        code = main([
            "bench", "compare", "--report-only",
            "--baseline", "benchmarks/baselines/smoke.json",
            "--results", "benchmarks/baselines/smoke.json",
        ])
        assert code == 0
        assert "verdict: PASS" in capsys.readouterr().out


class TestBenchReport:
    def test_run_summaries_and_case_trajectory(self, tmp_path, capsys):
        _, history_path = _run_bench(tmp_path)
        _run_bench(tmp_path)
        assert main(["bench", "report", "--history", str(history_path)]) == 0
        out = capsys.readouterr().out
        assert "2 recorded run(s)" in out
        assert "sum-of-medians" in out

        assert main([
            "bench", "report", "--history", str(history_path),
            "--case", FAST_CASE,
        ]) == 0
        trajectory = capsys.readouterr().out.strip().splitlines()
        assert len(trajectory) == 2
        assert all("median" in line for line in trajectory)

    def test_unknown_case_is_a_cli_error(self, tmp_path, capsys):
        _, history_path = _run_bench(tmp_path)
        code = main([
            "bench", "report", "--history", str(history_path),
            "--case", "no.such.case",
        ])
        assert code == 2

    def test_empty_history_reports_gracefully(self, tmp_path, capsys):
        assert main([
            "bench", "report", "--history", str(tmp_path / "none.jsonl"),
        ]) == 0
        assert "no history" in capsys.readouterr().out


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
