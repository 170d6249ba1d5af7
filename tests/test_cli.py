"""End-to-end CLI tests driving ``repro.cli.main`` in-process."""

import json

import pytest

from repro.cli import main
from repro.logstore.io_jsonl import read_jsonl, write_jsonl


@pytest.fixture()
def clinic_file(tmp_path, clinic_log):
    path = tmp_path / "clinic.jsonl"
    write_jsonl(clinic_log, path)
    return str(path)


class TestGenerate:
    @pytest.mark.parametrize("model", ["clinic", "order", "loan", "synthetic"])
    def test_generate_each_model(self, tmp_path, model, capsys):
        out = tmp_path / f"{model}.jsonl"
        code = main([
            "generate", "--model", model, "--instances", "5",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        log = read_jsonl(out)
        log.validate()
        assert len(log.wids) == 5

    def test_generate_is_seed_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["generate", "--instances", "4", "--seed", "9", "--out", str(a)])
        main(["generate", "--instances", "4", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestQuery:
    def test_count_mode(self, clinic_file, capsys):
        code = main([
            "query", "--log", clinic_file,
            "--pattern", "GetRefer -> CheckIn", "--mode", "count",
        ])
        assert code == 0
        assert int(capsys.readouterr().out.strip()) == 40

    def test_exists_mode(self, clinic_file, capsys):
        main(["query", "--log", clinic_file, "--pattern", "Ghost",
              "--mode", "exists"])
        assert capsys.readouterr().out.strip() == "no"

    def test_instances_mode(self, clinic_file, capsys):
        main(["query", "--log", clinic_file, "--pattern", "GetRefer",
              "--mode", "instances"])
        wids = capsys.readouterr().out.split()
        assert wids == [str(w) for w in range(1, 41)]

    def test_incident_listing_respects_limit(self, clinic_file, capsys):
        main(["query", "--log", clinic_file, "--pattern", "SeeDoctor",
              "--limit", "3"])
        out = capsys.readouterr().out
        assert "incident(s)" in out
        assert "more)" in out

    def test_explain_flag(self, clinic_file, capsys):
        main(["query", "--log", clinic_file,
              "--pattern", "SeeDoctor -> PayTreatment", "--explain",
              "--mode", "count"])
        assert "incident tree" in capsys.readouterr().out

    def test_engine_selection_and_no_optimize(self, clinic_file, capsys):
        code = main(["query", "--log", clinic_file, "--pattern", "GetRefer",
                     "--engine", "naive", "--no-optimize", "--mode", "count"])
        assert code == 0

    @pytest.mark.parametrize("command", ["query", "profile"])
    def test_the_deleted_indexed_engine_is_rejected(self, clinic_file, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--log", clinic_file, "--pattern", "GetRefer",
                  "--engine", "indexed"])
        assert info.value.code == 2
        message = capsys.readouterr().err
        assert all(name in message for name in ("naive", "sqlite", "vectorized"))

    def test_bad_pattern_reports_error(self, clinic_file, capsys):
        code = main(["query", "--log", clinic_file, "--pattern", "A ->",
                     "--mode", "count"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_preflight_warns_but_still_evaluates(self, clinic_file, capsys):
        code = main(["query", "--log", clinic_file, "--pattern", "Ghost",
                     "--mode", "count"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "0"  # still evaluated
        assert "QW101" in captured.err and "QW201" in captured.err

    def test_preflight_silent_on_clean_query(self, clinic_file, capsys):
        main(["query", "--log", clinic_file, "--pattern", "GetRefer",
              "--mode", "count"])
        assert capsys.readouterr().err == ""

    def test_no_lint_suppresses_preflight(self, clinic_file, capsys):
        code = main(["query", "--log", clinic_file, "--pattern", "Ghost",
                     "--mode", "count", "--no-lint"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "0"
        assert captured.err == ""


class TestLint:
    def test_clean_query_exits_zero(self, capsys):
        assert main(["lint", "GetRefer -> CheckIn", "--model", "clinic"]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_error_diagnostics_exit_one(self, capsys):
        code = main(["lint", "CheckIn -> GetRefer", "--model", "clinic"])
        assert code == 1
        out = capsys.readouterr().out
        assert "QW201" in out
        assert "^" in out  # caret line under the offending span

    def test_warnings_alone_exit_zero(self, capsys):
        code = main(["lint", "A | B | A"])
        assert code == 0
        assert "QW301" in capsys.readouterr().out

    def test_lint_against_log(self, clinic_file, capsys):
        code = main(["lint", "GetRefer ; Ghost", "--log", clinic_file])
        assert code == 1
        out = capsys.readouterr().out
        assert "QW101" in out and "QW201" in out

    def test_json_format(self, clinic_file, capsys):
        code = main(["lint", "Ghost", "--log", clinic_file,
                     "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert {d["code"] for d in payload} == {"QW101", "QW201"}
        for diagnostic in payload:
            assert diagnostic["severity"] == "error"
            assert diagnostic["span"] == [0, 5]

    def test_cost_threshold_flag(self, clinic_file, capsys):
        code = main(["lint", "GetRefer -> CheckIn", "--log", clinic_file,
                     "--cost-threshold", "0"])
        assert code == 0  # QW401 is a warning, not an error
        assert "QW401" in capsys.readouterr().out

    def test_syntax_error_exits_two(self, capsys):
        assert main(["lint", "A ->"]) == 2
        assert "error" in capsys.readouterr().err


class TestStatsValidateConvert:
    def test_stats(self, clinic_file, capsys):
        assert main(["stats", "--log", clinic_file]) == 0
        assert "distinct activities" in capsys.readouterr().out

    def test_validate_clean(self, clinic_file, capsys):
        assert main(["validate", "--log", clinic_file]) == 0
        assert "well-formed" in capsys.readouterr().out

    def test_validate_broken_and_repair(self, tmp_path, clinic_log, capsys):
        broken = tmp_path / "broken.jsonl"
        rows = [r.to_dict() for r in clinic_log.records]
        del rows[5]  # punch a hole
        broken.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        repaired = tmp_path / "fixed.jsonl"
        code = main(["validate", "--log", str(broken),
                     "--repair", str(repaired)])
        assert code == 0
        read_jsonl(repaired).validate()

    def test_validate_broken_without_repair_fails(self, tmp_path, clinic_log):
        broken = tmp_path / "broken.jsonl"
        rows = [r.to_dict() for r in clinic_log.records]
        del rows[5]
        broken.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["validate", "--log", str(broken)]) == 1

    @pytest.mark.parametrize("extension", ["csv", "xes"])
    def test_convert_roundtrip(self, tmp_path, clinic_file, extension, capsys):
        middle = tmp_path / f"log.{extension}"
        back = tmp_path / "back.jsonl"
        assert main(["convert", "--src", clinic_file, "--dst", str(middle)]) == 0
        assert main(["convert", "--src", str(middle), "--dst", str(back)]) == 0
        original = read_jsonl(clinic_file)
        restored = read_jsonl(back)
        assert [(r.wid, r.activity) for r in restored] == [
            (r.wid, r.activity) for r in original
        ]

    def test_unknown_extension_is_an_error(self, clinic_file, tmp_path):
        assert main(["convert", "--src", clinic_file,
                     "--dst", str(tmp_path / "x.parquet")]) == 2


class TestAnomalies:
    def test_anomalies_exit_code_signals_findings(self, clinic_file, capsys):
        code = main(["anomalies", "--log", clinic_file, "--rules", "clinic"])
        out = capsys.readouterr().out
        if "no anomalies" in out:
            assert code == 0
        else:
            assert code == 1


class TestMonitor:
    def test_monitor_replays_and_summarises(self, clinic_file, capsys):
        code = main(["monitor", "--log", clinic_file, "--rules", "clinic"])
        out = capsys.readouterr().out
        assert "alert(s) over" in out
        if "update-before-reimburse" in out:
            assert code == 1

    def test_monitor_quiet_mode(self, clinic_file, capsys):
        main(["monitor", "--log", clinic_file, "--rules", "clinic", "--quiet"])
        out = capsys.readouterr().out
        assert "completed at lsn" not in out
        assert "alert(s) over" in out

    def test_monitor_matches_batch_anomalies(self, clinic_file, capsys):
        main(["monitor", "--log", clinic_file, "--rules", "loan"])
        out = capsys.readouterr().out
        # clinic logs trip no loan rules
        assert "0 alert(s)" in out


class TestShow:
    def test_table_view(self, clinic_file, capsys):
        assert main(["show", "--log", clinic_file, "--view", "table",
                     "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "lsn" in out and "START" in out

    def test_instance_view_with_highlight(self, clinic_file, capsys):
        main(["show", "--log", clinic_file, "--view", "instance",
              "--wid", "1", "--pattern", "GetRefer -> CheckIn"])
        out = capsys.readouterr().out
        assert "instance 1:" in out
        assert "<<" in out

    def test_swimlanes_view(self, clinic_file, capsys):
        main(["show", "--log", clinic_file, "--view", "swimlanes"])
        assert "wid" in capsys.readouterr().out

    def test_dot_view(self, clinic_file, capsys):
        main(["show", "--log", clinic_file, "--view", "dot"])
        assert capsys.readouterr().out.startswith("digraph dfg {")


class TestObservabilityFlags:
    def test_query_trace_reconciles_pairs(self, clinic_file, capsys):
        code = main(["query", "--log", clinic_file,
                     "--pattern", "GetRefer -> CheckIn", "--trace"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "evaluate" in out and "⊳" in out
        [line] = [ln for ln in out.splitlines() if ln.startswith("pairs examined:")]
        _, _, tail = line.partition(":")
        traced, counted = tail.split("traced /")
        assert int(traced.strip()) == int(counted.split()[0])

    def test_query_metrics_emits_valid_document(self, clinic_file, capsys):
        from repro.obs.export import validate_metrics

        main(["query", "--log", clinic_file, "--pattern", "GetRefer",
              "--limit", "1", "--metrics"])
        out = capsys.readouterr().out
        document = json.loads(out[out.index("metrics:") + len("metrics:"):])
        validate_metrics(document)
        assert document["counters"]["engine.evaluations"] == 1

    def test_verbose_flag_enables_repro_logging(self, clinic_file, capsys):
        import logging

        main(["-v", "query", "--log", clinic_file, "--pattern", "GetRefer",
              "--mode", "count"])
        try:
            assert logging.getLogger("repro").level == logging.INFO
        finally:
            for handler in list(logging.getLogger("repro").handlers):
                if handler.__class__.__name__ != "NullHandler":
                    logging.getLogger("repro").removeHandler(handler)
            logging.getLogger("repro").setLevel(logging.NOTSET)


class TestProfile:
    def test_text_report_flags_hottest_node(self, clinic_file, capsys):
        code = main(["profile", "--log", clinic_file,
                     "--pattern", "GetRefer -> CheckIn"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hottest" in out
        assert "pairs" in out and "pred.pairs" in out

    def test_json_report_validates_against_schema(self, clinic_file, capsys):
        from repro.obs.export import validate_profile

        main(["profile", "--log", clinic_file,
              "--pattern", "GetRefer -> CheckIn", "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        validate_profile(document)
        assert document["schema"] == "repro.obs.profile/v1"
        assert document["totals"]["pairs_examined"] > 0

    def test_profile_respects_engine_choice(self, clinic_file, capsys):
        main(["profile", "--log", clinic_file, "--pattern", "GetRefer",
              "--engine", "naive", "--format", "json"])
        assert json.loads(capsys.readouterr().out)["engine"] == "naive"

    def test_profile_defaults_to_the_join_kernel(self, clinic_file, capsys):
        main(["profile", "--log", clinic_file, "--pattern", "GetRefer",
              "--format", "json"])
        assert json.loads(capsys.readouterr().out)["engine"] == "vectorized"
