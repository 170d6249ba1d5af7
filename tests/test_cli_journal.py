"""CLI surfaces of the query-lifecycle journal and resource governor.

``query``/``batch --journal/--deadline-ms/--max-pairs``, the governor's
dedicated exit code 4, and the ``events`` / ``top`` / ``slo``
inspection subcommands, all driven through ``repro.cli.main`` in-process.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.logstore.io_jsonl import write_jsonl
from repro.obs.journal import read_journal

CHAIN = "GetRefer -> CheckIn -> SeeDoctor"


@pytest.fixture()
def clinic_file(tmp_path, clinic_log):
    path = tmp_path / "clinic.jsonl"
    write_jsonl(clinic_log, path)
    return str(path)


@pytest.fixture()
def journal_file(tmp_path, clinic_file):
    """A journal with one successful and one killed run recorded."""
    path = tmp_path / "journal.jsonl"
    assert main([
        "query", "--log", clinic_file, "--pattern", CHAIN,
        "--mode", "count", "--journal", str(path),
    ]) == 0
    assert main([
        "query", "--log", clinic_file, "--pattern", CHAIN,
        "--mode", "count", "--journal", str(path), "--max-pairs", "3",
    ]) == 4
    return str(path)


class TestQueryJournalFlag:
    def test_journal_records_a_validatable_lifecycle(self, tmp_path, clinic_file):
        path = tmp_path / "journal.jsonl"
        code = main([
            "query", "--log", clinic_file, "--pattern", CHAIN,
            "--mode", "count", "--journal", str(path),
        ])
        assert code == 0
        events = read_journal(path, validate=True)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "submit" and kinds[-1] == "finish"
        assert len({e["query_id"] for e in events}) == 1

    def test_journal_appends_across_invocations(self, tmp_path, clinic_file):
        path = tmp_path / "journal.jsonl"
        for _ in range(2):
            main([
                "query", "--log", clinic_file, "--pattern", "GetRefer",
                "--mode", "count", "--journal", str(path),
            ])
        events = read_journal(path, validate=True)
        assert len({e["query_id"] for e in events}) == 2

    def test_the_terminal_event_carries_the_runs_stats_pairs(
        self, tmp_path, clinic_file, capsys
    ):
        path = tmp_path / "journal.jsonl"
        code = main([
            "query", "--log", clinic_file, "--pattern", CHAIN,
            "--journal", str(path), "--trace",
        ])
        assert code == 0
        out = capsys.readouterr().out
        events = read_journal(path, validate=True)
        assert [e["event"] for e in events] == ["submit", "finish"]
        assert len({e["query_id"] for e in events}) == 1
        assert events[-1]["pairs"] > 0
        assert f"traced / {events[-1]['pairs']} counted" in out

    def test_a_cached_run_journals_its_cache_probe(self, tmp_path, clinic_file):
        path = tmp_path / "journal.jsonl"
        code = main([
            "query", "--log", clinic_file, "--pattern", CHAIN,
            "--mode", "count", "--journal", str(path), "--cache",
        ])
        assert code == 0
        events = read_journal(path, validate=True)
        assert [e["event"] for e in events] == ["submit", "finish"]
        assert events[-1]["cache_result_hits"] == 0


class TestGovernorExitCode:
    def test_max_pairs_kill_exits_4(self, tmp_path, clinic_file, capsys):
        path = tmp_path / "journal.jsonl"
        code = main([
            "query", "--log", clinic_file, "--pattern", CHAIN,
            "--journal", str(path), "--max-pairs", "3",
        ])
        assert code == 4
        assert "killed:" in capsys.readouterr().err
        events = read_journal(path, validate=True)
        killed = events[-1]
        assert killed["event"] == "killed"
        assert killed["reason"] == "QueryBudgetExceeded"

    def test_kill_without_journal_still_exits_4(self, clinic_file, capsys):
        code = main([
            "query", "--log", clinic_file, "--pattern", CHAIN,
            "--max-pairs", "3",
        ])
        assert code == 4
        assert "max_pairs" in capsys.readouterr().err

    def test_generous_budgets_run_normally(self, clinic_file, capsys):
        code = main([
            "query", "--log", clinic_file, "--pattern", "GetRefer",
            "--mode", "count", "--deadline-ms", "60000",
            "--max-pairs", "1000000",
        ])
        assert code == 0
        assert int(capsys.readouterr().out.strip()) == 40

    def test_batch_kill_exits_4_with_terminal_event(
        self, tmp_path, clinic_file, capsys
    ):
        path = tmp_path / "journal.jsonl"
        code = main([
            "batch", "--log", clinic_file, CHAIN, "GetRefer -> CheckIn",
            "--journal", str(path), "--max-pairs", "3",
        ])
        assert code == 4
        events = read_journal(path, validate=True)
        assert events[-1]["event"] == "killed"


class TestBatchJournalFlag:
    def test_batch_journal_lifecycle(self, tmp_path, clinic_file):
        path = tmp_path / "journal.jsonl"
        code = main([
            "batch", "--log", clinic_file, CHAIN, "GetRefer -> CheckIn",
            "--journal", str(path),
        ])
        assert code == 0
        events = read_journal(path, validate=True)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "submit" and kinds[-1] == "finish"
        assert events[-1]["queries"] == 2


class TestEventsCommand:
    def test_lists_all_events_with_footer(self, journal_file, capsys):
        assert main(["events", "--journal", journal_file]) == 0
        out = capsys.readouterr().out
        assert "submit" in out and "finish" in out and "killed" in out
        assert "event(s) ---" in out

    def test_kind_filter(self, journal_file, capsys):
        assert main([
            "events", "--journal", journal_file, "--kind", "killed",
        ]) == 0
        out = capsys.readouterr().out
        assert "QueryBudgetExceeded" in out
        assert "--- 1 of" in out

    def test_slow_query_view(self, journal_file, capsys):
        assert main([
            "events", "--journal", journal_file, "--slow-ms", "0",
        ]) == 0
        # both terminal events qualify at threshold 0
        assert "--- 2 of" in capsys.readouterr().out

    def test_json_format_round_trips(self, journal_file, capsys):
        assert main([
            "events", "--journal", journal_file, "--format", "json",
            "--kind", "submit",
        ]) == 0
        events = json.loads(capsys.readouterr().out)
        assert len(events) == 2
        assert all(e["event"] == "submit" for e in events)

    def test_tail_limits_output(self, journal_file, capsys):
        assert main([
            "events", "--journal", journal_file, "--tail", "1",
            "--format", "json",
        ]) == 0
        events = json.loads(capsys.readouterr().out)
        assert len(events) == 1
        assert events[0]["event"] == "killed"

    def test_a_journal_written_by_the_deleted_fan_out_still_reads(
        self, journal_file, capsys
    ):
        """Nothing emits ``shard`` events any more; files on disk have them."""
        with open(journal_file, encoding="utf-8") as handle:
            submit = json.loads(handle.readline())
        old = dict(submit, event="shard", seq=99, shards=8, backend="process",
                   jobs=4, strategy="hash")
        del old["pattern"], old["op"]
        with open(journal_file, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(old) + "\n")
        assert read_journal(journal_file, validate=True)[-1]["event"] == "shard"
        assert main(["events", "--journal", journal_file, "--kind", "shard"]) == 0
        assert "shards=8 backend=process jobs=4" in capsys.readouterr().out

    def test_a_journal_holding_plan_cache_and_evaluate_events_still_reads(
        self, journal_file, capsys
    ):
        """Nothing emits them any more; files on disk have them between a
        run's ``submit`` and its terminal event."""
        with open(journal_file, encoding="utf-8") as handle:
            submit = json.loads(handle.readline())
        old = [
            dict(submit, event="plan", optimized=CHAIN, changed=False),
            dict(submit, event="cache", probe="result", hit=False),
            dict(submit, event="evaluate", pairs=12, incidents=3),
        ]
        with open(journal_file, "a", encoding="utf-8") as handle:
            for seq, event in enumerate(old, start=100):
                del event["pattern"], event["op"]
                handle.write(json.dumps(dict(event, seq=seq)) + "\n")
        events = read_journal(journal_file, validate=True)
        assert [e["event"] for e in events[-3:]] == ["plan", "cache", "evaluate"]
        assert main(["slo", "--journal", journal_file, "--format", "json"]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["replayed"] == 2
        assert main(["events", "--journal", journal_file, "--kind", "evaluate"]) == 0
        assert "--- 1 of 7 event(s) ---" in capsys.readouterr().out

    def test_missing_journal_is_a_usage_error(self, tmp_path, capsys):
        code = main(["events", "--journal", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_journal_reports_the_line(self, tmp_path, capsys):
        path = tmp_path / "journal.jsonl"
        path.write_text("not json\n")
        assert main(["events", "--journal", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err


class TestTopCommand:
    def test_ranks_patterns_with_kill_counts(self, journal_file, capsys):
        assert main(["top", "--journal", journal_file]) == 0
        out = capsys.readouterr().out
        assert "pattern" in out and CHAIN in out
        assert "ranked by wall_ms" in out

    def test_json_format_aggregates(self, journal_file, capsys):
        assert main([
            "top", "--journal", journal_file, "--format", "json",
            "--by", "pairs",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["pattern"] == CHAIN
        assert rows[0]["runs"] == 2
        assert rows[0]["killed"] == 1

    def test_missing_journal_is_a_usage_error(self, tmp_path, capsys):
        assert main(["top", "--journal", str(tmp_path / "no.jsonl")]) == 2


class TestSloCommand:
    def test_replays_journal_and_reports_breach(self, journal_file, capsys):
        # one finish + one kill at the same instant: 50% bad outcomes
        # against a 0.1% budget burns both windows -> breach, exit 1
        code = main(["slo", "--journal", journal_file])
        assert code == 1
        out = capsys.readouterr().out
        assert "replayed 2 terminal event(s)" in out
        assert "breaching: availability" in out

    def test_json_document_round_trips(self, journal_file, capsys):
        main(["slo", "--journal", journal_file, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["replayed"] == 2
        assert doc["stats"]["requests"] == 2
        assert doc["stats"]["killed"] == 1
        names = {row["name"] for row in doc["slo"]["objectives"]}
        assert names == {"availability", "latency"}
        assert "availability" in doc["slo"]["breaching"]

    def test_relaxed_target_passes_with_exit_0(self, journal_file, capsys):
        code = main([
            "slo", "--journal", journal_file,
            "--availability-target", "0.4",  # budget 60% > 50% bad
            "--latency-threshold-ms", "60000",
        ])
        assert code == 0
        assert "within budget" in capsys.readouterr().out

    def test_missing_journal_is_a_usage_error(self, tmp_path, capsys):
        assert main(["slo", "--journal", str(tmp_path / "no.jsonl")]) == 2

    def test_journal_without_terminals_is_a_usage_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["slo", "--journal", str(path)]) == 2
        assert "no terminal" in capsys.readouterr().err


class TestSloGolden:
    """``slo`` on a committed journal prints the bytes recorded when the
    CLI built its two-objective policy by hand."""

    GOLDEN = Path(__file__).parent / "obs" / "golden"
    CUSTOM = [
        "--availability-target", "0.5", "--latency-target", "0.9",
        "--latency-threshold-ms", "5", "--fast-window", "60",
        "--slow-window", "600", "--burn-threshold", "2", "--bucket", "5",
        "--window", "120",
    ]

    @pytest.mark.parametrize(
        "flags, golden, code",
        [
            (["--format", "json"], "slo.json", 1),
            (["--format", "json", *CUSTOM], "slo_custom.json", 1),
            ([], "slo.txt", 1),
        ],
    )
    def test_output_is_byte_identical(self, flags, golden, code, capsys):
        journal = str(self.GOLDEN / "journal.jsonl")
        assert main(["slo", "--journal", journal, *flags]) == code
        expected = (self.GOLDEN / golden).read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected


class TestFormatExitCodes:
    """A subcommand answers with the same exit code whichever ``--format``
    it prints: a script that switches to JSON keeps the verdict."""

    GOLDEN = Path(__file__).parent / "obs" / "golden" / "journal.jsonl"
    CASES = {
        "profile": (["--pattern", CHAIN], 0),
        "events": ([], 0),
        "top": ([], 0),
        "slo_breaching": ([], 1),
        "slo_within_budget": (["--availability-target", "0.01", "--latency-target", "0.01"], 0),
        "lint_clean": (["GetRefer -> CheckIn"], 0),
        "lint_error": (["CheckIn -> GetRefer", "--model", "clinic"], 1),
    }

    def test_every_subcommand_with_a_format_is_covered(self):
        import argparse

        from repro.cli import build_parser

        (commands,) = (
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        formatted = {
            name for name, parser in commands.choices.items()
            if any("--format" in action.option_strings for action in parser._actions)
        }
        assert formatted == {case.split("_")[0] for case in self.CASES}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_text_and_json_exit_alike(self, case, clinic_file, capsys):
        command = case.split("_")[0]
        flags, code = self.CASES[case]
        source = ["--log", clinic_file] if command == "profile" else (
            [] if command == "lint" else ["--journal", str(self.GOLDEN)]
        )
        argv = [command, *source, *flags]
        assert main(argv) == code
        capsys.readouterr()
        assert main([*argv, "--format", "json"]) == code
        json.loads(capsys.readouterr().out)
