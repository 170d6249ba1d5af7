"""CLI surfaces of the query-lifecycle journal and resource governor.

``query``/``batch --journal/--deadline-ms/--max-pairs``, the governor's
dedicated exit code 4, and the ``events`` / ``top`` / ``bench history``
inspection subcommands, all driven through ``repro.cli.main`` in-process.
"""

import json

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

    def test_one_evaluate_event_carries_the_finish_pairs(
        self, tmp_path, clinic_file
    ):
        path = tmp_path / "journal.jsonl"
        code = main([
            "query", "--log", clinic_file, "--pattern", CHAIN,
            "--journal", str(path),
        ])
        assert code == 0
        events = read_journal(path, validate=True)
        assert len({e["query_id"] for e in events}) == 1
        (evaluate,) = [e for e in events if e["event"] == "evaluate"]
        assert evaluate["pairs"] == events[-1]["pairs"] > 0


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


class TestBenchHistoryCommand:
    def _record_runs(self, tmp_path, runs: int) -> str:
        history = str(tmp_path / "hist.jsonl")
        for n in range(runs):
            assert main([
                "bench", "run", "--case", "operators.choice",
                "--repeats", "1", "--warmup", "0",
                "--out", str(tmp_path / f"out{n}.json"),
                "--history", history,
            ]) == 0
        return history

    def test_lists_recorded_runs(self, tmp_path, capsys):
        history = self._record_runs(tmp_path, 2)
        capsys.readouterr()
        assert main(["bench", "history", "--history", history]) == 0
        out = capsys.readouterr().out
        assert "showing 2 of 2 recorded run(s)" in out
        assert "sum-of-medians" in out

    def test_tail_shows_newest(self, tmp_path, capsys):
        history = self._record_runs(tmp_path, 3)
        capsys.readouterr()
        assert main([
            "bench", "history", "--history", history, "--tail", "1",
        ]) == 0
        assert "showing 1 of 3" in capsys.readouterr().out

    def test_prune_keeps_newest(self, tmp_path, capsys):
        history = self._record_runs(tmp_path, 3)
        capsys.readouterr()
        assert main([
            "bench", "history", "--history", history, "--prune", "--keep", "1",
        ]) == 0
        assert "pruned 2 run(s), kept 1" in capsys.readouterr().out
        assert main(["bench", "history", "--history", history]) == 0
        assert "showing 1 of 1" in capsys.readouterr().out

    def test_empty_history_reports_cleanly(self, tmp_path, capsys):
        absent = str(tmp_path / "none.jsonl")
        assert main(["bench", "history", "--history", absent]) == 0
        assert "no history" in capsys.readouterr().out
