"""CLI surface of the batch command, and of the deleted parallel flags:
a command line naming one gets argparse's usage error, never a silent
serial run."""

import pytest

from repro.cli import main
from repro.logstore.io_jsonl import write_jsonl


@pytest.fixture()
def clinic_file(tmp_path, clinic_log):
    path = tmp_path / "clinic.jsonl"
    write_jsonl(clinic_log, path)
    return str(path)


#: (subcommand, its required arguments, the deleted flag)
REMOVED_FLAGS = [
    ("query", ["--pattern", "GetRefer"], ["--jobs", "2"]),
    ("query", ["--pattern", "GetRefer"], ["--backend", "sqlite"]),
    ("query", ["--pattern", "GetRefer"], ["--progress"]),
    ("profile", ["--pattern", "GetRefer"], ["--jobs", "2"]),
    ("batch", ["GetRefer"], ["--jobs", "2"]),
    ("batch", ["GetRefer"], ["--backend", "process"]),
]


class TestRemovedFlags:
    @pytest.mark.parametrize(
        "command,required,flag",
        REMOVED_FLAGS,
        ids=[f"{command} {flag[0]}" for command, _, flag in REMOVED_FLAGS],
    )
    def test_removed_flag_is_a_usage_error(
        self, clinic_file, capsys, command, required, flag
    ):
        with pytest.raises(SystemExit) as info:
            main([command, "--log", clinic_file, *required, *flag])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_jobs_ceiling_is_a_usage_error(self, clinic_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["serve", "--store", f"clinic={clinic_file}",
                  "--jobs-ceiling", "4"])
        assert info.value.code == 2
        assert "--jobs-ceiling" in capsys.readouterr().err


class TestBatch:
    def test_positional_patterns(self, clinic_file, capsys):
        code = main(["batch", "--log", clinic_file,
                     "GetRefer -> CheckIn", "GetRefer -> CheckIn -> SeeDoctor"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].split()[0] == "40"
        assert "GetRefer -> CheckIn" in lines[0]
        assert "2 query(ies)" in lines[-1]
        assert "shared subpattern hit(s)" in lines[-1]

    def test_queries_file(self, clinic_file, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "# pathway checks\n"
            "GetRefer -> CheckIn\n"
            "\n"
            "GetRefer -> CheckIn -> SeeDoctor\n"
        )
        code = main(["batch", "--log", clinic_file,
                     "--queries", str(queries)])
        assert code == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3  # 2 queries + summary
        assert "2 query(ies)" in out

    def test_no_patterns_is_an_error(self, clinic_file, capsys):
        code = main(["batch", "--log", clinic_file])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_pattern_reports_error(self, clinic_file, capsys):
        code = main(["batch", "--log", clinic_file, "A ->"])
        assert code == 2
        assert "error" in capsys.readouterr().err

