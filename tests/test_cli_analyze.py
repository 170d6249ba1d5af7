"""CLI tests for ``repro-logs analyze`` and the analysis-aware flags of
``lint``, ``batch`` and ``query``.

Exit-code contract under test (documented in docs/QUERY_LANGUAGE.md §6
and docs/ANALYSIS.md):

* ``analyze``: 0 property holds / rules sound, 1 refuted / unsound,
  2 usage or syntax error, 3 internal error.
* ``lint``: 0 clean or warnings/info only, 1 error-severity findings,
  2 syntax/usage error, 3 internal error — "diagnostics found" and
  "the linter itself blew up" are distinguishable in CI.
"""

import pytest

from repro.cli import main
from repro.core.lint import Linter
from repro.logstore.io_jsonl import write_jsonl


@pytest.fixture()
def ab_file(tmp_path):
    from repro.core.model import Log

    log = Log.from_traces(
        {1: ["A", "B", "A"], 2: ["B", "A"], 3: ["A", "Z", "B"]}
    )
    path = tmp_path / "ab.jsonl"
    write_jsonl(log, path)
    return str(path)


class TestAnalyzeRules:
    def test_shipped_rules_are_sound_exit_zero(self, capsys):
        assert main(["analyze", "--rules"]) == 0
        out = capsys.readouterr().out
        assert "all rules sound" in out
        assert "push-choice-out" in out

    def test_samples_flag_is_accepted(self, capsys):
        assert main(["analyze", "--rules", "--samples", "5"]) == 0


class TestAnalyzeEquivalent:
    def test_equivalent_pair_exits_zero(self, capsys):
        code = main(["analyze", "--equivalent", "A & B",
                     "(A -> B) | (B -> A)"])
        assert code == 0
        assert "equivalent" in capsys.readouterr().out

    def test_refuted_pair_exits_one_with_witness(self, capsys):
        code = main(["analyze", "--equivalent", "A -> B", "A ; B"])
        assert code == 1
        out = capsys.readouterr().out
        assert "not equivalent" in out
        assert "counterexample trace" in out

    def test_syntax_error_exits_two(self, capsys):
        assert main(["analyze", "--equivalent", "A ->", "B"]) == 2
        assert "error" in capsys.readouterr().err


class TestAnalyzeContains:
    def test_containment_holds_exits_zero(self, capsys):
        code = main(["analyze", "--contains", "A ; B", "A -> B"])
        assert code == 0
        assert "contained" in capsys.readouterr().out

    def test_refuted_containment_exits_one_with_witness(self, capsys):
        code = main(["analyze", "--contains", "A -> B", "A ; B"])
        assert code == 1
        out = capsys.readouterr().out
        assert "not contained" in out
        assert "counterexample trace" in out

    def test_no_mode_is_a_usage_error(self, capsys):
        assert main(["analyze"]) == 2
        assert "error" in capsys.readouterr().err

    def test_budget_overflow_is_a_usage_error(self, capsys):
        code = main(["analyze", "--max-states", "2",
                     "--contains", "A -> B -> A -> B", "A"])
        assert code == 2


class TestLintExitCodes:
    def test_error_diagnostics_exit_one_internal_error_exits_three(
        self, monkeypatch, capsys
    ):
        assert main(["lint", "CheckIn -> GetRefer", "--model", "clinic"]) == 1
        capsys.readouterr()

        def boom(self, *args, **kwargs):
            raise RuntimeError("linter bug")

        monkeypatch.setattr(Linter, "lint", boom)
        assert main(["lint", "A ; B"]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_warnings_and_proved_subsumption_exit_zero(self, capsys):
        code = main(["lint", "(A ; B) | (A -> B)"])
        assert code == 0
        assert "QW502" in capsys.readouterr().out


class TestBatchAnalysisFlags:
    #: one identity (⊗ is commutative, Theorem 3)
    EQUIVALENT = ["(A -> B) | (B -> A)", "(B -> A) | (A -> B)"]
    #: equivalent (Definition 5), but only the prover shows it
    PROVED = ["A & B", "(A -> B) | (B -> A)"]

    def test_batch_reports_subsumption_in_the_summary(self, ab_file, capsys):
        code = main(["batch", "--log", ab_file, *self.EQUIVALENT])
        assert code == 0
        captured = capsys.readouterr()
        assert "1 subsumed" in captured.out
        assert "QW501" in captured.err  # pre-flight lint on stderr
        # a strictly contained pair and a prover-only pair are scanned
        # twice: no skip, no finding
        for pair in (["A ; B", "A -> B"], self.PROVED):
            assert main(["batch", "--log", ab_file, *pair]) == 0
            captured = capsys.readouterr()
            assert "0 subsumed" in captured.out
            assert "QW501" not in captured.err

    def test_no_analyze_is_gone_and_no_lint_silences_qw501(self, ab_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["batch", "--log", ab_file, *self.EQUIVALENT, "--no-analyze"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-analyze" in capsys.readouterr().err
        assert main(["batch", "--log", ab_file, *self.EQUIVALENT, "--no-lint"]) == 0
        captured = capsys.readouterr()
        assert "1 subsumed" in captured.out
        assert "QW501" not in captured.err

    def test_subsumed_batch_output_matches_independent_queries(
        self, ab_file, capsys
    ):
        main(["batch", "--log", ab_file, *self.EQUIVALENT, *self.PROVED, "--no-lint"])
        together = capsys.readouterr().out.splitlines()
        alone = []
        for text in [*self.EQUIVALENT, *self.PROVED]:
            main(["batch", "--log", ab_file, text, "--no-lint"])
            alone += capsys.readouterr().out.splitlines()[:-1]
        # per-query lines identical; only the trailing summary differs
        assert together[:-1] == alone
