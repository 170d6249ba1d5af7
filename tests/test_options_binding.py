"""One evaluation configuration on every surface: ``EngineOptions``.

The CLI builds it from argv in one function for ``query``, ``batch`` and
``profile``; ``evaluate_batch`` and ``profile_query`` take it in place of
their keyword arguments; the deleted spellings fail loudly.
"""

from dataclasses import fields

import pytest

from repro.cache import CachePolicy, QueryCache
from repro.cli import _engine_options, build_parser
from repro.core.errors import QueryBudgetExceeded, ReproError
from repro.core.options import EngineOptions
from repro.core.query import Query
from repro.exec.batch import evaluate_batch
from repro.obs.journal import QueryJournal
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import profile_query
from repro.obs.tracer import Tracer

COMMANDS = {
    "query": ["query", "--log", "x.jsonl", "--pattern", "A"],
    "batch": ["batch", "--log", "x.jsonl", "A"],
    "profile": ["profile", "--log", "x.jsonl", "--pattern", "A"],
}


def _is(kind):
    return lambda value: isinstance(value, kind)


def _cache(**policy):
    expected = CachePolicy(**policy)
    return lambda value: isinstance(value, QueryCache) and value.policy == expected


#: (commands that have the flag, argv, {field: expected value or check})
FLAGS = [
    (("query", "profile"), ["--engine", "naive"], {"engine": "naive"}),
    (("query", "batch", "profile"), ["--no-optimize"], {"optimize": False}),
    (("query", "batch", "profile"), ["--max-incidents", "7"], {"max_incidents": 7}),
    (("query", "batch"), ["--deadline-ms", "250"], {"deadline_ms": 250.0}),
    (("query", "batch"), ["--max-pairs", "9"], {"max_pairs": 9}),
    (("query", "batch"), ["--cache"], {"cache": _cache()}),
    (
        ("query",),
        ["--cache", "--cache-bytes", "4096"],
        {"cache": _cache(result_budget_bytes=4096)},
    ),
    (("query",), ["--cache-bytes", "4096"], {}),  # a budget alone caches nothing
    (("query",), ["--trace"], {"tracer": _is(Tracer)}),
    (("query",), ["--metrics"], {"metrics": _is(MetricsRegistry)}),
    (("query",), ["--metrics-format", "prom"], {"metrics": _is(MetricsRegistry)}),
    (("query", "batch"), ["--journal", "{journal}"], {"journal": _is(QueryJournal)}),
]

CASES = [
    pytest.param(
        command, argv, expected, id="_".join([command, *(a.lstrip("-") for a in argv)])
    )
    for commands, argv, expected in FLAGS
    for command in commands
]


@pytest.mark.parametrize("command, argv, expected", CASES)
def test_the_cli_builder_returns_the_options_the_flags_ask_for(
    tmp_path, command, argv, expected
):
    journal_path = str(tmp_path / "journal.jsonl")
    argv = [arg.replace("{journal}", journal_path) for arg in argv]
    options = _engine_options(build_parser().parse_args(COMMANDS[command] + argv))
    try:
        defaults = EngineOptions()
        for field in fields(EngineOptions):
            value, want = getattr(options, field.name), expected.get(field.name)
            if callable(want):
                assert want(value), (field.name, value)
            elif field.name in expected:
                assert value == want, field.name
            else:
                assert value == getattr(defaults, field.name), field.name
        if "journal" in expected:
            assert options.journal.path == journal_path
    finally:
        if options.journal is not None:
            options.journal.close()


def test_the_cache_and_journal_share_the_metrics_registry(tmp_path):
    args = build_parser().parse_args(
        COMMANDS["query"]
        + ["--metrics", "--cache", "--journal", str(tmp_path / "j.jsonl")]
    )
    options = _engine_options(args)
    options.journal.close()
    assert options.cache.metrics is options.metrics
    assert options.journal.metrics is options.metrics


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_bare_command_line_is_the_default_options(command):
    options = _engine_options(build_parser().parse_args(COMMANDS[command]))
    assert options == EngineOptions()
    assert (options.tracer, options.metrics, options.journal) == (None, None, None)


class TestDeletedSpellings:
    def test_evaluate_batch_keywords_are_type_errors(self, clinic_log):
        with pytest.raises(TypeError):
            evaluate_batch(clinic_log, ["GetRefer"], optimize=False)
        with pytest.raises(TypeError):
            Query.evaluate_batch(clinic_log, ["GetRefer"], max_pairs=10)

    def test_profile_query_keywords_are_type_errors(self, clinic_log):
        with pytest.raises(TypeError):
            profile_query(clinic_log, "GetRefer", engine="naive")

    def test_clamped_options_is_gone(self):
        with pytest.raises(ImportError):
            from repro.service import ClampedOptions  # noqa: F401
        with pytest.raises(ImportError):
            from repro.service.config import ClampedOptions  # noqa: F401,F811


class TestBatchOptions:
    @pytest.mark.parametrize("engine", ["naive", "sqlite"])
    def test_a_non_kernel_engine_is_refused(self, clinic_log, engine):
        with pytest.raises(ReproError, match="shared scan"):
            evaluate_batch(clinic_log, ["GetRefer"], EngineOptions(engine=engine))

    def test_the_facade_forwards_options_and_analyze(self, clinic_log):
        patterns = ["GetRefer ; CheckIn", "GetRefer -> CheckIn"]
        options = EngineOptions(optimize=False)
        direct = evaluate_batch(clinic_log, patterns, options, analyze=False)
        facade = Query.evaluate_batch(clinic_log, patterns, options, analyze=False)
        assert facade.subsumed == direct.subsumed == 0
        assert [r.to_rows() for r in facade] == [r.to_rows() for r in direct]


class TestProfileOptions:
    def test_engine_and_optimizer_come_from_the_options(self, clinic_log):
        report = profile_query(
            clinic_log, "GetRefer -> CheckIn", EngineOptions(engine="naive", optimize=False)
        )
        assert report.engine == "naive"
        assert report.transformations == ["optimization disabled"]

    def test_budgets_govern_the_profiled_run(self, clinic_log):
        with pytest.raises(QueryBudgetExceeded):
            profile_query(
                clinic_log, "GetRefer -> CheckIn -> SeeDoctor", EngineOptions(max_pairs=3)
            )

    def test_a_given_tracer_and_registry_are_used(self, clinic_log):
        tracer, registry = Tracer(), MetricsRegistry()
        report = profile_query(
            clinic_log, "GetRefer -> CheckIn", EngineOptions(tracer=tracer, metrics=registry)
        )
        assert report.trace is tracer.last_root
        assert report.registry is registry

    def test_a_cached_profile_is_refused(self, clinic_log):
        with pytest.raises(ReproError, match="cold"):
            profile_query(clinic_log, "GetRefer", EngineOptions(cache=True))
