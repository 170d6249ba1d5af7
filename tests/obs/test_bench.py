"""The benchmark harness: robust stats, registry, runner, history,
comparator, and the ``repro.obs.bench/v1`` schema contract."""

import json

import pytest

from repro.core.errors import ReproError
from repro.obs.bench import (
    BenchCase,
    BenchRegistry,
    append_history,
    case_series,
    compare_documents,
    default_registry,
    iqr,
    load_history,
    machine_fingerprint,
    mad,
    median,
    prune_history,
    quantile,
    reject_outliers,
    run_case,
    run_suite,
    summarize_samples,
)
from repro.obs.bench.stats import MAD_SCALE
from repro.obs.export import BENCH_SCHEMA, SchemaError, validate_bench


class TestStats:
    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_quantile_interpolates(self):
        samples = [0.0, 1.0, 2.0, 3.0]
        assert quantile(samples, 0.0) == 0.0
        assert quantile(samples, 1.0) == 3.0
        assert quantile(samples, 0.5) == median(samples)
        assert quantile(samples, 0.25) == pytest.approx(0.75)

    def test_iqr_and_mad(self):
        samples = [1.0, 2.0, 3.0, 4.0, 100.0]
        assert iqr(samples) == pytest.approx(2.0)
        # median 3, deviations [2, 1, 0, 1, 97] -> MAD 1
        assert mad(samples) == 1.0

    def test_reject_outliers_drops_far_tail(self):
        samples = [1.0, 1.1, 0.9, 1.05, 50.0]
        kept, rejected = reject_outliers(samples)
        assert rejected == [50.0]
        assert 50.0 not in kept

    def test_reject_outliers_zero_mad_keeps_all(self):
        # identical samples: no spread, nothing to judge against
        kept, rejected = reject_outliers([2.0, 2.0, 2.0, 9.0])
        # MAD is 0 -> no rejection even of the 9.0
        assert kept == [2.0, 2.0, 2.0, 9.0] and rejected == []

    def test_summary_counts_reconcile(self):
        samples = [1.0, 1.2, 0.8, 1.1, 99.0]
        stats = summarize_samples(samples)
        assert stats["n"] + stats["rejected"] == len(samples)
        assert stats["rejected"] == 1
        assert stats["min_s"] <= stats["median_s"] <= stats["max_s"]
        assert stats["mad_s"] == pytest.approx(mad([1.0, 1.2, 0.8, 1.1]) * MAD_SCALE)

    def test_empty_samples_raise(self):
        with pytest.raises(ValueError):
            median([])
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestRegistry:
    def _registry(self) -> BenchRegistry:
        registry = BenchRegistry()

        @registry.case("a.one", suites=("smoke", "full"), n=2)
        def _one(n):
            return lambda: n * n

        @registry.case("a.two", suites=("full",), n=3)
        def _two(n):
            return lambda: n + n

        return registry

    def test_select_by_suite_and_names(self):
        registry = self._registry()
        assert [c.name for c in registry.select(suite="smoke")] == ["a.one"]
        assert [c.name for c in registry.select(names=["a.two"])] == ["a.two"]
        assert len(registry.select()) == 2
        assert registry.suites() == ("full", "smoke")

    def test_duplicate_and_unknown_raise(self):
        registry = self._registry()
        with pytest.raises(ReproError):
            registry.add(BenchCase(name="a.one", setup=lambda: (lambda: None)))
        with pytest.raises(ReproError):
            registry.get("nope")
        with pytest.raises(ReproError):
            registry.select(suite="nope")

    def test_setup_must_return_callable(self):
        registry = BenchRegistry()

        @registry.case("bad.case")
        def _bad():
            return 42  # not callable

        with pytest.raises(ReproError):
            registry.get("bad.case").build()

    def test_default_registry_covers_all_scenarios(self):
        registry = default_registry()
        scenarios = {case.name.split(".")[0] for case in registry}
        assert scenarios == {
            "operators",
            "scaling",
            "kernel",
            "optimizer",
            "batch",
            "analysis",
            "incremental",
            "cache",
            "journal",
            "service",
            "reply",
            "live",
            "columnar",
            "sqlite",
        }
        assert "smoke" in registry.suites()
        # every smoke case is also a full case: full is the superset sweep
        for case in registry.select(suite="smoke"):
            assert "full" in case.suites


def _tiny_case(name: str = "tiny.case") -> BenchCase:
    return BenchCase(
        name=name,
        setup=lambda n: (lambda: sum(range(n))),
        suites=("smoke",),
        params={"n": 500},
    )


class TestRunner:
    def test_run_case_shape(self):
        entry = run_case(_tiny_case(), warmup=1, repeats=4)
        assert entry["name"] == "tiny.case"
        assert entry["params"] == {"n": 500}
        assert len(entry["samples_s"]) == 4
        assert entry["stats"]["n"] + entry["stats"]["rejected"] == 4
        assert all(s >= 0 for s in entry["samples_s"])

    def test_run_suite_document_validates(self):
        document = run_suite([_tiny_case()], suite="smoke", warmup=0, repeats=2)
        validate_bench(document)
        assert document["schema"] == BENCH_SCHEMA
        assert document["machine"] == machine_fingerprint()
        assert document["config"]["repeats"] == 2

    def test_invalid_repeats_and_empty_suite_raise(self):
        with pytest.raises(ValueError):
            run_case(_tiny_case(), repeats=0)
        with pytest.raises(ValueError):
            run_suite([], suite="smoke")

    def test_progress_hook_fires_per_case(self):
        seen = []
        run_suite(
            [_tiny_case("a.a"), _tiny_case("b.b")],
            suite="smoke",
            warmup=0,
            repeats=1,
            progress=lambda name, i, total: seen.append((name, i, total)),
        )
        assert seen == [("a.a", 0, 2), ("b.b", 1, 2)]


class TestHistory:
    def test_append_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        first = run_suite([_tiny_case()], suite="smoke", warmup=0, repeats=1)
        second = run_suite([_tiny_case()], suite="smoke", warmup=0, repeats=1)
        append_history(first, path)
        append_history(second, path)
        loaded = json.loads(path.read_text().splitlines()[0])
        assert loaded == first
        documents = load_history(path)
        assert [d["created_unix"] for d in documents] == [
            first["created_unix"],
            second["created_unix"],
        ]
        series = case_series(documents, "tiny.case")
        assert len(series) == 2
        assert series[0][1]["median_s"] == first["cases"][0]["stats"]["median_s"]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_corrupt_line_raises_with_position(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text('{"ok": 1}\nnot json\n', encoding="utf-8")
        with pytest.raises(ReproError, match="hist.jsonl:2"):
            load_history(path)


class TestPruneHistory:
    def _grown_history(self, tmp_path, runs: int):
        path = tmp_path / "hist.jsonl"
        for _ in range(runs):
            append_history(
                run_suite([_tiny_case()], suite="smoke", warmup=0, repeats=1),
                path,
            )
        return path

    def test_prune_keeps_the_newest_runs(self, tmp_path):
        path = self._grown_history(tmp_path, runs=5)
        before = load_history(path)
        dropped, kept = prune_history(path, keep=2)
        assert (dropped, kept) == (3, 2)
        assert load_history(path) == before[-2:]

    def test_within_limit_is_untouched(self, tmp_path):
        path = self._grown_history(tmp_path, runs=2)
        text = path.read_text(encoding="utf-8")
        assert prune_history(path, keep=5) == (0, 2)
        assert path.read_text(encoding="utf-8") == text

    def test_keep_zero_empties_the_file(self, tmp_path):
        path = self._grown_history(tmp_path, runs=3)
        assert prune_history(path, keep=0) == (3, 0)
        assert load_history(path) == []

    def test_missing_file_is_a_no_op(self, tmp_path):
        assert prune_history(tmp_path / "absent.jsonl", keep=3) == (0, 0)

    def test_negative_keep_raises(self, tmp_path):
        with pytest.raises(ReproError, match="--keep"):
            prune_history(tmp_path / "hist.jsonl", keep=-1)

    def test_corrupt_history_is_reported_not_truncated(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text('{"ok": 1}\nnot json\n', encoding="utf-8")
        with pytest.raises(ReproError, match="hist.jsonl:2"):
            prune_history(path, keep=1)
        assert "not json" in path.read_text(encoding="utf-8")


def _bench_document(medians_ms: dict, *, mad_ms: float = 0.05, machine=None) -> dict:
    """A hand-built, schema-valid document from recorded timings."""
    cases = []
    for name, median_ms in medians_ms.items():
        m = median_ms / 1e3
        spread = mad_ms / 1e3
        samples = [m - spread, m, m + spread]
        cases.append(
            {
                "name": name,
                "suites": ["smoke"],
                "params": {"n": 1},
                "samples_s": samples,
                "stats": summarize_samples(samples),
            }
        )
    return {
        "schema": BENCH_SCHEMA,
        "suite": "smoke",
        "created_unix": 1,
        "machine": dict(machine if machine is not None else machine_fingerprint()),
        "config": {"warmup": 1, "repeats": 3, "mad_k": 3.5},
        "cases": cases,
    }


class TestCompare:
    def test_identical_documents_pass(self):
        doc = _bench_document({"a.case": 10.0, "b.case": 1.0})
        report = compare_documents(doc, doc)
        assert report.ok
        assert {v.status for v in report.verdicts} == {"pass"}

    def test_two_x_slowdown_regresses(self):
        baseline = _bench_document({"a.case": 10.0})
        candidate = _bench_document({"a.case": 20.0})
        report = compare_documents(baseline, candidate)
        assert not report.ok
        (verdict,) = report.regressions
        assert verdict.name == "a.case"
        assert verdict.ratio == pytest.approx(2.0, rel=0.05)
        assert "REGRESS" in report.format()

    def test_improvement_is_informational(self):
        report = compare_documents(
            _bench_document({"a.case": 20.0}), _bench_document({"a.case": 10.0})
        )
        assert report.ok
        assert report.verdicts[0].status == "improve"

    def test_noise_floor_absorbs_tiny_absolute_deltas(self):
        # 2x relative, but 0.04ms absolute: under the 0.1ms hard floor
        report = compare_documents(
            _bench_document({"a.case": 0.04}), _bench_document({"a.case": 0.08})
        )
        assert report.ok

    def test_mad_noise_floor_absorbs_jittery_cases(self):
        # +30% median move, but the recorded spread is wider than the move
        report = compare_documents(
            _bench_document({"a.case": 10.0}, mad_ms=2.0),
            _bench_document({"a.case": 13.0}, mad_ms=2.0),
        )
        assert report.ok
        assert report.verdicts[0].status == "pass"

    def test_missing_case_fails_and_new_case_passes(self):
        baseline = _bench_document({"a.case": 10.0, "b.case": 10.0})
        candidate = _bench_document({"a.case": 10.0, "c.case": 10.0})
        report = compare_documents(baseline, candidate)
        statuses = {v.name: v.status for v in report.verdicts}
        assert statuses == {"a.case": "pass", "b.case": "missing", "c.case": "new"}
        assert not report.ok  # dropped coverage gates

    def test_changed_params_mark_baseline_stale(self):
        baseline = _bench_document({"a.case": 10.0})
        candidate = _bench_document({"a.case": 10.0})
        candidate["cases"][0]["params"] = {"n": 999}
        report = compare_documents(baseline, candidate)
        assert report.verdicts[0].status == "missing"
        assert not report.ok

    def test_machine_mismatch_demotes_timing_verdicts(self):
        other = dict(machine_fingerprint(), cpu_count=999)
        baseline = _bench_document({"a.case": 10.0}, machine=other)
        candidate = _bench_document({"a.case": 20.0})
        report = compare_documents(baseline, candidate)
        assert not report.machine_matches
        assert report.regressions  # still reported ...
        assert report.ok  # ... but advisory across machines
        assert "MACHINES DIFFER" in report.format()


class TestBenchSchema:
    def _document(self):
        return _bench_document({"a.case": 10.0})

    def test_valid_document_passes(self):
        validate_bench(self._document())

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("schema"),
            lambda d: d.update(schema="repro.obs.bench/v2"),
            lambda d: d.pop("machine"),
            lambda d: d["machine"].pop("cpu_count"),
            lambda d: d["config"].pop("repeats"),
            lambda d: d.update(cases=[]),
            lambda d: d["cases"][0].pop("stats"),
            lambda d: d["cases"][0]["stats"].pop("median_s"),
            lambda d: d["cases"][0]["stats"].update(median_s=-1.0),
            lambda d: d["cases"][0]["stats"].update(n=99),
            lambda d: d["cases"][0]["samples_s"].append("fast"),
            lambda d: d["cases"].append(dict(d["cases"][0])),  # duplicate name
        ],
    )
    def test_mutations_fail(self, mutate):
        document = self._document()
        mutate(document)
        with pytest.raises(SchemaError):
            validate_bench(document)

    def test_smoke_cases_execute_and_validate(self):
        # one repetition of two real registry cases, end to end
        registry = default_registry()
        cases = registry.select(
            names=["optimizer.planning_overhead", "scaling.atomic_indexed"]
        )
        document = run_suite(cases, suite="custom", warmup=0, repeats=1)
        validate_bench(document)
        report = compare_documents(document, document)
        assert report.ok
