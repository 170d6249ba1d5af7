"""The query-lifecycle journal (repro.obs.journal).

Covers the event constructor and sinks, the structural and cross-event
validators behind ``read_journal(validate=True)``, the views backing
``repro-logs events`` / ``repro-logs top``, the full lifecycle a
``Query`` records, and the property that enabling the journal never
changes query results.
"""

import io
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.governor import QueryContext
from repro.core.model import Log
from repro.core.options import EngineOptions
from repro.core.pattern import Atomic, Choice, Consecutive, Parallel, Sequential
from repro.core.query import Query
from repro.obs.export import SchemaError
from repro.obs.journal import (
    EVENT_KINDS,
    JOURNAL_SCHEMA,
    TERMINAL_KINDS,
    TOP_KEYS,
    QueryJournal,
    ResourceAccount,
    RunRecorder,
    filter_events,
    make_event,
    read_journal,
    slow_queries,
    top_patterns,
    validate_journal,
    validate_journal_event,
)
from repro.obs.metrics import MetricsRegistry


def _ids(n: int = 1) -> dict:
    return {"query_id": f"q-{n:016x}", "trace_id": f"t-{n:016x}"}


def _terminal(pattern="A", wall_ms=1.0, kind="finish", n=1, **extra):
    payload = {
        "pattern": pattern,
        "wall_ms": wall_ms,
        "pairs": extra.pop("pairs", 0),
    }
    if kind == "finish":
        payload.update(status="ok", cpu_ms=extra.pop("cpu_ms", 0.5), incidents=0)
    else:
        payload.update(reason="QueryTimeout")
    payload.update(extra)
    return make_event(kind, **_ids(n), **payload)


class TestMakeEvent:
    def test_stamps_schema_ids_timestamp_and_pid(self):
        event = make_event("submit", **_ids(), pattern="A", op="run")
        assert event["schema"] == JOURNAL_SCHEMA
        assert event["event"] == "submit"
        assert event["query_id"] and event["trace_id"]
        assert event["ts_unix"] > 0 and event["pid"] >= 1
        assert "seq" not in event  # assigned on adoption, not construction

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown journal event kind"):
            make_event("reticulate", **_ids())


class TestQueryJournal:
    def test_memory_sink_sequences_events(self):
        journal = QueryJournal()
        journal.emit("submit", **_ids(), pattern="A", op="run")
        journal.write(_terminal())
        assert [e["seq"] for e in journal.events] == [0, 1]

    def test_path_sink_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with QueryJournal(path) as journal:
            journal.emit("submit", **_ids(), pattern="A", op="run")
            journal.emit("submit", **_ids(2), pattern="B", op="count")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["seq"] for line in lines] == [0, 1]
        assert journal.events == []  # streamed, not buffered

    def test_path_sink_appends_across_journals(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        for n in (1, 2):
            with QueryJournal(path) as journal:
                journal.emit("submit", **_ids(n), pattern="A", op="run")
        assert len(path.read_text().splitlines()) == 2

    def test_stream_sink_is_not_closed_by_close(self):
        stream = io.StringIO()
        journal = QueryJournal(stream)
        journal.emit("submit", **_ids(), pattern="A", op="run")
        journal.close()
        assert not stream.closed
        assert json.loads(stream.getvalue())["event"] == "submit"

    def test_write_resequences_adopted_worker_events(self):
        journal = QueryJournal()
        journal.emit("submit", **_ids(), pattern="A", op="run")
        worker_event = make_event("evaluate", **_ids(), pairs=7, incidents=2)
        adopted = journal.write(worker_event)
        assert adopted["seq"] == 1
        assert adopted["pairs"] == 7

    def test_metrics_counter_labelled_by_kind(self):
        registry = MetricsRegistry()
        journal = QueryJournal(metrics=registry)
        journal.emit("submit", **_ids(), pattern="A", op="run")
        journal.emit("submit", **_ids(2), pattern="B", op="run")
        journal.write(_terminal())
        counters = registry.snapshot()["counters"]
        assert counters['journal.events{event="submit"}'] == 2
        assert counters['journal.events{event="finish"}'] == 1


class TestResourceAccount:
    def test_measures_wall_cpu_and_peak(self):
        account = ResourceAccount()
        account.start()
        blob = [list(range(100)) for _ in range(100)]
        account.stop()
        assert account.wall_ms is not None and account.wall_ms >= 0
        assert account.cpu_ms is not None and account.cpu_ms >= 0
        assert account.peak_alloc_bytes is not None and account.peak_alloc_bytes > 0
        del blob

    def test_memory_off_skips_tracemalloc(self):
        account = ResourceAccount(memory=False)
        account.start()
        account.stop()
        assert account.wall_ms is not None
        assert account.peak_alloc_bytes is None

    def test_stop_without_start_is_safe(self):
        account = ResourceAccount()
        account.stop()
        assert account.wall_ms is None


class TestRunRecorder:
    def test_lifecycle_events_share_the_context_ids(self):
        journal = QueryJournal(memory=False)
        ctx = QueryContext.new()
        recorder = RunRecorder(journal, ctx, pattern="A -> B")
        recorder.submit()
        recorder.plan(optimized="A -> B", changed=False)
        recorder.evaluate(pairs=4, incidents=1)
        assert not recorder.closed
        recorder.finish(incidents=1)
        assert recorder.closed
        kinds = [e["event"] for e in journal.events]
        assert kinds == ["submit", "plan", "evaluate", "finish"]
        assert {e["query_id"] for e in journal.events} == {ctx.query_id}
        assert {e["trace_id"] for e in journal.events} == {ctx.trace_id}
        validate_journal(journal.events)

    def test_submit_records_budgets(self):
        journal = QueryJournal()
        ctx = QueryContext.new(deadline_ms=250, max_pairs=10)
        RunRecorder(journal, ctx, pattern="A").submit()
        submit = journal.events[0]
        assert submit["deadline_ms"] == 250
        assert submit["max_pairs"] == 10

    def test_killed_carries_partial_stats_pairs(self):
        from repro.core.errors import QueryBudgetExceeded
        from repro.core.eval.base import EvaluationStats

        stats = EvaluationStats()
        stats.pairs_examined = 17
        exc = QueryBudgetExceeded(
            "too much", limit=10, examined=17, partial_stats=stats
        )
        journal = QueryJournal(memory=False)
        recorder = RunRecorder(journal, QueryContext.new(), pattern="A")
        recorder.submit()
        event = recorder.killed(exc)
        assert event["event"] == "killed"
        assert event["reason"] == "QueryBudgetExceeded"
        assert event["pairs"] == 17
        assert recorder.closed
        validate_journal(journal.events)


class TestValidation:
    def test_valid_terminal_event_passes(self):
        event = dict(_terminal(), seq=0)
        validate_journal_event(event)

    @pytest.mark.parametrize("kind", EVENT_KINDS)
    def test_every_kind_has_field_requirements(self, kind):
        # a bare envelope with no payload must fail for every kind
        event = dict(make_event(kind, **_ids()), seq=0)
        with pytest.raises(SchemaError):
            validate_journal_event(event)
        assert set(TERMINAL_KINDS) <= set(EVENT_KINDS)

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ({"schema": "nope/v9"}, "schema"),
            ({"event": "reticulate"}, "event must be one of"),
            ({"query_id": ""}, "query_id"),
            ({"trace_id": None}, "trace_id"),
            ({"ts_unix": -1}, "ts_unix"),
            ({"seq": -1}, "seq"),
            ({"seq": True}, "seq"),
            ({"pid": 0}, "pid"),
            ({"wall_ms": "fast"}, "wall_ms"),
            ({"pairs": -2}, "pairs"),
            ({"status": ""}, "status"),
        ],
    )
    def test_rejects_each_structural_violation(self, mutation, message):
        event = dict(_terminal(), seq=0)
        event.update(mutation)
        with pytest.raises(SchemaError, match=message):
            validate_journal_event(event)

    def test_not_an_object_fails(self):
        with pytest.raises(SchemaError, match="must be an object"):
            validate_journal_event([1, 2, 3])

    def test_journal_invariant_terminal_requires_submit(self):
        events = [dict(_terminal(), seq=0)]
        with pytest.raises(SchemaError, match="without a submit"):
            validate_journal(events)

    def test_journal_invariant_one_terminal_per_query(self):
        submit = dict(
            make_event("submit", **_ids(), pattern="A", op="run"), seq=0
        )
        events = [submit, dict(_terminal(), seq=1), dict(_terminal(), seq=2)]
        with pytest.raises(SchemaError, match="two terminal events"):
            validate_journal(events)

    def test_validate_journal_counts_and_prefixes_errors(self):
        submit = dict(
            make_event("submit", **_ids(), pattern="A", op="run"), seq=0
        )
        assert validate_journal([submit, dict(_terminal(), seq=1)]) == 2
        with pytest.raises(SchemaError, match="event 1:"):
            validate_journal([submit, {"schema": "bad"}])


class TestReadJournal:
    def test_round_trips_a_written_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with QueryJournal(path, memory=False) as journal:
            recorder = RunRecorder(
                journal, QueryContext.new(), pattern="A"
            )
            recorder.submit()
            recorder.finish()
        events = read_journal(path, validate=True)
        assert [e["event"] for e in events] == ["submit", "finish"]

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        event = json.dumps(dict(_terminal(), seq=0))
        path.write_text(f"\n{event}\n\n")
        assert len(read_journal(path)) == 1

    def test_malformed_json_names_the_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(SchemaError, match="line 2"):
            read_journal(path)

    def test_accepts_open_streams(self):
        stream = io.StringIO(json.dumps(dict(_terminal(), seq=0)) + "\n")
        assert len(read_journal(stream)) == 1


class TestViews:
    def _sample_events(self):
        submit = dict(
            make_event("submit", **_ids(1), pattern="A -> B", op="run"), seq=0
        )
        fast = dict(_terminal(pattern="A -> B", wall_ms=1.0, n=1), seq=1)
        slow = dict(
            _terminal(pattern="C", wall_ms=50.0, n=2, pairs=9, cpu_ms=40.0), seq=2
        )
        killed = dict(
            _terminal(pattern="C", wall_ms=80.0, kind="killed", n=3, pairs=100),
            seq=3,
        )
        return [submit, fast, slow, killed]

    def test_filter_by_query_id_kind_and_pattern(self):
        events = self._sample_events()
        qid = events[0]["query_id"]
        assert len(filter_events(events, query_id=qid)) == 2
        assert len(filter_events(events, kinds=["killed"])) == 1
        assert len(filter_events(events, pattern="C")) == 2
        assert (
            len(filter_events(events, kinds=["finish"], pattern="A")) == 1
        )
        assert filter_events(events) == [dict(e) for e in events]

    def test_slow_queries_sorted_slowest_first(self):
        slow = slow_queries(self._sample_events(), threshold_ms=10.0)
        assert [e["wall_ms"] for e in slow] == [80.0, 50.0]
        assert slow_queries(self._sample_events(), threshold_ms=1000.0) == []

    def test_top_patterns_aggregates_terminals(self):
        rows = top_patterns(self._sample_events(), by="wall_ms")
        assert rows[0]["pattern"] == "C"
        assert rows[0]["runs"] == 2
        assert rows[0]["killed"] == 1
        assert rows[0]["wall_ms"] == 130.0
        assert rows[0]["pairs"] == 109
        assert rows[1]["pattern"] == "A -> B"

    def test_top_patterns_limit_and_keys(self):
        events = self._sample_events()
        assert len(top_patterns(events, limit=1)) == 1
        for key in TOP_KEYS:
            top_patterns(events, by=key)
        with pytest.raises(SchemaError, match="cannot rank by"):
            top_patterns(events, by="vibes")


class TestConcurrentWriters:
    """One journal, many writer threads, views reading mid-flight.

    The journal's single lock must keep ``seq`` a gap-free monotonic
    series, and the views must tolerate reading the in-memory event list
    while it is still growing (they observe a prefix, never a torn
    event)."""

    WRITERS = 8
    LIFECYCLES = 50

    def _hammer(self, journal):
        import threading

        def write(worker: int) -> None:
            for i in range(self.LIFECYCLES):
                n = worker * self.LIFECYCLES + i
                journal.emit(
                    "submit", **_ids(n), pattern=f"P{worker}", op="run"
                )
                journal.write(
                    _terminal(
                        pattern=f"P{worker}",
                        wall_ms=float(worker + 1),
                        kind="finish" if i % 5 else "killed",
                        n=n,
                        pairs=worker,
                    )
                )

        threads = [
            threading.Thread(target=write, args=(w,)) for w in range(self.WRITERS)
        ]
        for thread in threads:
            thread.start()
        return threads

    def test_views_are_safe_and_exact_under_concurrent_writes(self):
        journal = QueryJournal()
        threads = self._hammer(journal)
        # read while writers are live: views must not raise, and every
        # observed prefix is internally consistent (runs >= killed)
        for _ in range(50):
            for row in top_patterns(list(journal.events), by="wall_ms"):
                assert row["runs"] >= row["killed"] >= 0
            slow_queries(list(journal.events), threshold_ms=0.0)
            filter_events(list(journal.events), kinds=["killed"])
        for thread in threads:
            thread.join()

        events = journal.events
        total = self.WRITERS * self.LIFECYCLES * 2
        assert len(events) == total
        assert [e["seq"] for e in events] == list(range(total))  # gap-free
        assert validate_journal(events) == total
        rows = top_patterns(events, by="runs", limit=self.WRITERS)
        assert len(rows) == self.WRITERS
        for row in rows:
            assert row["runs"] == self.LIFECYCLES
            assert row["killed"] == self.LIFECYCLES // 5
        killed = filter_events(events, kinds=["killed"])
        assert len(killed) == self.WRITERS * (self.LIFECYCLES // 5)

    def test_file_sink_writes_parseable_lines_under_contention(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = QueryJournal(path)
        for thread in self._hammer(journal):
            thread.join()
        journal.close()
        events = read_journal(path, validate=True)
        assert len(events) == self.WRITERS * self.LIFECYCLES * 2
        # one monotonic seq series even though writers interleaved
        assert sorted(e["seq"] for e in events) == [e["seq"] for e in events]


class TestQueryLifecycle:
    def test_run_records_full_lifecycle(self, clinic_log):
        journal = QueryJournal()
        query = Query(
            "GetRefer -> CheckIn", EngineOptions(journal=journal)
        )
        result = query.run(clinic_log)
        kinds = [e["event"] for e in journal.events]
        assert kinds == ["submit", "plan", "evaluate", "finish"]
        validate_journal(journal.events)
        finish = journal.events[-1]
        assert finish["status"] == "ok"
        assert finish["incidents"] == len(result)
        assert finish["wall_ms"] >= 0
        assert finish["pairs"] == journal.events[2]["pairs"]

    def test_exists_and_count_record_terminals(self, clinic_log):
        journal = QueryJournal()
        query = Query("GetRefer", EngineOptions(journal=journal))
        query.exists(clinic_log)
        query.count(clinic_log)
        validate_journal(journal.events)
        terminals = [e for e in journal.events if e["event"] == "finish"]
        assert [e["op"] for e in terminals] == ["exists", "count"]
        # two independent runs mint two distinct query ids
        assert len({e["query_id"] for e in journal.events}) == 2

    @pytest.mark.parametrize("op", ["run", "count", "exists"])
    def test_cache_hit_records_probe_and_finishes(self, clinic_log, op):
        from repro.cache import QueryCache

        journal = QueryJournal()
        query = Query(
            "GetRefer -> CheckIn",
            EngineOptions(journal=journal, cache=QueryCache()),
        )
        query.run(clinic_log)  # cold: evaluated and stored
        getattr(query, op)(clinic_log)  # warm, whatever the op
        validate_journal(journal.events)
        probes = [e for e in journal.events if e["event"] == "cache"]
        assert [e["hit"] for e in probes] == [False, True]
        warm_finish = journal.events[-1]
        assert warm_finish["event"] == "finish" and warm_finish["op"] == op
        assert warm_finish.get("cache_layer") == "result"
        assert warm_finish.get("cache_result_hits") == 1
        cold_finish = [e for e in journal.events if e["event"] == "finish"][0]
        assert cold_finish["cache_result_hits"] == 0
        assert "cache_memo_hits" not in cold_finish
        # journals written while a memo layer existed still read back
        validate_journal_event({**warm_finish, "cache_memo_hits": 3})

    def test_cache_attribution_is_the_runs_own_probe(self, clinic_log):
        """Another query hitting the shared cache while this one evaluates
        moves the process-wide counters, not this run's attribution."""
        from repro.cache import QueryCache
        from repro.core.eval.naive import NaiveEngine

        cache = QueryCache()
        bystander = Query("GetRefer", EngineOptions(cache=cache))
        bystander.run(clinic_log)  # warm

        class InterleavedEngine(NaiveEngine):
            def evaluate(self, log, pattern):
                bystander.run(log)
                assert bystander.last_cache_layer == "result"
                return super().evaluate(log, pattern)

        journal = QueryJournal()
        query = Query(
            "GetRefer -> CheckIn",
            EngineOptions(journal=journal, cache=cache, engine=InterleavedEngine()),
        )
        query.run(clinic_log)
        assert query.last_cache_layer is None
        assert cache.stats()["result_hits"] == 1  # the bystander's
        finish = journal.events[-1]
        assert finish["event"] == "finish"
        assert finish["cache_result_hits"] == 0


# -- property: observing a query never changes its answer -------------------

ALPHABET = ("A", "B", "C")


def _atoms():
    return st.builds(Atomic, st.sampled_from(ALPHABET), st.booleans())


def _patterns(max_leaves=4):
    return st.recursive(
        _atoms(),
        lambda children: st.builds(
            lambda cls, left, right: cls(left, right),
            st.sampled_from((Consecutive, Sequential, Choice, Parallel)),
            children,
            children,
        ),
        max_leaves=max_leaves,
    )


@st.composite
def _logs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    traces = {
        wid: [
            draw(st.sampled_from(ALPHABET + ("Z",)))
            for __ in range(draw(st.integers(min_value=1, max_value=6)))
        ]
        for wid in range(1, n + 1)
    }
    return Log.from_traces(traces, interleave=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(_logs(), _patterns())
def test_journal_on_output_is_byte_identical(log, pattern):
    """Journaled and unjournaled runs serialise to identical bytes."""
    plain = Query(pattern).run(log)
    journal = QueryJournal()
    journaled = Query(pattern, EngineOptions(journal=journal)).run(log)
    as_bytes = lambda incidents: repr(sorted(map(repr, incidents))).encode()
    assert as_bytes(plain) == as_bytes(journaled)
    validate_journal(journal.events)
