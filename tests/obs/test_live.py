"""The windowed telemetry aggregator and the SLO burn-rate engine.

The rotation tests drive an injected clock across bucket and ring
boundaries — the two invariants that make the ring trustworthy are that
an outcome is never counted twice (a reused slot is reset, not merged)
and that a quiet stretch never manufactures phantom counts (a stale
epoch is skipped, not read).
"""

import threading

import pytest

from repro.obs.live import (
    OTHER_KEY,
    SloEngine,
    SloObjective,
    SloPolicy,
    WindowedAggregator,
    pattern_shape,
)


class _FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def _request(http_status=200, duration_s=0.01, *, killed=False, **fields) -> dict:
    """The terminal event the service writes for one ``/v1/query`` it
    answered (no ``ts_unix``: the aggregator's clock places it)."""
    return {
        "event": "killed" if killed else "finish",
        "endpoint": "/v1/query",
        "http_status": http_status,
        "wall_ms": duration_s * 1000.0,
        **fields,
    }


def _aggregator(**kwargs) -> tuple[WindowedAggregator, _FakeClock]:
    clock = _FakeClock()
    kwargs.setdefault("bucket_s", 10.0)
    kwargs.setdefault("window_s", 60.0)
    return WindowedAggregator(clock=clock, **kwargs), clock


class TestRotation:
    def test_no_double_count_across_bucket_boundary(self):
        aggregator, clock = _aggregator()
        # one request right before the boundary, one right after
        clock.now = 1009.999
        aggregator.observe_event(_request(200, 0.01))
        clock.now = 1010.001
        aggregator.observe_event(_request(200, 0.01))
        snapshot = aggregator.window(60.0)
        assert snapshot.total.count == 2
        # a window covering only the newer bucket sees exactly one
        assert aggregator.window(10.0).total.count == 1

    def test_old_bucket_falls_out_of_the_window(self):
        aggregator, clock = _aggregator()
        aggregator.observe_event(_request(200, 0.01))
        clock.now += 60.0  # a full ring later
        assert aggregator.window(60.0).total.count == 0

    def test_ring_lap_resets_the_slot_instead_of_merging(self):
        aggregator, clock = _aggregator()
        aggregator.observe_event(_request(500, 0.01))
        # exactly one ring length later the same slot is reused: the old
        # epoch's error must not leak into the new bucket
        clock.now += 60.0
        aggregator.observe_event(_request(200, 0.01))
        snapshot = aggregator.window(60.0)
        assert snapshot.total.count == 1
        assert snapshot.total.errors == 0

    def test_quiet_gap_is_not_back_filled(self):
        aggregator, clock = _aggregator()
        aggregator.observe_event(_request(200, 0.01))
        clock.now += 30.0  # three silent buckets
        aggregator.observe_event(_request(200, 0.01))
        assert aggregator.window(60.0).total.count == 2
        # the trailing 20s covers only the newest bucket + one silent one
        assert aggregator.window(20.0).total.count == 1

    def test_every_observation_lands_in_exactly_one_bucket(self):
        # sweep a half-open boundary grid: count over the full window
        # must equal observations made, regardless of bucket alignment
        aggregator, clock = _aggregator(bucket_s=10.0, window_s=100.0)
        times = [1000.0 + i * 3.7 for i in range(25)]  # spans ~92s
        for when in times:
            clock.now = when
            aggregator.observe_event(_request(200, 0.001))
        assert aggregator.window(100.0).total.count == len(times)

    def test_window_clamps_to_ring_span_and_bucket_floor(self):
        aggregator, clock = _aggregator()
        aggregator.observe_event(_request(200, 0.01))
        assert aggregator.window(10_000.0).window_s == 60.0
        assert aggregator.window(0.001).window_s == 10.0

    def test_concurrent_writers_lose_nothing(self):
        aggregator, _ = _aggregator(window_s=600.0)
        per_thread = 200

        def write() -> None:
            for _ in range(per_thread):
                aggregator.observe_event(_request(200, 0.001))

        threads = [threading.Thread(target=write) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert aggregator.window(600.0).total.count == 8 * per_thread
        assert aggregator.observed == 8 * per_thread


class TestAttribution:
    def test_dimensions_and_error_classification(self):
        aggregator, _ = _aggregator()
        aggregator.observe_event(
            _request(200, 0.01, store="clinic", pattern="A -> B", pairs=5)
        )
        aggregator.observe_event(_request(408, 0.02, store="clinic", killed=True))
        aggregator.observe_event(_request(429, 0.001))  # shed: not an error
        aggregator.observe_event(_request(400, 0.001))  # client fault: no burn
        aggregator.observe_event(_request(500, 0.001))
        snapshot = aggregator.window(60.0)
        assert snapshot.total.count == 5
        assert snapshot.total.errors == 2  # the 408 kill and the 500
        assert snapshot.total.killed == 1
        assert snapshot.stores["clinic"].count == 2
        assert snapshot.stores["clinic"].pairs == 5
        assert snapshot.error_ratio == pytest.approx(0.4)

    def test_pattern_attribution_uses_normalised_shape(self):
        aggregator, _ = _aggregator()
        aggregator.observe_event(_request(200, 0.01, pattern="A -> B"))
        aggregator.observe_event(_request(200, 0.01, pattern="A->B"))
        snapshot = aggregator.window(60.0)
        assert len(snapshot.patterns) == 1  # both spell the same shape
        (cell,) = snapshot.patterns.values()
        assert cell.count == 2

    def test_top_k_overflow_folds_into_other(self):
        aggregator, _ = _aggregator(top_k=2)
        for name in ("s1", "s2", "s3", "s4"):
            aggregator.observe_event(_request(200, 0.01, store=name))
        snapshot = aggregator.window(60.0)
        assert set(snapshot.stores) == {"s1", "s2", OTHER_KEY}
        assert snapshot.stores[OTHER_KEY].count == 2
        assert snapshot.total.count == 4  # folding never drops outcomes

    def test_report_ranks_by_count_and_caps_rows(self):
        aggregator, _ = _aggregator()
        for _ in range(3):
            aggregator.observe_event(_request(200, 0.01, store="busy"))
        aggregator.observe_event(_request(200, 0.01, store="quiet"))
        report = aggregator.window(60.0).report(top=1)
        assert [row["key"] for row in report["stores"]] == ["busy"]
        assert report["requests"] == 4
        assert {"p50_s", "p95_s", "p99_s", "mean_s", "count"} <= set(
            report["latency"]
        )


class TestJournalReplay:
    def test_observe_event_maps_terminal_kinds(self):
        aggregator, _ = _aggregator(window_s=60.0)
        assert aggregator.observe_event(
            {
                "event": "finish",
                "op": "http.query",
                "ts_unix": 1005.0,
                "wall_ms": 12.0,
                "pairs": 7,
                "store": "clinic",
                "pattern": "A -> B",
                "http_status": 200,
            }
        )
        assert aggregator.observe_event(
            {
                "event": "killed",
                "op": "http.query",
                "ts_unix": 1006.0,
                "wall_ms": 500.0,
                "http_status": 408,
            }
        )
        assert not aggregator.observe_event({"event": "submit", "ts_unix": 1007.0})
        snapshot = aggregator.window(60.0, now=1009.0)
        assert snapshot.total.count == 2
        assert snapshot.total.killed == 1
        assert snapshot.total.errors == 1
        assert snapshot.stores["clinic"].count == 1
        assert snapshot.routes["http.query"].count == 2

    def test_route_is_the_endpoint_label_else_the_op(self):
        aggregator, clock = _aggregator()
        aggregator.observe_event(_request(200, op="http.query"))
        aggregator.observe_event({"event": "finish", "op": "run"})
        snapshot = aggregator.window(60.0)
        assert sorted(snapshot.routes) == ["/v1/query", "run"]

    def test_an_answered_client_error_burns_nothing(self):
        """A 400 the service answered after admission (a pattern that
        does not parse) is a ``finish`` with ``status: "error"``: neither
        an error against the budget nor a kill."""
        aggregator, _ = _aggregator()
        aggregator.observe_event(
            _request(400, status="error", error="bad_request", pattern="A ->")
        )
        snapshot = aggregator.window(60.0)
        assert (snapshot.total.count, snapshot.total.errors) == (1, 0)
        assert snapshot.total.killed == 0

    def test_killed_without_status_defaults_to_error(self):
        aggregator, clock = _aggregator()
        aggregator.observe_event(
            {"event": "killed", "op": "cli.query", "ts_unix": clock.now}
        )
        snapshot = aggregator.window(60.0)
        assert snapshot.total.errors == 1

    def test_replay_counts_only_terminal_events(self):
        aggregator, clock = _aggregator()
        events = [
            {"event": "submit", "ts_unix": clock.now},
            {"event": "plan", "ts_unix": clock.now},
            {"event": "finish", "op": "cli.query", "ts_unix": clock.now},
            {"event": "killed", "op": "cli.query", "ts_unix": clock.now},
        ]
        assert aggregator.replay(events) == 2


class TestSloEngine:
    @staticmethod
    def _engine(
        aggregator: WindowedAggregator,
        *,
        kind: str = "availability",
        target: float = 0.9,
        threshold: float = 1.0,
        **objective_kwargs,
    ) -> SloEngine:
        policy = SloPolicy(
            objectives=(
                SloObjective(
                    name="slo", kind=kind, target=target, **objective_kwargs
                ),
            ),
            fast_window_s=10.0,
            slow_window_s=60.0,
            burn_threshold=threshold,
        )
        return SloEngine(policy, aggregator)

    def test_breach_requires_both_windows_to_burn(self):
        aggregator, clock = _aggregator()
        # old clean traffic dilutes the slow window below the threshold
        for _ in range(50):
            aggregator.observe_event(_request(200, 0.001))
        clock.now += 50.0
        for _ in range(5):
            aggregator.observe_event(_request(500, 0.001))
        (row,) = self._engine(aggregator).evaluate()
        assert row["burn_fast"] == pytest.approx(10.0)  # 100% bad / 10% budget
        assert row["burn_slow"] < 1.0
        assert not row["breach"]

    def test_sustained_burn_breaches(self):
        aggregator, _ = _aggregator()
        for _ in range(10):
            aggregator.observe_event(_request(500, 0.001))
        engine = self._engine(aggregator)
        (row,) = engine.evaluate()
        assert row["breach"]
        assert row["budget_remaining"] == 0.0
        report = engine.report()
        assert report["breaching"] == ["slo"]

    def test_latency_objective_burns_on_slow_requests(self):
        aggregator, _ = _aggregator()
        for _ in range(5):
            aggregator.observe_event(_request(200, 0.001))
        for _ in range(5):
            aggregator.observe_event(_request(200, 5.0))
        (row,) = self._engine(
            aggregator, kind="latency", target=0.9, latency_threshold_s=0.5
        ).evaluate()
        # half the traffic is over threshold against a 10% budget
        assert row["burn_fast"] == pytest.approx(5.0)
        assert row["latency_threshold_s"] == 0.5
        assert row["breach"]

    def test_scoped_objective_reads_only_its_cell(self):
        aggregator, _ = _aggregator()
        for _ in range(5):
            aggregator.observe_event(_request(500, 0.001, store="sick"))
        for _ in range(5):
            aggregator.observe_event(_request(200, 0.001, store="healthy"))
        (sick,) = self._engine(aggregator, store="sick").evaluate()
        (healthy,) = self._engine(aggregator, store="healthy").evaluate()
        assert sick["breach"]
        assert not healthy["breach"]
        # an objective scoped to a store that saw no traffic is silent
        (idle,) = self._engine(aggregator, store="absent").evaluate()
        assert idle["burn_fast"] == 0.0 and not idle["breach"]

    def test_policy_and_objective_validation(self):
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="throughput")
        with pytest.raises(ValueError):
            SloObjective(name="x", target=1.0)
        with pytest.raises(ValueError):
            SloObjective(name="x", route="/v1/query", store="clinic")
        with pytest.raises(ValueError):
            SloPolicy(fast_window_s=600.0, slow_window_s=60.0)
        with pytest.raises(ValueError):
            SloPolicy(burn_threshold=0.0)


class TestPatternShape:
    def test_normalises_spelling_variants(self):
        assert pattern_shape("A -> B") == pattern_shape("A->B")

    def test_unparseable_text_falls_back_to_raw(self):
        assert pattern_shape("not ( a pattern") == "not ( a pattern"


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WindowedAggregator(bucket_s=0.0)
        with pytest.raises(ValueError):
            WindowedAggregator(bucket_s=10.0, window_s=5.0)
        with pytest.raises(ValueError):
            WindowedAggregator(top_k=0)
