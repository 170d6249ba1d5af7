"""The columnar log core: layout invariants, round-trip fidelity and
per-epoch caching (``Log.columnar()`` / ``LogStore.columnar()``)."""

import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.columnar import ColumnarLog, as_columnar
from repro.core.model import Log
from repro.logstore.store import LogStore
from repro.obs.metrics import MetricsRegistry

ALPHABET = ("A", "B", "C")


@st.composite
def logs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    traces = {
        wid: [
            draw(st.sampled_from(ALPHABET + ("Z",)))
            for __ in range(draw(st.integers(min_value=1, max_value=6)))
        ]
        for wid in range(1, n + 1)
    }
    return Log.from_traces(traces, interleave=draw(st.booleans()))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(logs())
    def test_to_log_is_byte_identical(self, log):
        rebuilt = ColumnarLog.from_log(log).to_log()
        assert rebuilt == log
        assert rebuilt.records == log.records
        assert rebuilt.epoch == log.epoch
        assert rebuilt.lineage == log.lineage
        assert rebuilt.is_snapshot == log.is_snapshot

    def test_round_trip_on_figure3(self, figure3_log):
        assert ColumnarLog.from_log(figure3_log).to_log() == figure3_log


class TestLayout:
    @settings(max_examples=40, deadline=None)
    @given(logs())
    def test_instances_are_contiguous_ascending_windows(self, log):
        columnar = ColumnarLog.from_log(log)
        assert columnar.wids == log.wids
        covered = 0
        for wid, lo, hi in columnar.wid_windows():
            assert lo == covered and hi > lo
            covered = hi
            window = columnar.instance(wid)
            assert window == log.instance(wid)
            # is-lsn consecutive from 1 within the window (Definition 2)
            assert [r.is_lsn for r in window] == list(range(1, hi - lo + 1))
        assert covered == len(columnar) == len(log)

    @settings(max_examples=40, deadline=None)
    @given(logs())
    def test_columns_intern_losslessly(self, log):
        columnar = ColumnarLog.from_log(log)
        lsn, wid_id = columnar.lsn_col, columnar.wid_id_col
        is_lsn, act_id = columnar.is_lsn_col, columnar.act_id_col
        for row, record in enumerate(columnar):
            assert lsn[row] == record.lsn
            assert columnar.wid_of(wid_id[row]) == record.wid
            assert is_lsn[row] == record.is_lsn
            assert columnar.act_name_of(act_id[row]) == record.activity
        assert columnar.nbytes == 4 * 8 * len(columnar)

    def test_columns_are_read_only(self, figure3_log):
        columnar = figure3_log.columnar()
        with pytest.raises(TypeError):
            columnar.lsn_col[0] = 99

    def test_act_rows_matches_with_activity(self, figure3_log):
        columnar = figure3_log.columnar()
        for name in figure3_log.activities:
            act_id = columnar.act_id_of(name)
            assert act_id is not None
            records = sorted(
                (columnar.row_record(row) for row in columnar.act_rows(act_id)),
                key=lambda r: r.lsn,
            )
            assert tuple(records) == figure3_log.with_activity(name)
        assert columnar.act_id_of("NoSuchActivity") is None

    def test_leaf_spans_cover_every_occurrence(self, figure3_log):
        columnar = figure3_log.columnar()
        act_id = columnar.act_id_of("GetRefer")
        spans = columnar.leaf_spans(act_id)
        assert columnar.leaf_spans(act_id) is spans  # cached
        per_window = [
            sum(1 for r in columnar.instance(wid) if r.activity == "GetRefer")
            for wid in columnar.wids
        ]
        assert [len(s) for s in spans] == per_window
        for wi, window_spans in enumerate(spans):
            window = columnar.instance(columnar.wids[wi])
            for first, last, positions in window_spans:
                assert first == last and positions == frozenset((first,))
                assert window[first - 1].activity == "GetRefer"


class TestProtocolSurface:
    def test_reads_like_the_source_log(self, figure3_log):
        columnar = figure3_log.columnar()
        for log in (columnar, figure3_log):
            assert type(log.records) is tuple
            assert type(log.activities) is frozenset
        assert columnar.records == figure3_log.records
        assert columnar.activities == figure3_log.activities
        assert len(columnar) == len(figure3_log)

    def test_provenance_delegates_to_source(self, figure3_log):
        columnar = figure3_log.columnar()
        assert columnar.epoch == figure3_log.epoch
        assert columnar.lineage == figure3_log.lineage
        assert columnar.fingerprint == figure3_log.fingerprint
        assert columnar.source is figure3_log

    def test_direct_construction_is_rejected(self, figure3_log):
        with pytest.raises(TypeError, match="from_log"):
            ColumnarLog(figure3_log)


class TestCaching:
    def test_log_columnar_is_cached(self, figure3_log):
        assert figure3_log.columnar() is figure3_log.columnar()

    def test_as_columnar_passes_views_through(self, figure3_log):
        columnar = figure3_log.columnar()
        assert as_columnar(columnar) is columnar
        assert as_columnar(figure3_log) is columnar

    def test_store_columnar_is_cached_per_epoch(self, figure3_log):
        metrics = MetricsRegistry()
        store = LogStore(metrics=metrics)
        wid = store.open_instance()
        store.append(wid, "A")
        first = store.columnar()
        assert store.columnar() is first  # same epoch: cache hit
        assert metrics.counter("logstore.columnar_builds").value == 1
        store.append(wid, "B")  # epoch advances
        second = store.columnar()
        assert second is not first
        assert metrics.counter("logstore.columnar_builds").value == 2
        assert [r.activity for r in second] == ["START", "A", "B"]

    def test_pickled_log_drops_the_columnar_cache(self, figure3_log):
        figure3_log.columnar()
        clone = pickle.loads(pickle.dumps(figure3_log))
        assert clone == figure3_log
        assert clone._columnar is None  # transient slot, rebuilt on demand
        assert clone.columnar().to_log() == figure3_log
