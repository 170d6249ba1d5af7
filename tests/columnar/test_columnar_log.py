"""The columnar log core: layout invariants, fidelity to the source log
and per-log caching (``Log.columnar()``)."""

import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.columnar import ColumnarLog, as_columnar
from repro.core.model import Log
from tests.support.workloads import records_of

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
            window = columnar.rows[lo:hi]
            assert window == log.instance(wid)
            # is-lsn consecutive from 1 within the window (Definition 2)
            assert [r.is_lsn for r in window] == list(range(1, hi - lo + 1))
        assert covered == len(columnar) == len(log)

    @settings(max_examples=40, deadline=None)
    @given(logs())
    def test_columns_intern_losslessly(self, log):
        columnar = ColumnarLog.from_log(log)
        lsn, act_id = columnar.lsn_col, columnar.act_id_col
        for row, record in enumerate(columnar):
            assert lsn[row] == record.lsn
            assert columnar.act_names[act_id[row]] == record.activity
            assert log.record(record.lsn) is record

    def test_columns_are_read_only(self, figure3_log):
        columnar = figure3_log.columnar()
        with pytest.raises(TypeError):
            columnar.lsn_col[0] = 99

    def test_leaf_rows_match_with_activity(self, figure3_log):
        columnar = figure3_log.columnar()
        for name in figure3_log.activities:
            act_id = columnar.act_id_of(name)
            assert act_id is not None
            rows = [row for row, _, _ in columnar.leaves(act_id)[0]]
            records = sorted((columnar.rows[row] for row in rows), key=lambda r: r.lsn)
            assert records == records_of(figure3_log, name)
            assert columnar.act_total(act_id) == len(records)
        spans, _ = columnar.leaves(columnar.act_id_of("SeeDoctor"))
        assert sorted(columnar.rows[row].lsn for row, _, _ in spans) == [9, 11, 13, 17]
        assert columnar.act_id_of("NoSuchActivity") is None

    def test_leaf_spans_cover_every_occurrence(self, figure3_log):
        """The whole-log leaf list of an activity: one ``(row, row,
        mask)`` per occurrence in row order, the mask's one bit the row's
        place in its window, and the occurrences per window."""
        columnar = figure3_log.columnar()
        act_id = columnar.act_id_of("GetRefer")
        spans, counts = columnar.leaves(act_id)
        assert columnar.leaves(act_id)[0] is spans  # cached
        windows = [(lo, hi) for _, lo, hi in columnar.wid_windows()]
        assert list(counts) == [
            sum(1 for r in columnar.rows[lo:hi] if r.activity == "GetRefer") for lo, hi in windows
        ]
        act_ids = columnar.act_id_col
        assert [row for row, _, _ in spans] == [
            row for row in range(len(columnar)) if act_ids[row] == act_id
        ]
        for first, last, mask in spans:
            lo = next(lo for lo, hi in windows if lo <= first < hi)
            assert first == last and mask == 1 << (first - lo)
            assert columnar.rows[first].activity == "GetRefer"
            assert columnar.rows[first].is_lsn == first - lo + 1


class TestProtocolSurface:
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

    def test_pickled_log_drops_the_columnar_cache(self, figure3_log):
        payload = pickle.dumps(figure3_log)
        assert b"ColumnarLog" not in payload  # the records only
        clone = pickle.loads(payload)
        assert clone == figure3_log
        assert clone.columnar() is not figure3_log.columnar()  # rebuilt
        assert clone.columnar().rows == figure3_log.columnar().rows
