"""The LogView access protocol: both representations satisfy it, and the
attribute/method dual access works."""

import pytest

from repro.columnar import ColumnarLog
from repro.core.model import Log
from repro.core.view import ActivitySet, LogView, RecordsView
from repro.logstore.index import LogIndex

class TestProtocol:
    def test_both_representations_are_log_views(self, figure3_log):
        assert isinstance(figure3_log, LogView)
        assert isinstance(figure3_log.columnar(), LogView)

    def test_attribute_and_method_access_agree(self, figure3_log):
        for view in (figure3_log, figure3_log.columnar()):
            # records() is lsn-ordered by contract; iteration order is
            # representation-specific (row order for the columnar view)
            assert view.records() == tuple(
                sorted(view, key=lambda r: r.lsn)
            )
            assert view.activities() == {r.activity for r in view}
            assert len(view.records()) == len(view)

    def test_log_records_is_a_callable_tuple(self, figure3_log):
        records = figure3_log.records
        assert isinstance(records, RecordsView)
        assert isinstance(records, tuple)
        assert records() is records
        assert records[0].lsn == 1
        assert list(records[:2]) == list(records)[:2]
        # a plain immutable tuple: no list-mutation surface, shimmed or not
        assert not hasattr(records, "append")
        with pytest.raises(TypeError):
            records[0] = None  # type: ignore[index]

    def test_log_activities_is_a_callable_frozenset(self, figure3_log):
        activities = figure3_log.activities
        assert isinstance(activities, ActivitySet)
        assert isinstance(activities, frozenset)
        assert activities() is activities
        assert "GetRefer" in activities

    def test_wid_slice_matches_between_representations(self, figure3_log):
        columnar = figure3_log.columnar()
        for wid in figure3_log.wids:
            assert columnar.wid_slice(wid) == figure3_log.wid_slice(wid)
        assert columnar.wid_slice(9999) == figure3_log.wid_slice(9999) == ()


class TestViewConsumers:
    def test_log_index_builds_from_either_view(self, figure3_log):
        reference = LogIndex.from_log(figure3_log)
        from_view = LogIndex.from_view(figure3_log)
        from_columnar = LogIndex.from_view(figure3_log.columnar())
        for index in (from_view, from_columnar):
            assert index.activities == reference.activities
            for wid in figure3_log.wids:
                for name in reference.activities:
                    assert index.positions(wid, name) == reference.positions(
                        wid, name
                    )

    def test_plain_sequences_are_not_log_views(self):
        assert not isinstance([], LogView)
        assert not isinstance((), LogView)
        assert not isinstance(Log.from_traces({1: ["A"]}).records, LogView)
