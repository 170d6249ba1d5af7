"""Unit tests for the log data model (Definitions 1 and 2)."""

import pytest

from repro.core.errors import LogValidationError
from repro.core.model import (
    END,
    START,
    Log,
    LogRecord,
)


def make_record(**overrides):
    defaults = dict(lsn=1, wid=1, is_lsn=1, activity=START)
    defaults.update(overrides)
    return LogRecord(**defaults)


class TestLogRecord:
    def test_component_accessors_match_paper_notation(self):
        record = LogRecord(
            lsn=4, wid=1, is_lsn=3, activity="CheckIn",
            attrs_in={"referId": "034d1"}, attrs_out={"referState": "active"},
        )
        assert record.lsn == 4
        assert record.wid == 1
        assert record.is_lsn == 3
        assert record.activity == "CheckIn"
        assert record.attrs_in == {"referId": "034d1"}
        assert record.attrs_out == {"referState": "active"}

    def test_attribute_maps_default_to_empty(self):
        record = make_record()
        assert dict(record.attrs_in) == {}
        assert dict(record.attrs_out) == {}

    def test_attribute_maps_are_immutable(self):
        record = make_record(attrs_out={"x": 1})
        with pytest.raises(TypeError):
            record.attrs_out["x"] = 2  # type: ignore[index]

    def test_attribute_maps_are_copied_from_input(self):
        source = {"x": 1}
        record = make_record(attrs_out=source)
        source["x"] = 99
        assert record.attrs_out["x"] == 1

    @pytest.mark.parametrize("field,value", [
        ("lsn", 0), ("lsn", -3), ("wid", 0), ("is_lsn", 0),
    ])
    def test_sequence_numbers_must_be_positive(self, field, value):
        with pytest.raises(LogValidationError):
            make_record(**{field: value})

    def test_activity_name_must_be_nonempty(self):
        with pytest.raises(LogValidationError):
            make_record(activity="")

    def test_records_are_ordered_by_lsn(self):
        early = make_record(lsn=1)
        late = make_record(lsn=2, wid=2)
        assert early < late
        assert early <= late
        assert sorted([late, early]) == [early, late]

    def test_sentinel_predicates(self):
        assert make_record(activity=START).is_start
        assert make_record(activity=START).is_sentinel
        end = make_record(activity=END, is_lsn=2)
        assert end.is_end and end.is_sentinel
        plain = make_record(activity="CheckIn", is_lsn=2)
        assert not plain.is_sentinel

    def test_dict_roundtrip(self):
        record = make_record(
            activity="CheckIn", is_lsn=2,
            attrs_in={"a": 1}, attrs_out={"b": [1, 2]},
        )
        assert LogRecord.from_dict(record.to_dict()) == record

    def test_records_are_hashable_and_equal_by_value(self):
        a = make_record(attrs_out={"x": 1})
        b = make_record(attrs_out={"x": 1})
        assert a == b
        assert len({a, b}) == 1


class TestLogConstruction:
    def test_from_tuples_accepts_figure3_layout(self, figure3_log):
        assert len(figure3_log) == 20
        record = figure3_log.record(4)
        assert record.activity == "CheckIn"
        assert record.attrs_in["referId"] == "034d1"
        assert record.attrs_out == {"referState": "active"}

    def test_records_sorted_by_lsn_regardless_of_input_order(self):
        records = [
            LogRecord(lsn=2, wid=1, is_lsn=2, activity="A"),
            LogRecord(lsn=1, wid=1, is_lsn=1, activity=START),
        ]
        log = Log(records)
        assert [r.lsn for r in log] == [1, 2]

    def test_from_traces_adds_sentinels(self):
        log = Log.from_traces([["A", "B"]])
        assert [r.activity for r in log] == [START, "A", "B", END]

    def test_from_traces_interleaved_is_well_formed(self):
        log = Log.from_traces({1: ["A"] * 5, 2: ["B"] * 3}, interleave=True)
        log.validate()
        # interleaving actually mixes the two instances
        wids = [r.wid for r in log]
        assert wids != sorted(wids)

    def test_from_traces_rejects_missing_start_when_sentinels_off(self):
        with pytest.raises(LogValidationError):
            Log.from_traces({1: ["A"]}, add_sentinels=False)

    def test_empty_log_is_rejected(self):
        with pytest.raises(LogValidationError):
            Log([])


class TestDefinition2Conditions:
    def test_condition1_lsns_must_be_initial_segment(self):
        records = [
            LogRecord(lsn=1, wid=1, is_lsn=1, activity=START),
            LogRecord(lsn=3, wid=1, is_lsn=2, activity="A"),
        ]
        with pytest.raises(LogValidationError) as excinfo:
            Log(records)
        assert excinfo.value.condition == 1

    def test_condition2_first_record_must_be_start(self):
        records = [LogRecord(lsn=1, wid=1, is_lsn=1, activity="A")]
        with pytest.raises(LogValidationError) as excinfo:
            Log(records)
        assert excinfo.value.condition == 2

    def test_condition2_start_only_at_position_one(self):
        records = [
            LogRecord(lsn=1, wid=1, is_lsn=1, activity=START),
            LogRecord(lsn=2, wid=1, is_lsn=2, activity=START),
        ]
        with pytest.raises(LogValidationError) as excinfo:
            Log(records)
        assert excinfo.value.condition == 2

    def test_condition3_is_lsn_must_be_consecutive(self):
        records = [
            LogRecord(lsn=1, wid=1, is_lsn=1, activity=START),
            LogRecord(lsn=2, wid=1, is_lsn=3, activity="A"),
        ]
        with pytest.raises(LogValidationError) as excinfo:
            Log(records)
        assert excinfo.value.condition == 3

    def test_condition4_no_records_after_end(self):
        records = [
            LogRecord(lsn=1, wid=1, is_lsn=1, activity=START),
            LogRecord(lsn=2, wid=1, is_lsn=2, activity=END),
            LogRecord(lsn=3, wid=1, is_lsn=3, activity="A"),
        ]
        with pytest.raises(LogValidationError) as excinfo:
            Log(records)
        assert excinfo.value.condition == 4

    def test_instance_without_end_is_legal(self, figure3_log):
        # Figure 3 is an *initial segment*: no instance has END yet
        assert not any(figure3_log.is_complete(w) for w in figure3_log.wids)

    def test_validate_can_be_skipped_and_rerun(self):
        records = [LogRecord(lsn=1, wid=1, is_lsn=1, activity="A")]
        log = Log(records, validate=False)
        with pytest.raises(LogValidationError):
            log.validate()


class TestLogViews:
    def test_wids_and_activities(self, figure3_log):
        assert figure3_log.wids == (1, 2, 3)
        assert "GetRefer" in figure3_log.activities
        assert START in figure3_log.activities

    def test_instance_view_is_ordered_by_is_lsn(self, figure3_log):
        positions = [r.is_lsn for r in figure3_log.instance(2)]
        assert positions == sorted(positions) == list(range(1, 10))

    def test_instance_view_of_unknown_wid_is_empty(self, figure3_log):
        assert figure3_log.instance(99) == ()

    def test_with_activity_index(self, figure3_log):
        columnar = figure3_log.columnar()
        rows = columnar.act_rows(columnar.act_id_of("SeeDoctor"))
        lsns = [columnar.rows[row].lsn for row in rows]
        assert lsns == [9, 11, 13, 17]
        assert columnar.act_id_of("NoSuch") is None

    def test_record_lookup(self, figure3_log):
        assert figure3_log.record(14).activity == "UpdateRefer"
        with pytest.raises(KeyError):
            figure3_log.record(999)

    def test_contains(self, figure3_log):
        assert figure3_log.record(1) in figure3_log
        outsider = LogRecord(lsn=1, wid=9, is_lsn=1, activity=START)
        assert outsider not in figure3_log
        assert "not a record" not in figure3_log

    def test_equality_and_hash(self, figure3_log):
        clone = Log(figure3_log.records)
        assert clone == figure3_log
        assert hash(clone) == hash(figure3_log)
        assert figure3_log != Log.from_traces([["A"]])

    def test_repr_mentions_sizes(self, figure3_log):
        assert "20 records" in repr(figure3_log)
        assert "3 instances" in repr(figure3_log)


class TestCopyAndPickle:
    def test_copy_returns_self(self, figure3_log):
        import copy

        record = figure3_log.record(4)
        assert copy.copy(record) is record
        assert copy.deepcopy(record) is record

    def test_records_pickle_roundtrip(self, figure3_log):
        import pickle

        record = figure3_log.record(15)
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
        assert dict(clone.attrs_out) == dict(record.attrs_out)

    def test_logs_pickle_roundtrip(self, figure3_log):
        import pickle

        assert pickle.loads(pickle.dumps(figure3_log)) == figure3_log
