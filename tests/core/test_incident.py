"""Unit tests for incidents and incident sets (Definition 4 mechanics)."""

import pytest

from repro.core.incident import Incident, IncidentSet
from repro.core.model import LogRecord


def rec(lsn, wid=1, pos=None, activity="A"):
    return LogRecord(lsn=lsn, wid=wid, is_lsn=pos or lsn, activity=activity)


class TestIncident:
    def test_first_last_wid_for_singleton(self):
        o = Incident([rec(5, wid=2, pos=3)])
        assert (o.first, o.last, o.wid) == (3, 3, 2)

    def test_first_last_are_min_max_positions(self):
        o = Incident([rec(4, pos=7), rec(2, pos=2), rec(3, pos=5)])
        assert (o.first, o.last) == (2, 7)

    def test_records_sorted_by_position(self):
        o = Incident([rec(4, pos=7), rec(2, pos=2)])
        assert [r.is_lsn for r in o.records] == [2, 7]

    def test_empty_incident_rejected(self):
        with pytest.raises(ValueError):
            Incident([])

    def test_mixed_wid_rejected(self):
        with pytest.raises(ValueError):
            Incident([rec(1, wid=1), rec(2, wid=2)])

    def test_identity_is_the_record_set(self):
        a = Incident([rec(1), rec(2)])
        b = Incident([rec(2), rec(1)])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_union(self):
        a = Incident([rec(1)])
        b = Incident([rec(3, pos=3)])
        merged = a.union(b)
        assert merged.lsns == {1, 3}
        assert (merged.first, merged.last) == (1, 3)

    def test_union_of_overlapping_incidents_is_set_union(self):
        a = Incident([rec(1), rec(2)])
        b = Incident([rec(2), rec(3)])
        assert a.union(b).lsns == {1, 2, 3}

    def test_union_across_instances_rejected(self):
        with pytest.raises(ValueError):
            Incident([rec(1, wid=1)]).union(Incident([rec(2, wid=2)]))

    def test_disjoint(self):
        a = Incident([rec(1), rec(2)])
        b = Incident([rec(3), rec(4)])
        c = Incident([rec(2), rec(3)])
        assert a.disjoint(b)
        assert not a.disjoint(c)

    def test_contains_record(self):
        a = Incident([rec(1), rec(2)])
        assert rec(1) in a
        assert rec(9, pos=9) not in a
        assert "something" not in a

    def test_ordering_by_wid_then_span(self):
        early = Incident([rec(1, pos=1)])
        late = Incident([rec(2, pos=5)])
        other_instance = Incident([rec(3, wid=2, pos=1)])
        assert sorted([other_instance, late, early]) == [
            early, late, other_instance
        ]

    def test_activities_in_execution_order(self):
        o = Incident([rec(2, pos=4, activity="B"), rec(1, pos=1, activity="A")])
        assert o.activities() == ("A", "B")

    def test_len_and_iteration(self):
        o = Incident([rec(1), rec(2)])
        assert len(o) == 2
        assert [r.lsn for r in o] == [1, 2]


class TestIncidentSet:
    def test_deduplicates(self):
        a = Incident([rec(1)])
        b = Incident([rec(1)])
        assert len(IncidentSet([a, b])) == 1

    def test_iterates_sorted(self):
        items = [Incident([rec(3, pos=5)]), Incident([rec(1, pos=1)])]
        ordered = list(IncidentSet(items))
        assert ordered[0].first == 1

    def test_equality_with_plain_sets(self):
        a = Incident([rec(1)])
        assert IncidentSet([a]) == {a}
        assert IncidentSet([a]) == IncidentSet([a])

    def test_by_wid_grouping(self):
        items = [
            Incident([rec(1, wid=1)]),
            Incident([rec(2, wid=2, pos=1)]),
            Incident([rec(3, wid=2, pos=2)]),
        ]
        grouped = IncidentSet(items).by_wid()
        assert set(grouped) == {1, 2}
        assert len(grouped[2]) == 2

    def test_wids_and_lsn_sets(self):
        items = [Incident([rec(1, wid=3)]), Incident([rec(2, wid=3, pos=2)])]
        s = IncidentSet(items)
        assert s.wids() == (3,)
        assert s.lsn_sets() == {frozenset({1}), frozenset({2})}

    def test_to_rows_limit_is_a_prefix_of_all_rows(self):
        s = IncidentSet(Incident([rec(lsn, 1, lsn, "A")]) for lsn in range(1, 6))
        rows = s.to_rows()
        assert len(rows) == 5
        for limit in (0, 1, 3, 5, 9):
            assert s.to_rows(limit) == rows[:limit]
        assert s.to_rows(None) == rows

    def test_bool_and_len(self):
        assert not IncidentSet()
        assert IncidentSet([Incident([rec(1)])])
