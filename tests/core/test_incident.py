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
        assert [r.activity for r in o] == ["A", "B"]

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


class CountingColumn(list):
    """A column that counts the entries read from it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class TestSpanBackedSet:
    """``IncidentSet.from_spans`` over hand-written kernel output: two
    instances of six records each, rows 0-5 and 6-11."""

    def columnar(self):
        from types import SimpleNamespace

        rows = tuple(
            rec(100 + 6 * w + p, wid=w + 1, pos=p, activity="AB"[p % 2])
            for w in range(2)
            for p in range(1, 7)
        )
        return SimpleNamespace(
            rows=rows,
            lsn_col=CountingColumn(r.lsn for r in rows),
            act_id_col=CountingColumn(p % 2 for _ in range(2) for p in range(1, 7)),
            act_names=("A", "B"),
        )

    def spans(self, *position_sets):
        return [(min(p), max(p), frozenset(p)) for p in position_sets]

    def kernel_result(self, columnar):
        # (first, last)-sorted per window, ties in the order a join left them
        return IncidentSet.from_spans(
            columnar,
            [
                (1, 0, self.spans({1, 4, 6}, {1, 3, 6}, {2, 6}, {5})),
                (2, 6, self.spans({2, 3})),
            ],
        )

    def test_ties_on_first_and_last_break_by_position_tuple(self):
        rows = self.kernel_result(self.columnar()).to_rows()
        assert [(r["wid"], r["first"], r["last"]) for r in rows] == [
            (1, 1, 6), (1, 1, 6), (1, 2, 6), (1, 5, 5), (2, 2, 3),
        ]
        assert [r["lsns"] for r in rows[:2]] == [(101, 103, 106), (101, 104, 106)]
        assert rows[0]["activities"] == ("B", "B", "A")

    def test_canonical_order_is_the_eager_order(self):
        lazy = self.kernel_result(self.columnar())
        eager = IncidentSet(list(self.kernel_result(self.columnar())))
        assert list(lazy) == list(eager)
        assert [o.sort_key for o in lazy] == sorted(o.sort_key for o in eager)
        assert lazy.to_rows() == eager.to_rows()

    def test_len_bool_and_wids_read_only_the_spans(self):
        columnar = self.columnar()
        result = self.kernel_result(columnar)
        assert (len(result), bool(result), result.wids()) == (5, True, (1, 2))
        assert result.canonical_spans() is result.canonical_spans()
        assert result.wids() == (1, 2)  # from the canonical form as well
        assert columnar.lsn_col.reads == columnar.act_id_col.reads == 0

    def test_a_limit_reads_only_the_rows_it_returns(self):
        columnar = self.columnar()
        result = self.kernel_result(columnar)
        three = result.to_rows(3)
        assert len(three) == 3
        assert columnar.lsn_col.reads == columnar.act_id_col.reads == 3 + 3 + 2
        assert result.to_rows(0) == []
        assert columnar.lsn_col.reads == 8
        assert three == result.to_rows()[:3]
        for limit in (None, 1, 4, 5, 6, -1):
            assert result.to_rows(limit) == result.to_rows()[:limit]

    def test_the_kernels_lists_are_never_changed(self):
        windows = [(1, 0, self.spans({1, 4, 6}, {1, 3, 6}))]
        before = [list(spans) for _, _, spans in windows]
        result = IncidentSet.from_spans(self.columnar(), windows)
        result.to_rows(), list(result), result.wids()
        assert [list(spans) for _, _, spans in windows] == before

    def test_an_empty_kernel_result(self):
        result = IncidentSet.from_spans(self.columnar(), [])
        assert not result and len(result) == 0
        assert result.wids() == () and result.to_rows() == [] and list(result) == []
        assert result == IncidentSet() and hash(result) == hash(IncidentSet())

    def test_pickles_as_its_incidents(self):
        import pickle

        result = self.kernel_result(self.columnar())
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result and clone.canonical_spans() is None
        assert clone.to_rows() == result.to_rows()
