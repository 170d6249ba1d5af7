"""Every worked example in the paper, verified against the Figure 3 log.

Covers Example 1 (the lsn-4 record), Example 2 (the query reformulated
over the log), Example 3 (incident sets of two patterns), Example 4 /
Figure 4 (the incident tree), and Example 5 (the evaluation trace).
"""

import pytest

from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.eval.tree import build_incident_tree, render_tree
from repro.core.incident import reference_incidents
from repro.core.parser import parse
from repro.core.query import Query

#: ids as in ``tests/conftest.py``: by engine name
ENGINES = [
    pytest.param(NaiveEngine(), id="naive"),
    pytest.param(VectorizedEngine(), id="vectorized"),
]


class TestExample1:
    """The log record with lsn = 4."""

    def test_record_components(self, figure3_log):
        record = figure3_log.record(4)
        assert record.lsn == 4
        assert record.wid == 1
        assert record.is_lsn == 3
        assert record.activity == "CheckIn"
        assert dict(record.attrs_in) == {
            "referId": "034d1", "referState": "start", "balance": 1000,
        }
        assert dict(record.attrs_out) == {"referState": "active"}


class TestExample2:
    """'Are there any students who update their referral before they
    receive a reimbursement?' — yes, in instance wid=2 via l14 and l20."""

    def test_answer_is_yes_via_instance_2(self, figure3_log):
        query = Query("UpdateRefer -> GetReimburse")
        assert query.exists(figure3_log)
        assert query.matching_instances(figure3_log) == (2,)

    def test_the_witnessing_records(self, figure3_log):
        update = figure3_log.record(14)
        reimburse = figure3_log.record(20)
        assert update.activity == "UpdateRefer"
        assert reimburse.activity == "GetReimburse"
        assert update.wid == reimburse.wid == 2
        assert update.is_lsn < reimburse.is_lsn


class TestExample3:
    """incL(UpdateRefer ⊳ GetReimburse) = {{l14, l20}} and the three-
    activity pattern has exactly one incident.

    (The paper's Example 3 prints the second incident as {l13, l14, l19};
    l19 is a TakeTreatment record, and the sequel Example 5 gives the
    correct {l13, l14, l20} — we assert the corrected value.)
    """

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sequential_pattern_incidents(self, figure3_log, engine):
        result = engine.evaluate(figure3_log, parse("UpdateRefer -> GetReimburse"))
        assert result.lsn_sets() == {frozenset({14, 20})}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_three_activity_pattern_incidents(self, figure3_log, engine):
        pattern = parse("SeeDoctor -> (UpdateRefer -> GetReimburse)")
        result = engine.evaluate(figure3_log, pattern)
        assert result.lsn_sets() == {frozenset({13, 14, 20})}

    def test_reference_semantics_agrees(self, figure3_log):
        pattern = parse("SeeDoctor -> (UpdateRefer -> GetReimburse)")
        assert reference_incidents(figure3_log, pattern).lsn_sets() == {
            frozenset({13, 14, 20})
        }


class TestFigure4:
    """The incident tree for SeeDoctor ⊳ (UpdateRefer ⊳ GetReimburse)."""

    def test_tree_structure(self):
        tree = build_incident_tree(
            parse("SeeDoctor -> (UpdateRefer -> GetReimburse)")
        )
        assert tree.type == "SEQU"
        assert tree.left.is_leaf and tree.left.activity_name == "SeeDoctor"
        assert tree.right.type == "SEQU"
        assert tree.right.left.activity_name == "UpdateRefer"
        assert tree.right.right.activity_name == "GetReimburse"

    def test_rendered_tree(self):
        art = render_tree(parse("SeeDoctor -> (UpdateRefer -> GetReimburse)"))
        assert art.splitlines() == [
            "⊳",
            "├── SeeDoctor",
            "└── ⊳",
            "    ├── UpdateRefer",
            "    └── GetReimburse",
        ]


class TestExample5:
    """The evaluation trace: leaf incident sets, then the inner ⊳, then
    the root."""

    def test_seedoctor_leaf_incidents(self, figure3_log):
        engine = NaiveEngine()
        result = engine.evaluate(figure3_log, parse("SeeDoctor"))
        assert result.lsn_sets() == {
            frozenset({9}), frozenset({11}), frozenset({13}), frozenset({17}),
        }

    def test_inner_node_produces_l14_l20(self, figure3_log):
        engine = NaiveEngine()
        result = engine.evaluate(figure3_log, parse("UpdateRefer -> GetReimburse"))
        assert result.lsn_sets() == {frozenset({14, 20})}

    def test_root_produces_final_output(self, figure3_log):
        engine = NaiveEngine()
        pattern = parse("SeeDoctor -> (UpdateRefer -> GetReimburse)")
        result = engine.evaluate(figure3_log, pattern)
        assert result.lsn_sets() == {frozenset({13, 14, 20})}


class TestIntroductionQueries:
    """The introduction's motivating balance query, expressible with the
    attribute-guard extension."""

    def test_high_balance_referrals(self, figure3_log):
        query = Query("GetRefer[out.balance >= 2000]")
        result = query.run(figure3_log)
        assert result.lsn_sets() == {frozenset({5})}

    def test_high_balance_after_update(self, figure3_log):
        # after l14 the wid-2 referral's balance is 5000: the update
        # record itself writes it
        query = Query("UpdateRefer[out.balance >= 5000] -> GetReimburse")
        assert query.matching_instances(figure3_log) == (2,)
