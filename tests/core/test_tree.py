"""Unit tests for incident trees (Definition 6, Algorithm 3)."""

from repro.core.eval.tree import (
    ATOMIC,
    CHOICE,
    CONS,
    PARA,
    SEQU,
    build_incident_tree,
    render_tree,
)
from repro.core.parser import parse
from repro.core.pattern import Atomic


class TestBuild:
    def test_leaf(self):
        tree = build_incident_tree(Atomic("A"))
        assert tree.is_leaf
        assert tree.type == ATOMIC
        assert tree.activity_name == "A"
        assert not tree.negated

    def test_negated_leaf_label(self):
        tree = build_incident_tree(~Atomic("A"))
        assert tree.negated
        assert tree.label == "¬A"

    def test_operator_type_tags(self):
        assert build_incident_tree(parse("A ; B")).type == CONS
        assert build_incident_tree(parse("A -> B")).type == SEQU
        assert build_incident_tree(parse("A | B")).type == CHOICE
        assert build_incident_tree(parse("A & B")).type == PARA

    def test_operator_labels_are_paper_glyphs(self):
        assert build_incident_tree(parse("A ; B")).label == "⊙"
        assert build_incident_tree(parse("A -> B")).label == "⊳"
        assert build_incident_tree(parse("A | B")).label == "⊗"
        assert build_incident_tree(parse("A & B")).label == "⊕"


class TestRender:
    def test_render_accepts_patterns_and_trees(self):
        pattern = parse("A -> B")
        assert render_tree(pattern) == render_tree(build_incident_tree(pattern))

    def test_render_single_leaf(self):
        assert render_tree(parse("A")) == "A"

    def test_render_nested_shape(self):
        art = render_tree(parse("(A ; B) -> C"))
        assert art.splitlines() == [
            "⊳",
            "├── ⊙",
            "│   ├── A",
            "│   └── B",
            "└── C",
        ]


class TestExtendedNodes:
    def test_windowed_operator_renders_bound(self):
        art = render_tree(parse("A ->[3] B"))
        assert art.splitlines()[0] == "⊳[3]"

    def test_windowed_operator_tags_as_sequ(self):
        tree = build_incident_tree(parse("A ->[3] B"))
        assert tree.type == SEQU

    def test_guarded_leaf_renders_guard(self):
        art = render_tree(parse("A[out.x > 1] -> B"))
        assert "A[out.x > 1]" in art

    def test_explain_handles_extended_patterns(self, figure3_log):
        from repro.core.query import Query

        text = Query("SeeDoctor ->[2] PayTreatment").explain(figure3_log)
        assert "⊳[2]" in text
