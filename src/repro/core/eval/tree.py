"""Incident trees (Definition 6, Algorithm 3, Figure 4 of the paper).

The paper evaluates queries over an explicit binary *incident tree* whose
internal nodes carry pattern operators and whose leaves carry (possibly
negated) activity names.  Our :class:`~repro.core.pattern.Pattern` AST is
already isomorphic to that tree; this module provides the explicit tagged
form used by the paper's pseudo-code (node ``type`` in ``{ATOMIC, CONS,
SEQU, CHOICE, PARA}``), the conversion into it, and an ASCII renderer
that regenerates Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pattern import (
    Atomic,
    BinaryPattern,
    Choice,
    Consecutive,
    Parallel,
    Pattern,
    Sequential,
)

__all__ = [
    "ATOMIC",
    "CONS",
    "SEQU",
    "CHOICE",
    "PARA",
    "IncidentTreeNode",
    "build_incident_tree",
    "render_tree",
]

# Node type tags, matching Algorithm 3's operator_type domain.
ATOMIC = "ATOMIC"
CONS = "CONS"
SEQU = "SEQU"
CHOICE = "CHOICE"
PARA = "PARA"

_TYPE_OF: dict[type, str] = {
    Consecutive: CONS,
    Sequential: SEQU,
    Choice: CHOICE,
    Parallel: PARA,
}

_SYMBOL_OF: dict[str, str] = {CONS: "⊙", SEQU: "⊳", CHOICE: "⊗", PARA: "⊕"}


@dataclass(slots=True)
class IncidentTreeNode:
    """One node of an incident tree (Definition 6).

    ``type`` is ``ATOMIC`` for leaves (then ``activity_name``/``negated``
    are set) or an operator tag (then ``left``/``right`` are set).
    ``label_override`` carries the display form of extended nodes
    (guarded leaves, windowed operators) — the base ``type`` tags stay
    within Definition 6's vocabulary.
    """

    type: str
    activity_name: str | None = None
    negated: bool = False
    left: "IncidentTreeNode | None" = None
    right: "IncidentTreeNode | None" = None
    label_override: str | None = None

    @property
    def is_leaf(self) -> bool:
        return self.type == ATOMIC

    @property
    def label(self) -> str:
        """Display label: the activity name (possibly ¬-prefixed) for
        leaves, the operator glyph for internal nodes."""
        if self.label_override is not None:
            return self.label_override
        if self.is_leaf:
            assert self.activity_name is not None
            return ("¬" if self.negated else "") + self.activity_name
        return _SYMBOL_OF[self.type]

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"IncidentTreeNode({self.label})"
        return f"IncidentTreeNode({self.type}, {self.left!r}, {self.right!r})"


def _tag_of(pattern: BinaryPattern) -> str:
    """Operator tag, honouring subclasses (windowed ⊳ tags as SEQU)."""
    for cls in type(pattern).__mro__:
        if cls in _TYPE_OF:
            return _TYPE_OF[cls]
    raise TypeError(f"unknown operator {type(pattern).__name__}")


def build_incident_tree(pattern: Pattern) -> IncidentTreeNode:
    """Convert a pattern AST into the explicit incident-tree form
    (the output of the paper's Algorithm 3).

    Extended nodes keep their base tag but carry a display label: a
    guarded leaf shows its guard, a windowed ⊳ its bound."""
    if isinstance(pattern, Atomic):
        override = None
        if type(pattern) is not Atomic:
            override = pattern.to_query_text()
        return IncidentTreeNode(
            ATOMIC,
            activity_name=pattern.name,
            negated=pattern.negated,
            label_override=override,
        )
    assert isinstance(pattern, BinaryPattern)
    override = None
    if type(pattern) not in _TYPE_OF:
        override = pattern.symbol
        if getattr(pattern, "bound", None) is not None:
            override = f"⊳[{pattern.bound}]"
    return IncidentTreeNode(
        _tag_of(pattern),
        left=build_incident_tree(pattern.left),
        right=build_incident_tree(pattern.right),
        label_override=override,
    )


def render_tree(node: IncidentTreeNode | Pattern, *, indent: str = "") -> str:
    """Render an incident tree as ASCII art (Figure 4 regeneration).

    >>> from repro.core.parser import parse
    >>> print(render_tree(parse("SeeDoctor -> (UpdateRefer -> GetReimburse)")))
    ⊳
    ├── SeeDoctor
    └── ⊳
        ├── UpdateRefer
        └── GetReimburse
    """
    if isinstance(node, Pattern):
        node = build_incident_tree(node)
    lines: list[str] = [node.label]
    _render_children(node, "", lines)
    return "\n".join(lines)


def _render_children(node: IncidentTreeNode, prefix: str, lines: list[str]) -> None:
    if node.is_leaf:
        return
    assert node.left is not None and node.right is not None
    for child, connector, extension in (
        (node.left, "├── ", "│   "),
        (node.right, "└── ", "    "),
    ):
        lines.append(prefix + connector + child.label)
        _render_children(child, prefix + extension, lines)
