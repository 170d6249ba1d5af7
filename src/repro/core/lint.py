"""Static analysis of incident-pattern queries: the ``QW`` diagnostics.

The algebraic laws (Theorems 2-5) and the worst-case size bound
(Theorem 1) let a lot be decided about a query *before* touching a single
log record: atoms outside the vocabulary guarantee empty subresults,
contradictions against the workflow's block structure make whole patterns
unsatisfiable, duplicate choice operands are provably redundant, and the
atom count bounds the incident-set blowup.  This module packages those
decisions as structured :class:`Diagnostic` objects with stable codes,
severities, source spans (from :func:`repro.core.parser.parse_with_spans`)
and fix-it suggestions.

Diagnostic catalogue
--------------------

========  ========  =====================================================
code      severity  meaning
========  ========  =====================================================
QW101     error     positive atom's activity never occurs in the log —
                    every incident containing it is impossible
QW102     error     positive atom's activity is unreachable in the
                    workflow specification
QW201     error     the query as a whole is unsatisfiable (can never
                    produce an incident on the given log / any log of the
                    given specification)
QW202     warning   dead ``⊗`` branch: one alternative of a choice can
                    never match while a sibling can
QW301     warning   duplicate ``⊗`` operand (redundant: ``p ⊗ p ≡ p``,
                    modulo Theorem 2-4 normalization)
QW302     info      duplicate ``⊕`` operand: the query demands two
                    disjoint occurrences of the same subpattern
QW401     warning   estimated evaluation blowup: the cost model (or, with
                    no log, Theorem 1's ``O(m^k)`` bound) exceeds the
                    configured threshold
QW402     info      a cheaper equivalent form exists via Theorem 5 choice
                    factoring (the optimizer's normal form), *proved*
                    equivalent by the containment prover
QW501     info      the batch skips the query's scan: it has the
                    identity (normal form) of an earlier batch sibling,
                    whose incident set the batch shares
QW502     warning   a ``⊗`` operand is provably subsumed by a sibling
                    operand (``p ⊑ q`` implies ``p ⊗ q ≡ q``), beyond
                    the syntactic duplicates QW301 catches
========  ========  =====================================================

Satisfiability here is always *relative to a context*: in the core
algebra every pattern is satisfiable on some log (even ``t ⊙ ¬t`` —
a ``t`` record directly followed by any other record), so QW201/QW202
require a log (vocabulary and record counts) and/or a
:class:`~repro.workflow.spec.WorkflowSpec`.  Against a spec the verdict
is exact up to the prover's state budget: the spec's runs and the
pattern's incidents are both regular languages over the marked
alphabet, and :meth:`~repro.analysis.PatternProver.spec_witness` decides
whether their product is empty (over budget, lint stays silent).  All
emptiness verdicts are sound: a pattern flagged QW201 has a provably
empty incident set.

The linter and the query planner share one canonical form
(:func:`repro.core.optimizer.rules.normalize`), so a query is planned in
exactly the shape lint reasoned about.

The QW402/QW502 equivalence and subsumption verdicts are *proved* by the
:mod:`repro.analysis` containment prover (decision procedures over the
automaton IR), not inferred from syntax or cost heuristics: QW402 is
only emitted once the normal form is proved equivalent to the original
query, and falls back to silence — never a guess — when the proof is
unavailable (state budget, unsupported operator); QW502 proves
containment among the operands of a ``⊗`` itself.  QW501 is read off
:func:`repro.core.optimizer.rules.identity`, the rule the batch executor
aliases by, so lint reports exactly the aliases the batch takes.

Example
-------
>>> from repro.core.lint import Linter
>>> from repro.core.model import Log
>>> log = Log.from_traces([["A", "B"]])
>>> [d.code for d in Linter.for_log(log).lint("A -> Ghost")]
['QW101', 'QW201']
"""

from __future__ import annotations

import difflib
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from enum import IntEnum

from repro.core.algebra import (
    build_left_deep,
    canonicalize,
    choice_normal_form,
    flatten_assoc,
)
from repro.core.model import END, START, Log
from repro.core.optimizer.cost import CostModel, LogStatistics
from repro.core.optimizer.rules import identity, normalize
from repro.core.parser import ParseResult, SourceSpan, parse_with_spans
from repro.core.pattern import (
    Atomic,
    BinaryPattern,
    Choice,
    Consecutive,
    Parallel,
    Pattern,
    Sequential,
    to_text,
)
from repro.workflow.spec import WorkflowSpec

__all__ = [
    "Severity",
    "Diagnostic",
    "DIAGNOSTIC_CODES",
    "Linter",
    "lint_batch",
    "format_diagnostics",
]


# -- prover bridge (lazy: repro.analysis imports the evaluation stack) -----

def _proved_equivalent(p: Pattern, q: Pattern) -> bool | None:
    """Ask the shared prover whether ``p ≡ q``; ``None`` when it cannot
    decide (state budget, unsupported operator) — callers must treat
    ``None`` as "stay silent", never as a verdict."""
    from repro.analysis import AnalysisError, default_prover

    try:
        return default_prover().equivalent(p, q)
    except AnalysisError:
        return None


def _subsumed_operands(operands: Sequence[Pattern]) -> Iterator[tuple[int, int]]:
    """``(j, i)`` for each ``⊗`` operand ``j`` provably subsumed by its
    sibling ``i``, in operand order.  Equivalent operands form a class:
    a later member names the first.
    A first member strictly contained in other classes names the first
    of those.  The proofs are per-pair automaton products: a ``⊗`` of
    more than five operands yields nothing, and an operand the prover
    cannot compile takes no part."""
    from repro.analysis import AnalysisError, default_prover

    if len(operands) > 5:
        return
    prover = default_prover()
    alphabet = prover.alphabet(*operands)
    proved: dict[tuple[int, int], bool] = {}

    def contains(p: int, q: int) -> bool:
        if (p, q) not in proved:
            try:
                proved[p, q] = prover.contains(operands[p], operands[q], alphabet=alphabet)
            except AnalysisError:
                proved[p, q] = False
        return proved[p, q]

    leaders: list[int] = []
    source: dict[int, int] = {}
    for j in range(len(operands)):
        if not prover.compiles(operands[j], alphabet):
            continue
        i = next((i for i in leaders if contains(i, j) and contains(j, i)), None)
        if i is None:
            leaders.append(j)
        else:
            source[j] = i
    for j in range(len(operands)):
        if j in leaders:
            strictly_above = (
                i for i in leaders if i != j and contains(j, i) and not contains(i, j)
            )
            i = next(strictly_above, None)
            if i is not None:
                yield j, i
        elif j in source:
            yield j, source[j]


def _spec_refutes(spec: WorkflowSpec, node: Pattern, root: Pattern) -> bool:
    """Whether no run of ``spec`` holds an incident of ``node``, a
    subpattern of ``root``: the spec is compiled once, over ``root``'s
    alphabet.  ``False`` when the prover cannot decide (state budget)."""
    from repro.analysis import AnalysisError, default_prover

    prover = default_prover()
    try:
        witness = prover.spec_witness(spec, node, alphabet=prover.alphabet(root))
    except AnalysisError:
        return False
    return witness is None


@dataclass
class _Emptiness:
    """One :meth:`Linter.lint` call's emptiness verdicts, by node id,
    for the subpatterns of ``root``."""

    root: Pattern
    reasons: dict[int, str | None] = field(default_factory=dict)


class Severity(IntEnum):
    """Diagnostic severity; larger values are more severe."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


#: Stable code -> short title, the authoritative catalogue (documented in
#: docs/QUERY_LANGUAGE.md; the doc test cross-checks the two).
DIAGNOSTIC_CODES: dict[str, str] = {
    "QW101": "activity not in the log vocabulary",
    "QW102": "activity not in the workflow specification",
    "QW201": "unsatisfiable pattern",
    "QW202": "dead choice branch",
    "QW301": "redundant duplicate choice operand",
    "QW302": "duplicate parallel operand",
    "QW401": "estimated evaluation blowup",
    "QW402": "cheaper equivalent form available (proved)",
    "QW501": "query with the identity of a batch sibling",
    "QW502": "choice operand subsumed by a sibling (proved)",
}


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding.

    Attributes
    ----------
    code:
        Stable identifier from :data:`DIAGNOSTIC_CODES` (``QW...``).
    severity:
        :class:`Severity` of the finding.
    message:
        Human-readable explanation, specific to the query.
    span:
        Source range of the offending subexpression, when the query was
        linted from text (None for DSL-built patterns or rewritten nodes).
    suggestion:
        Optional fix-it: an equivalent rewrite or a remediation hint.
    """

    code: str
    severity: Severity
    message: str
    span: SourceSpan | None = None
    suggestion: str | None = None

    def format(self, text: str | None = None) -> str:
        """Render for terminals; with ``text`` a caret line is included."""
        where = f" at {self.span}" if self.span is not None else ""
        lines = [f"{self.code} {self.severity}{where}: {self.message}"]
        if text is not None and self.span is not None:
            lines.append(f"    {text}")
            lines.append(f"    {self.span.caret_line()}")
        if self.suggestion:
            lines.append(f"  suggestion: {self.suggestion}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-friendly representation (used by ``repro lint --format json``)."""
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "span": None if self.span is None else [self.span.start, self.span.end],
            "suggestion": self.suggestion,
        }


def format_diagnostics(
    diagnostics: Sequence[Diagnostic], text: str | None = None
) -> str:
    """Render a batch of diagnostics, one block per finding."""
    if not diagnostics:
        return "no diagnostics"
    return "\n".join(d.format(text) for d in diagnostics)


def _pairwise_operator_count(pattern: Pattern) -> int:
    """Number of ⊙/⊳/⊕ nodes — the ``k`` of Theorem 1's ``O(m^k)``."""
    return sum(
        1
        for node in pattern.walk()
        if isinstance(node, (Consecutive, Sequential, Parallel))
    )


#: Cap on ⊗ nodes per subtree for the choice-normal-form record-demand
#: reasoning of QW201; larger subtrees are skipped.
_MAX_CNF_CHOICES = 7


def _choice_count(pattern: Pattern) -> int:
    return sum(1 for node in pattern.walk() if isinstance(node, Choice))


def _walk_with_parent(
    node: Pattern, parent: Pattern | None = None
) -> Iterator[tuple[Pattern, Pattern | None]]:
    yield node, parent
    if isinstance(node, BinaryPattern):
        yield from _walk_with_parent(node.left, node)
        yield from _walk_with_parent(node.right, node)


class Linter:
    """Static analyzer for incident patterns.

    Parameters
    ----------
    stats:
        Log statistics; enables the vocabulary (QW101), record-demand
        (QW201) and cost-model (QW401) checks.
    spec:
        A workflow model; enables the specification checks (QW102,
        QW201, QW202).
    cost_threshold:
        Estimated plan cost above which QW401 fires (with ``stats``).
    incident_threshold:
        Estimated incident-set cardinality above which QW401 fires.
    max_pairwise_operators:
        Without ``stats``, QW401 fires when the pattern chains more than
        this many pairwise (⊙/⊳/⊕) operators — Theorem 1's exponent.
    """

    def __init__(
        self,
        *,
        stats: LogStatistics | None = None,
        spec: WorkflowSpec | None = None,
        cost_threshold: float = 1e7,
        incident_threshold: float = 1e6,
        max_pairwise_operators: int = 6,
    ):
        self.stats = stats
        self.spec = spec
        self.cost_threshold = cost_threshold
        self.incident_threshold = incident_threshold
        self.max_pairwise_operators = max_pairwise_operators
        self.model = CostModel(stats) if stats is not None else None

    # -- constructors ------------------------------------------------------

    @classmethod
    def for_log(cls, log: Log, **kwargs) -> "Linter":
        """A linter checking queries against one log's statistics."""
        return cls(stats=LogStatistics.from_log(log), **kwargs)

    @classmethod
    def for_context(
        cls,
        *,
        log: Log | None = None,
        spec: WorkflowSpec | None = None,
        **kwargs,
    ) -> "Linter":
        """A linter using whichever of log / spec are provided."""
        return cls(
            stats=None if log is None else LogStatistics.from_log(log),
            spec=spec,
            **kwargs,
        )

    # -- entry point -------------------------------------------------------

    def lint(self, query: str | Pattern | ParseResult) -> list[Diagnostic]:
        """Analyze ``query`` and return its diagnostics, in source order.

        Accepts query text (spans are tracked), a prior
        :class:`~repro.core.parser.ParseResult`, or a DSL-built
        :class:`~repro.core.pattern.Pattern` (no spans).
        """
        if isinstance(query, str):
            query = parse_with_spans(query)
        if isinstance(query, ParseResult):
            pattern = query.pattern
            span_of = query.span
        else:
            pattern = query
            span_of = lambda node: None  # noqa: E731 - trivial fallback

        diagnostics: list[Diagnostic] = []
        empty = _Emptiness(pattern)
        diagnostics += self._check_vocabulary(pattern, span_of)
        diagnostics += self._check_satisfiability(pattern, span_of, empty)
        diagnostics += self._check_dead_branches(pattern, span_of, empty)
        diagnostics += self._check_redundancy(pattern, span_of)
        diagnostics += self._check_subsumption(pattern, span_of)
        diagnostics += self._check_complexity(pattern, span_of)
        diagnostics.sort(
            key=lambda d: (
                d.span.start if d.span else -1,
                d.span.end if d.span else -1,
                d.code,
            )
        )
        return diagnostics

    # -- vocabulary (QW101 / QW102) ----------------------------------------

    def _check_vocabulary(self, pattern: Pattern, span_of) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        reported: set[tuple[str, int]] = set()
        for atom in pattern.atoms():
            if atom.negated:
                # ¬t matches any *other* record, so an unknown t is
                # harmless (the atom just matches everything)
                continue
            if self.stats is not None and self.stats.count(atom.name) == 0:
                key = ("QW101", id(atom))
                if key not in reported:
                    reported.add(key)
                    out.append(
                        Diagnostic(
                            code="QW101",
                            severity=Severity.ERROR,
                            message=(
                                f"activity {atom.name!r} never occurs in the "
                                f"log; any incident containing it is "
                                f"impossible"
                            ),
                            span=span_of(atom),
                            suggestion=self._closest(
                                atom.name, self.stats.activity_counts
                            ),
                        )
                    )
            if self.spec is not None and atom.name not in self._spec_vocabulary():
                out.append(
                    Diagnostic(
                        code="QW102",
                        severity=Severity.ERROR,
                        message=(
                            f"activity {atom.name!r} is not reachable in the "
                            f"workflow specification"
                        ),
                        span=span_of(atom),
                        suggestion=self._closest(atom.name, self._spec_vocabulary()),
                    )
                )
        return out

    def _spec_vocabulary(self) -> frozenset[str]:
        assert self.spec is not None
        return self.spec.root.activities() | {START, END}

    @staticmethod
    def _closest(name: str, vocabulary) -> str | None:
        matches = difflib.get_close_matches(name, list(vocabulary), n=1)
        return f"did you mean {matches[0]!r}?" if matches else None

    # -- satisfiability (QW201) --------------------------------------------

    def _check_satisfiability(
        self, pattern: Pattern, span_of, empty: _Emptiness
    ) -> list[Diagnostic]:
        reason = self._empty_reason(pattern, empty)
        if reason is None:
            return []
        locus = self._empty_locus(pattern, empty)
        suggestion = None
        if self.spec is not None and locus is not pattern:
            suggestion = (
                "the rest of the query cannot compensate: fix or drop "
                f"the marked subexpression {to_text(locus)!r}"
            )
        return [
            Diagnostic(
                code="QW201",
                severity=Severity.ERROR,
                message=f"query can never produce an incident: {reason}",
                span=span_of(locus),
                suggestion=suggestion,
            )
        ]

    def _empty_reason(self, node: Pattern, empty: _Emptiness) -> str | None:
        """A reason ``incL(node)`` is provably empty in this context, or
        None when emptiness cannot be proven.  Sound: a non-None return
        means no log of the context can contain an incident of ``node``."""
        key = id(node)
        if key not in empty.reasons:
            empty.reasons[key] = self._compute_empty(node, empty)
        return empty.reasons[key]

    def _compute_empty(self, node: Pattern, empty: _Emptiness) -> str | None:
        if isinstance(node, Atomic):
            if node.negated:
                return None
            if self.stats is not None and self.stats.count(node.name) == 0:
                return f"activity {node.name!r} never occurs in the log"
            if self.spec is not None and node.name not in self._spec_vocabulary():
                return (
                    f"activity {node.name!r} is not reachable in the "
                    f"workflow specification"
                )
            return None
        assert isinstance(node, BinaryPattern)
        if isinstance(node, Choice):
            left = self._empty_reason(node.left, empty)
            if left is None:
                return None
            right = self._empty_reason(node.right, empty)
            if right is None:
                return None
            return f"no alternative of the choice can match ({left})"
        # pairwise operator: empty when either input is, or no run of the
        # specification holds an incident / the log's counts fall short
        for child in (node.left, node.right):
            child_reason = self._empty_reason(child, empty)
            if child_reason is not None:
                return child_reason
        if self.spec is not None and _spec_refutes(self.spec, node, empty.root):
            return (
                f"no run of the workflow specification holds an incident "
                f"of {to_text(node)!r}"
            )
        # choice-normal-form reasoning is exponential in the ⊗ count
        if self.stats is not None and _choice_count(node) <= _MAX_CNF_CHOICES:
            over = self._overdemand(node)
            if over is not None:
                return over
        return None

    def _overdemand(self, node: Pattern) -> str | None:
        """Empty because every choice-free branch needs more records of
        some activity than the whole log contains."""
        assert self.stats is not None
        worst: tuple[str, int, int] | None = None
        for branch in choice_normal_form(node):
            needs = Counter(a.name for a in branch.atoms() if not a.negated)
            violation = next(
                (
                    (name, needed, self.stats.count(name))
                    for name, needed in needs.items()
                    if self.stats.count(name) < needed
                ),
                None,
            )
            if violation is None:
                return None  # this branch is not refuted by counts
            worst = violation
        if worst is None:
            return None
        name, needed, have = worst
        return (
            f"the pattern needs {needed} disjoint {name!r} records in one "
            f"instance but the whole log contains {have}"
        )

    def _empty_locus(self, node: Pattern, empty: _Emptiness) -> Pattern:
        """The deepest subexpression that is provably empty on its own —
        where the diagnostic's span should point."""
        if isinstance(node, Atomic) or isinstance(node, Choice):
            return node
        assert isinstance(node, BinaryPattern)
        for child in (node.left, node.right):
            if self._empty_reason(child, empty) is not None:
                return self._empty_locus(child, empty)
        return node

    # -- dead branches (QW202) ---------------------------------------------

    def _check_dead_branches(
        self, pattern: Pattern, span_of, empty: _Emptiness
    ) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for node, _parent in _walk_with_parent(pattern):
            if not isinstance(node, Choice):
                continue
            sides = ((node.left, node.right), (node.right, node.left))
            for branch, sibling in sides:
                reason = self._empty_reason(branch, empty)
                if reason is None or self._empty_reason(sibling, empty) is not None:
                    continue
                out.append(
                    Diagnostic(
                        code="QW202",
                        severity=Severity.WARNING,
                        message=(
                            f"dead ⊗ branch: {reason}; the query only ever "
                            f"matches via the other alternative"
                        ),
                        span=span_of(branch),
                        suggestion=f"drop the branch, leaving: {to_text(sibling)}",
                    )
                )
        return out

    # -- redundancy (QW301 / QW302) ----------------------------------------

    def _check_redundancy(self, pattern: Pattern, span_of) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for node, parent in _walk_with_parent(pattern):
            if isinstance(node, Choice) and not isinstance(parent, Choice):
                out += self._duplicate_operands(
                    node,
                    Choice,
                    span_of,
                    code="QW301",
                    severity=Severity.WARNING,
                    why=(
                        "is redundant: p ⊗ p ≡ p (set semantics of "
                        "Definition 4, modulo Theorem 2-4 normalization)"
                    ),
                    suggest_dedup=True,
                )
            if isinstance(node, Parallel) and not isinstance(parent, Parallel):
                out += self._duplicate_operands(
                    node,
                    Parallel,
                    span_of,
                    code="QW302",
                    severity=Severity.INFO,
                    why=(
                        "demands two disjoint occurrences of the same "
                        "subpattern in one instance; drop the duplicate if "
                        "one occurrence was meant"
                    ),
                    suggest_dedup=False,
                )
        return out

    def _duplicate_operands(
        self,
        node: BinaryPattern,
        cls: type,
        span_of,
        *,
        code: str,
        severity: Severity,
        why: str,
        suggest_dedup: bool,
    ) -> list[Diagnostic]:
        operands = flatten_assoc(node, cls)
        seen: dict[Pattern, Pattern] = {}
        kept: list[Pattern] = []
        duplicates: list[Pattern] = []
        for operand in operands:
            canon = canonicalize(operand)
            if canon in seen:
                duplicates.append(operand)
            else:
                seen[canon] = operand
                kept.append(operand)
        out: list[Diagnostic] = []
        for duplicate in duplicates:
            suggestion = None
            if suggest_dedup:
                deduped = build_left_deep(cls, kept)
                suggestion = f"equivalent without the duplicate: {to_text(deduped)}"
            out.append(
                Diagnostic(
                    code=code,
                    severity=severity,
                    message=(
                        f"operand {to_text(duplicate)!r} appears more than "
                        f"once under {node.symbol}; it {why}"
                    ),
                    span=span_of(duplicate),
                    suggestion=suggestion,
                )
            )
        return out

    # -- proved choice subsumption (QW502) ---------------------------------

    def _check_subsumption(self, pattern: Pattern, span_of) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for node, parent in _walk_with_parent(pattern):
            if not isinstance(node, Choice) or isinstance(parent, Choice):
                continue
            operands = flatten_assoc(node, Choice)
            for j, i in _subsumed_operands(operands):
                operand, sibling = operands[j], operands[i]
                if canonicalize(operand) == canonicalize(sibling):
                    continue  # a syntactic duplicate is QW301's finding
                kept = [op for k, op in enumerate(operands) if k != j]
                out.append(
                    Diagnostic(
                        code="QW502",
                        severity=Severity.WARNING,
                        message=(
                            f"operand {to_text(operand)!r} is provably "
                            f"subsumed by sibling {to_text(sibling)!r}: "
                            f"every incident of the former is an incident "
                            f"of the latter, so p ⊗ q ≡ q"
                        ),
                        span=span_of(operand),
                        suggestion=(
                            f"equivalent without the subsumed operand: "
                            f"{to_text(build_left_deep(Choice, kept))}"
                        ),
                    )
                )
        return out

    # -- complexity (QW401 / QW402) ----------------------------------------

    def _check_complexity(self, pattern: Pattern, span_of) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        normalized, applied = normalize(pattern)
        factored = any(step.startswith("factor-choice") for step in applied)

        if self.model is not None:
            estimated_cost = self.model.plan_cost(pattern)
            estimated_incidents = self.model.cardinality(pattern)
            if (
                estimated_cost > self.cost_threshold
                or estimated_incidents > self.incident_threshold
            ):
                out.append(
                    Diagnostic(
                        code="QW401",
                        severity=Severity.WARNING,
                        message=(
                            f"estimated evaluation blowup: "
                            f"~{estimated_incidents:,.0f} incidents / cost "
                            f"~{estimated_cost:,.0f} (thresholds "
                            f"{self.incident_threshold:,.0f} / "
                            f"{self.cost_threshold:,.0f}); incident sets are "
                            f"worst-case exponential in pattern size "
                            f"(Theorem 1)"
                        ),
                        span=span_of(pattern),
                        suggestion=self._cheaper_form(pattern, estimated_cost),
                    )
                )
        else:
            k = _pairwise_operator_count(pattern)
            if k > self.max_pairwise_operators:
                out.append(
                    Diagnostic(
                        code="QW401",
                        severity=Severity.WARNING,
                        message=(
                            f"{k} pairwise (⊙/⊳/⊕) operators: worst-case "
                            f"|incL| = O(m^{k + 1}) by Theorem 1; lint "
                            f"against a log for a concrete estimate"
                        ),
                        span=span_of(pattern),
                        suggestion=(
                            "cap materialisation with max_incidents, or use "
                            "exists()/count() instead of run()"
                        ),
                    )
                )

        # QW402 is gated on an actual equivalence proof of the rewritten
        # form: a failed or undecidable proof yields silence, not a guess.
        if factored and _proved_equivalent(pattern, normalized):
            message = (
                "an equivalent cheaper form exists via Theorem 5 choice "
                "factoring (proved equivalent; the planner evaluates this "
                "form)"
            )
            if self.model is not None:
                before = self.model.plan_cost(pattern)
                after = self.model.plan_cost(normalized)
                message += f"; estimated cost {before:,.0f} -> {after:,.0f}"
            out.append(
                Diagnostic(
                    code="QW402",
                    severity=Severity.INFO,
                    message=message,
                    span=span_of(pattern),
                    suggestion=f"equivalent form: {to_text(normalized)}",
                )
            )
        return out

    def _cheaper_form(self, pattern: Pattern, estimated_cost: float) -> str | None:
        """A Theorem 5 / re-association rewrite with a lower estimate, when
        one exists; falls back to a budget hint."""
        assert self.model is not None
        from repro.core.optimizer.planner import Optimizer

        plan = Optimizer(self.model).optimize(pattern)
        if plan.optimized != pattern and plan.optimized_cost < estimated_cost * 0.9:
            return (
                f"cheaper equivalent (estimated cost "
                f"{plan.optimized_cost:,.0f}): {to_text(plan.optimized)}"
            )
        return (
            "cap materialisation with max_incidents, or use exists()/count() "
            "instead of run()"
        )


def lint_batch(
    queries: Sequence[str | Pattern | ParseResult],
    *,
    log: Log | None = None,
    spec: WorkflowSpec | None = None,
    linter: Linter | None = None,
    **kwargs,
) -> list[list[Diagnostic]]:
    """Lint a batch of queries: per-query diagnostics plus the
    cross-query alias finding (QW501).

    QW501 is read off the batch executor's own rule
    (:func:`repro.exec.batch.evaluate_batch`): a query gets one exactly
    when an earlier query has its
    :func:`~repro.core.optimizer.rules.identity`, naming the first such
    sibling, whose incident set it shares — the diagnostic is
    informational, not a defect.  Returns one diagnostic list per query,
    index-aligned with ``queries``.
    """
    if linter is None:
        linter = Linter.for_context(log=log, spec=spec, **kwargs)
    resolved: list[ParseResult | Pattern] = [
        parse_with_spans(query) if isinstance(query, str) else query
        for query in queries
    ]
    per_query = [linter.lint(query) for query in resolved]
    patterns = [
        query.pattern if isinstance(query, ParseResult) else query
        for query in resolved
    ]
    first: dict[Pattern, int] = {}
    for j, pattern in enumerate(patterns):
        i = first.setdefault(identity(pattern), j)
        if i == j:
            continue
        per_query[j].append(
            Diagnostic(
                code="QW501",
                severity=Severity.INFO,
                message=(
                    f"query is provably equivalent to batch sibling #{i + 1} "
                    f"({to_text(patterns[i])!r}): the batch planner evaluates "
                    f"that sibling once and shares its incident set"
                ),
                span=(
                    resolved[j].span(patterns[j])
                    if isinstance(resolved[j], ParseResult)
                    else None
                ),
            )
        )
    return per_query
