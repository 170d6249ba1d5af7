"""The paper's published evaluation algorithm (Algorithms 1 and 2).

This engine is a faithful transcription of Section 3:

* each of the four operators is evaluated by pairwise iteration over the
  two input incident sets (Algorithm 1) — ``O(n1*n2)`` pairs per operator;
* a query is evaluated by post-order traversal of its incident tree
  (Algorithm 2), evaluating each workflow instance separately against its
  window of the log's columnar index (Algorithm 3's ``LogRecordsDict``);
* atomic leaves read the rows of the activity's leaf list
  (:meth:`~repro.columnar.ColumnarLog.leaves`, the log's one per-activity
  index) clipped to that window, so generating the incidents of an
  activity node costs a bisection plus its output size.

It exists both as the baseline whose measured complexity the benchmark
harness compares against Lemma 1/Theorem 1 and as a second implementation
for differential testing against the optimized engine.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Sequence
from operator import itemgetter

from repro.columnar.column_log import ColumnarLog, as_columnar
from repro.core.eval.base import Engine, EvaluationStats, node_label
from repro.core.incident import Incident, IncidentSet
from repro.core.model import Log
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
    "NaiveEngine",
    "consecutive_eval",
    "sequential_eval",
    "choice_eval",
    "parallel_eval",
]

_first = itemgetter(0)


def consecutive_eval(
    inc1: Sequence[Incident],
    inc2: Sequence[Incident],
    stats: EvaluationStats | None = None,
    gap_ok: Callable[[int, int], bool] | None = None,
) -> list[Incident]:
    """CONSECUTIVE-EVAL of Algorithm 1: keep pairs with
    ``last(o1) + 1 == first(o2)`` (operands must share a wid)."""
    if gap_ok is None:
        gap_ok = lambda last1, first2: last1 + 1 == first2  # noqa: E731
    out: list[Incident] = []
    for o1 in inc1:
        for o2 in inc2:
            if stats is not None:
                stats.pairs_examined += 1
            if o1.wid == o2.wid and gap_ok(o1.last, o2.first):
                out.append(o1.union(o2))
    return out


def sequential_eval(
    inc1: Sequence[Incident],
    inc2: Sequence[Incident],
    stats: EvaluationStats | None = None,
    gap_ok: Callable[[int, int], bool] | None = None,
) -> list[Incident]:
    """SEQUENTIAL-EVAL of Algorithm 1: keep pairs with
    ``last(o1) < first(o2)`` (or the operator's refined gap constraint,
    e.g. a windowed ⊳)."""
    if gap_ok is None:
        gap_ok = lambda last1, first2: last1 < first2  # noqa: E731
    out: list[Incident] = []
    for o1 in inc1:
        for o2 in inc2:
            if stats is not None:
                stats.pairs_examined += 1
            if o1.wid == o2.wid and gap_ok(o1.last, o2.first):
                out.append(o1.union(o2))
    return out


def choice_eval(
    inc1: Sequence[Incident],
    inc2: Sequence[Incident],
    stats: EvaluationStats | None = None,
) -> list[Incident]:
    """CHOICE-EVAL of Algorithm 1: the union of the two incident sets with
    duplicates (identical record sets) eliminated.

    The paper's pseudo-code compares candidate incidents element-wise;
    :class:`~repro.core.incident.Incident` hashes by its record set, so the
    same comparison is expressed through set membership here (the per-pair
    cost remains linear in the incident length, exactly as analysed in
    Section 3.1).
    """
    if stats is not None:
        stats.pairs_examined += len(inc1) + len(inc2)
    seen: set[Incident] = set()
    out: list[Incident] = []
    for o in list(inc1) + list(inc2):
        if o not in seen:
            seen.add(o)
            out.append(o)
    return out


def parallel_eval(
    inc1: Sequence[Incident],
    inc2: Sequence[Incident],
    stats: EvaluationStats | None = None,
) -> list[Incident]:
    """PARALLEL-EVAL of Algorithm 1: keep pairs of disjoint incidents.

    As in the paper the result can contain duplicate record sets produced
    by different pairs (e.g. ``A ⊕ A`` on two A-records produces the same
    union twice); the output is deduplicated because ``incL`` is a set.
    """
    seen: set[Incident] = set()
    out: list[Incident] = []
    for o1 in inc1:
        for o2 in inc2:
            if stats is not None:
                stats.pairs_examined += 1
            if o1.wid == o2.wid and o1.disjoint(o2):
                union = o1.union(o2)
                if union not in seen:
                    seen.add(union)
                    out.append(union)
    return out


class NaiveEngine(Engine):
    """Algorithm 2: post-order incident-tree evaluation with the pairwise
    operator algorithms of Algorithm 1.

    The log's columnar index plays the role of ``LogRecordsDict``: each
    workflow instance is its window of rows, evaluated independently
    (incidents never span instances), matching lines 13-14 of Algorithm 2.
    """

    name = "naive"

    def evaluate(self, log: "Log | ColumnarLog", pattern: Pattern) -> IncidentSet:
        columnar = as_columnar(log)
        stats = self._new_stats()
        incidents: list[Incident] = []
        # each leaf activity's rows, the firsts of its leaf list, taken
        # once per evaluation
        leaf_rows: dict[int, list[int]] = {}
        with self.tracer.span("evaluate", key=(), engine=self.name, pattern=str(pattern)):
            for _, lo, hi in columnar.wid_windows():
                self._checkpoint(stats)
                incidents.extend(
                    self._eval_node(columnar, leaf_rows, lo, hi, pattern, stats, "root")
                )
            self._check_budget(len(incidents))
            stats.note_live(len(incidents))
            stats.incidents_produced += len(incidents)
        self._finish(stats)
        return IncidentSet(incidents)

    def _eval_node(
        self,
        columnar: ColumnarLog,
        leaf_rows: dict[int, list[int]],
        lo: int,
        hi: int,
        pattern: Pattern,
        stats: EvaluationStats,
        key: int | str = "root",
    ) -> list[Incident]:
        with self.tracer.span(node_label(pattern), key=key) as span:
            if isinstance(pattern, Atomic):
                rows = columnar.rows
                act_id = columnar.act_id_of(pattern.name)
                if pattern.negated:
                    candidates = rows[lo:hi]
                elif act_id is None:
                    candidates = ()
                else:
                    # per-activity index lookup, clipped to the instance's
                    # rows ("constant time" per Section 3.2)
                    index = leaf_rows.get(act_id) or leaf_rows.setdefault(
                        act_id, list(map(_first, columnar.leaves(act_id)[0]))
                    )
                    start = bisect_left(index, lo)
                    candidates = map(rows.__getitem__, index[start : bisect_left(index, hi, start)])
                result = [Incident([r]) for r in candidates if pattern.matches(r)]
            else:
                assert isinstance(pattern, BinaryPattern)
                left = self._eval_node(columnar, leaf_rows, lo, hi, pattern.left, stats, 0)
                right = self._eval_node(columnar, leaf_rows, lo, hi, pattern.right, stats, 1)
                stats.note_operator(pattern.symbol)
                pairs_before = stats.pairs_examined
                if isinstance(pattern, Consecutive):
                    result = consecutive_eval(left, right, stats, pattern.gap_ok)
                elif isinstance(pattern, Sequential):
                    result = sequential_eval(left, right, stats, pattern.gap_ok)
                elif isinstance(pattern, Choice):
                    result = choice_eval(left, right, stats)
                elif isinstance(pattern, Parallel):
                    result = parallel_eval(left, right, stats)
                else:  # pragma: no cover
                    raise TypeError(f"unknown operator {type(pattern).__name__}")
                span.set_tag("operator", pattern.symbol)
                span.add(
                    n1=len(left),
                    n2=len(right),
                    pairs=stats.pairs_examined - pairs_before,
                )
                self._checkpoint(stats)
            self._check_budget(len(result))
            stats.note_live(len(result))
            stats.incidents_produced += len(result)
            span.add(incidents=len(result))
        return result
