"""The production join kernel: window-at-a-time evaluation over the columnar log.

The paper's Algorithm 1 inspects every pair of sub-incidents for every
operator (:class:`~repro.core.eval.naive.NaiveEngine` keeps that
procedure verbatim as the reference).  This kernel keeps each
intermediate incident set sorted by ``first`` (per workflow instance) and
exploits that order:

* **sequential** ``p1 ⊳ p2`` — for each left incident, the qualifying right
  incidents form a contiguous slice of the ``first``-sorted right list
  (a suffix; a window bound clips its end); both boundaries are found by
  binary search, so no failing pair is ever examined;
* **consecutive** ``p1 ⊙ p2`` — right incidents are hashed by ``first`` and
  each left incident probes ``last+1`` (a hash join on the adjacency key);
* **parallel** ``p1 ⊕ p2`` — pairs whose is-lsn spans do not overlap are
  disjoint by construction, so the record-level disjointness test runs only
  for span-overlapping pairs;
* **choice** — a hash-set union.

Output sizes are unchanged — the optimizations cut the *search*, not the
result (which Lemma 1 lower-bounds at ``n1·n2`` in the worst case).

The joins run over :class:`~repro.columnar.ColumnarLog` column slices
instead of object rows:

* each workflow instance is one contiguous row window ``[lo, hi)`` of the
  columnar layout — no per-instance dict probing;
* activity leaves are answered from the per-activity row index, and
  negated leaves scan the interned ``act_id`` integer column — record
  objects are never touched for plain leaves.  Attribute-guarded leaves
  (subclasses of :class:`~repro.core.pattern.Atomic`) need the attribute
  maps and match the window's record objects; everything around them
  stays columnar;
* intermediate incidents are plain ``(first, last, positions)`` tuples
  (``positions`` a frozenset of is-lsn values), so the quadratic join
  loops move integers and frozensets instead of allocating
  :class:`~repro.core.incident.Incident` objects;
* the root hands its tuples to :meth:`IncidentSet.from_spans
  <repro.core.incident.IncidentSet.from_spans>` as they are;
  :class:`~repro.core.incident.Incident` objects exist only once a
  caller iterates the result.

A pattern is compiled once per evaluation into a tree of closures, one
per pattern node, each a window evaluator ``f(wi, lo, hi)``.  Tracing is
a *compile-time hook* on that one tree, not a sibling evaluator: with a
live tracer every node is wrapped in its span, and it costs nothing when
it is off.

:meth:`VectorizedEngine.evaluate_all` is the one pass: it walks the
windows once for a list of roots, each joined on every window or, when it
carries an earlier epoch's result, only on the instances appended to
since.  A batch compiles its roots into one forest, memoised by pattern:
each distinct binary subpattern and each distinct root is one closure that
remembers its last window's result, so a recurring subpattern is joined
once per window.  Leaves are not memoised; the activity index answers
them as fast as a memo could.

:meth:`VectorizedEngine.count` is the kernel's count pass: a ⊙/⊳ chain of
leaves is counted by a suffix-sum DP over the leaves' positions in each
window, read by the same leaf resolution the joins read (:func:`_leaf`),
so the count never builds the incident set Lemma 1 and Theorem 1 size.

Budgets are charged with the work the paper counts (Lemma 1's pairs), not
per window or per node.  One evaluation keeps one work count,
``pairs_examined + operator_evals``, and consults the governor only when
that count reaches the mark
:meth:`~repro.core.governor.ResourceGovernor.next_due` set: every
:data:`~repro.core.governor.CHECK_STRIDE` units, or at the first unit that
can cross ``max_pairs``.  The ⊳, ⊙ and ⊕ joins add their pairs once per
left incident (the slice of right incidents it examined) and compare the
count to the mark there, together with the join's output so far against
``max_incidents``; every node compares it again after its join.  So a
``max_pairs`` kill is exact to one slice, a deadline or cancel is seen
about every millisecond of join work, and a run that completes is checked
once more at its end.  The count pass adds its scanned leaf positions to
the same count after each window.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections.abc import Callable, Sequence, Set
from functools import partial
from itertools import accumulate
from operator import itemgetter

from repro.columnar.column_log import ColumnarLog, as_columnar
from repro.core.algebra import flatten_chain
from repro.core.eval.base import Engine, EvaluationStats, node_label
from repro.core.incident import IncidentSet
from repro.core.model import Log, LogRecord
from repro.core.pattern import (
    Atomic,
    BinaryPattern,
    Choice,
    Consecutive,
    Parallel,
    Pattern,
    Sequential,
)

__all__ = ["VectorizedEngine", "supports_counting"]

#: Intermediate incident: ``(first, last, frozenset of is-lsn positions)``.
#: Within one workflow instance is-lsn and lsn are in bijection, so the
#: position set carries exactly the identity an Incident's lsn set does.
_Span = tuple[int, int, frozenset]

#: One compiled pattern node: ``f(wi, lo, hi)`` evaluates the node over the
#: instance window ``[lo, hi)`` (window number ``wi``), first-sorted.
#: Results may be shared (leaf caches, memoised nodes): never mutate one.
_Node = Callable[[int, int, int], Sequence[_Span]]


#: Work count no evaluation reaches: the mark of a run with no governor,
#: and the cap of one with no ``max_incidents``.
_NEVER = sys.maxsize

_first_last = itemgetter(0, 1)


def _sorted_by_first(incidents: list[_Span]) -> list[_Span]:
    incidents.sort(key=_first_last)
    return incidents


def _leaf(
    columnar: ColumnarLog, pattern: Atomic, *, spans: bool
) -> Callable[[int, int, int], Sequence]:
    """The window function ``f(wi, lo, hi)`` of one leaf, for the joins
    and for :meth:`VectorizedEngine.count` alike.

    With ``spans`` it gives the leaf's incidents ``(p, p, {p})`` in the
    window, first-sorted (shared for a positive leaf: never mutate them);
    without, the ascending is-lsn positions ``p`` of its records there.
    A positive leaf reads the activity's cached leaf incidents
    (:meth:`~repro.columnar.ColumnarLog.leaf_spans`), and a negated one the
    ``act_id`` column: within the window the record at row ``r`` has
    is-lsn ``r - lo + 1`` (rows are is-lsn ordered, per-instance is-lsn
    consecutive from 1).  An attribute-guarded leaf (a subclass of
    :class:`~repro.core.pattern.Atomic`) needs the attribute maps, so it
    matches the window's record objects.
    """
    if type(pattern) is not Atomic:
        all_rows = columnar._rows
        matches = pattern.matches

        def positions(wi: int, lo: int, hi: int) -> list[int]:
            return [r.is_lsn for r in all_rows[lo:hi] if matches(r)]

    else:
        act_id = columnar.act_id_of(pattern.name)
        if pattern.negated:
            act_col = columnar._act_id

            def positions(wi: int, lo: int, hi: int) -> list[int]:
                base = 1 - lo
                return [row + base for row in range(lo, hi) if act_col[row] != act_id]

        elif act_id is None:
            return lambda wi, lo, hi: ()
        else:
            by_window = columnar.leaf_spans(act_id)
            if spans:
                return lambda wi, lo, hi: by_window[wi]
            return lambda wi, lo, hi: [span[0] for span in by_window[wi]]
    if not spans:
        return positions

    def leaf_spans(wi: int, lo: int, hi: int) -> list[_Span]:
        return [(p, p, frozenset((p,))) for p in positions(wi, lo, hi)]

    return leaf_spans


class _Meter:
    """One evaluation's budgets, read where its work is done.

    ``due`` is the work count (``stats.pairs_examined +
    stats.operator_evals``) at which the governor is next consulted
    (:data:`_NEVER` without one; 0 at the start, so a run opens with a
    checkpoint) and ``cap`` the ``max_incidents`` a join's output is held
    to.  Callers compare the count to ``due`` themselves and call
    :meth:`check` when it is reached or the cap is passed.
    """

    __slots__ = ("stats", "due", "cap", "_engine", "_governor")

    def __init__(self, engine: "VectorizedEngine", stats: EvaluationStats):
        self.stats = stats
        self.due = _NEVER if engine.governor is None else 0
        self.cap = _NEVER if engine.max_incidents is None else engine.max_incidents
        self._engine = engine
        self._governor = engine.governor

    def check(self, size: int = 0) -> int:
        """Consult the governor if the work count is due, then hold an
        output of ``size`` incidents to the cap; returns the next mark."""
        stats = self.stats
        governor = self._governor
        if governor is not None and stats.pairs_examined + stats.operator_evals >= self.due:
            self._engine._checkpoint(stats)
            self.due = governor.next_due(stats)
        if size > self.cap:
            self._engine._check_budget(size)
        return self.due


def _window_hits(roots: Sequence[_Node]) -> int:
    """The node evaluations a forest elides in a window that calls
    ``roots`` (memoised roots): every call of a memoised node after its
    first there.  A memoised node keeps the memoised nodes it calls in its
    ``calls`` attribute."""
    seen: set[_Node] = set()
    hits = 0
    todo = list(roots)
    while todo:
        node = todo.pop()
        if node in seen:
            hits += 1
        else:
            seen.add(node)
            todo += node.calls  # type: ignore[attr-defined]
    return hits


def _last_window(node: _Node, calls: tuple[_Node, ...]) -> _Node:
    """``node`` answering a repeated call for the window it last ran for
    with that result.  Windows are walked once, in order, so only the last
    result can be asked for again.  ``calls``, the memoised nodes ``node``
    calls, is kept for :func:`_window_hits`."""
    last_wi = -1
    last: Sequence[_Span] = ()

    def memo_node(wi: int, lo: int, hi: int) -> Sequence[_Span]:
        nonlocal last_wi, last
        if wi != last_wi:
            last = node(wi, lo, hi)
            last_wi = wi
        return last

    memo_node.calls = calls  # type: ignore[attr-defined]
    return memo_node


class VectorizedEngine(Engine):
    """Sort/hash-join evaluation over columnar windows (see module docs)."""

    name = "vectorized"

    def evaluate(self, log: "Log | ColumnarLog", pattern: Pattern) -> IncidentSet:
        (incidents,), _ = self.evaluate_all(log, [pattern], forest=False)
        return incidents

    def evaluate_all(
        self,
        log: "Log | ColumnarLog",
        patterns: Sequence[Pattern],
        bases: Sequence["tuple[IncidentSet, Set[int]] | None"] = (),
        *,
        forest: bool = True,
    ) -> tuple[list[IncidentSet], int]:
        """Every pattern of ``patterns`` in one pass over the windows: the
        incident sets in input order, and the node evaluations that shared
        subpatterns elided.

        Root ``i`` is whole-log unless ``bases[i]`` is ``(base, touched)``:
        ``base`` is its kernel result at an earlier epoch of the store
        ``log`` is a snapshot of, ``touched`` the instances with a record
        since.  Such a root is joined (and counted) only on the touched
        windows, and every other instance keeps what it has in ``base``
        (:meth:`IncidentSet.carried_to
        <repro.core.incident.IncidentSet.carried_to>`).  A window calls
        the roots it belongs to, in input order.

        With ``forest`` (a batch) the patterns compile into one forest in
        which each distinct binary subpattern and each distinct root is
        one closure remembering its last window's result, so a recurring
        subpattern is joined, counted and checked once per window;
        without it each root compiles alone, as Algorithm 1 evaluates it.
        The pass keeps one ``EvaluationStats`` and one governor account;
        ``max_incidents`` bounds each whole result.
        """
        columnar = as_columnar(log)
        memo: "dict[Pattern, _Node] | None" = {} if forest else None
        bases = list(bases) + [None] * (len(patterns) - len(bases))
        every = [i for i, base in enumerate(bases) if base is None]
        # the windows a delta root joins, each calling its own roots
        touched: dict[int, tuple[int, int, int]] = {}
        calls: dict[int, list[int]] = {}
        for wid in {wid for base in bases if base is not None for wid in base[1]}:
            wi, lo, hi = columnar.window(wid)
            touched[wi] = (wid, lo, hi)
            calls[wi] = [i for i, b in enumerate(bases) if b is None or wid in b[1]]
        stats = self._new_stats()
        meter = _Meter(self, stats)
        text = " ; ".join(map(str, patterns)) if self.tracer.enabled else ""
        with self.tracer.span("evaluate", key=(), engine=self.name, pattern=text):
            roots = [self._compile(columnar, p, meter, forest=memo) for p in patterns]
            hits = 0
            if memo is not None:  # what the forest elides in each window, by the roots it calls
                hits = (len(columnar.wids) - len(calls)) * _window_hits([roots[i] for i in every])
                for called in calls.values():
                    hits += _window_hits([roots[i] for i in called])
            found: list[list[tuple[int, int, Sequence[_Span]]]] = [[] for _ in roots]
            meter.check()
            # work is only done in nodes, and every node compares the work
            # count to the mark after its join: the loops have nothing to check
            if not touched:
                rooted = list(zip(roots, found))
                for wi, (wid, lo, hi) in enumerate(columnar.wid_windows()):
                    for root, root_found in rooted:
                        spans = root(wi, lo, hi)
                        if spans:
                            root_found.append((wid, lo, spans))
            else:
                windows = enumerate(columnar.wid_windows()) if every else sorted(touched.items())
                for wi, (wid, lo, hi) in windows:
                    for i in calls.get(wi, every):
                        spans = roots[i](wi, lo, hi)
                        if spans:
                            found[i].append((wid, lo, spans))
            self._checkpoint(stats)
            results = []
            for root_found, base in zip(found, bases):
                if base is None:
                    incidents = IncidentSet.from_spans(columnar, root_found)
                else:
                    incidents = base[0].carried_to(columnar, base[1], root_found)
                self._check_budget(len(incidents))
                n = sum(len(spans) for _, _, spans in root_found)
                stats.note_live(n)
                stats.incidents_produced += n
                results.append(incidents)
        self._finish(stats)
        return results, hits

    def count(self, log: "Log | ColumnarLog", pattern: Pattern) -> int:
        """Number of incidents.  A ⊙/⊳ chain of leaves
        (:func:`supports_counting`), whose incident set may be quadratic or
        worse in the log size (Lemma 1, Theorem 1), is counted without
        materialising it; any other pattern is the size of its set.

        For leaves ``a1 … ak`` with positions ``P1 … Pk`` in a window, each
        tuple ``p1 < … < pk`` with ``pi ∈ Pi`` that satisfies every gap is
        the sorted record set of exactly one incident, so the count sums,
        right to left,

            g_k(p) = 1                                 for p ∈ P_k
            g_j(p) = Σ { g_{j+1}(q) : q ∈ P_{j+1}, gap_j(p, q) }

        where each gap sum is a suffix (⊳), range (⊳[w]) or point (⊙, that
        is ⊳[1]) lookup over prefix sums of ``g_{j+1}`` — no pair is
        enumerated.  The positions are the leaves' own (:func:`_leaf`).

        The scanned positions are the count's work: they are added to
        ``pairs_examined`` and checked like a join's pairs, so a kill
        carries them in its partial stats.  A count that completes examined
        no pairs and leaves ``last_stats`` None; ``max_incidents`` does not
        bound it, as it builds no set.
        """
        if not supports_counting(pattern):
            return len(self.evaluate(log, pattern))
        columnar = as_columnar(log)
        items, gaps = flatten_chain(pattern)
        leaves = [_leaf(columnar, item, spans=False) for item in items]
        bounds = [1 if isinstance(gap, Consecutive) else getattr(gap, "bound", None) for gap in gaps]
        stats = self._new_stats()
        meter = _Meter(self, stats)
        total = scanned = 0
        with self.tracer.span("count", key=(), pattern=str(pattern)) as span:
            due = meter.check()
            for wi, (_, lo, hi) in enumerate(columnar.wid_windows()):
                per_leaf = []
                for leaf in leaves:
                    found = leaf(wi, lo, hi)
                    if not found:
                        break
                    scanned += len(found)
                    per_leaf.append(found)
                else:
                    total += _count_window(per_leaf, bounds)
                if scanned >= due:
                    stats.pairs_examined = scanned
                    due = meter.check()
            stats.pairs_examined = scanned
            self._checkpoint(stats)
            span.add(instances=len(columnar.wids), chain_length=len(items), incidents=total)
        self.last_stats = None
        if self.metrics is not None:
            self.metrics.counter("engine.counting_evals").inc()
            self.metrics.counter("engine.counted_incidents").inc(total)
        return total

    def exists(self, log: "Log | ColumnarLog", pattern: Pattern) -> bool:
        """Short-circuit existence check.

        For patterns whose operators are only ``⊳`` and ``⊗``, a greedy
        earliest-completion scan decides existence in time linear in each
        instance trace, never materialising incident sets.  Other
        patterns evaluate instance by instance, so a hit in an early
        instance stops the scan.  The greedy scan does no join work, so it
        is checked only where the run begins and ends.
        """
        columnar = as_columnar(log)
        stats = self._new_stats()
        meter = _Meter(self, stats)
        if _greedy_safe(pattern):
            rows = columnar._rows
            hit = lambda wi, lo, hi: (  # noqa: E731
                _earliest_end(rows[lo:hi], pattern, 1) is not None
            )
        else:
            hit = self._compile(columnar, pattern, meter)
        meter.check()
        found = False
        for wi, (_, lo, hi) in enumerate(columnar.wid_windows()):
            if hit(wi, lo, hi):
                found = True
                break
        self._checkpoint(stats)
        self._finish(stats)
        return found

    # -- compilation: one closure per pattern node -----------------------------

    def _compile(
        self,
        columnar: ColumnarLog,
        pattern: Pattern,
        meter: _Meter,
        key: int | str = "root",
        forest: "dict[Pattern, _Node] | None" = None,
    ) -> _Node:
        """Compile ``pattern`` into its window evaluator.

        Dispatch, leaf act-id resolution and join selection happen once
        per evaluation instead of once per node per instance, and the
        per-node stats epilogue (budget check, live peak, incidents
        produced) is inlined into the closures.  ``key`` is the node's
        position under its parent (the span key).  With a ``forest``
        (:meth:`evaluate_all`), a binary node or root already compiled
        there is that closure, and a new one is memoised outside its
        span — so an answered occurrence records neither stats nor a
        span.
        """
        shared = forest is not None and (key == "root" or isinstance(pattern, BinaryPattern))
        if shared:
            node = forest.get(pattern)
            if node is not None:
                return node
        calls: tuple[_Node, ...] = ()
        if isinstance(pattern, Atomic):
            node = self._compile_atomic(columnar, pattern, meter.stats)
        else:
            assert isinstance(pattern, BinaryPattern)
            left = self._compile(columnar, pattern.left, meter, 0, forest)
            right = self._compile(columnar, pattern.right, meter, 1, forest)
            node = self._compile_join(pattern, left, right, meter)
            # the memoised nodes it calls: its binary operands'
            if shared and isinstance(pattern.left, BinaryPattern):
                calls += (left,)
            if shared and isinstance(pattern.right, BinaryPattern):
                calls += (right,)
        if self.tracer.enabled:
            node = self._traced(pattern, key, node)
        if shared:
            node = forest[pattern] = _last_window(node, calls)
        return node

    def _compile_join(
        self, pattern: BinaryPattern, left: _Node, right: _Node, meter: _Meter
    ) -> _Node:
        if isinstance(pattern, Sequential):
            join = partial(
                self._join_sequential,
                meter,
                bound=getattr(pattern, "bound", None),
            )
        elif isinstance(pattern, Consecutive):
            join = partial(self._join_consecutive, meter)
        elif isinstance(pattern, Parallel):
            join = partial(self._join_parallel, meter)
        else:
            join = partial(self._union_choice, meter.stats)

        symbol = pattern.symbol
        stats = meter.stats
        if self.tracer.enabled:
            join = self._observed(join, symbol, stats)
        # only a choice has incidents when an operand has none; a traced
        # join still reports its operand sizes
        enter_empty = self.tracer.enabled or isinstance(pattern, Choice)
        cap = meter.cap
        per_operator = stats.per_operator

        def node(wi: int, lo: int, hi: int) -> Sequence[_Span]:
            o1 = left(wi, lo, hi)
            o2 = right(wi, lo, hi)
            stats.operator_evals += 1
            per_operator[symbol] = per_operator.get(symbol, 0) + 1
            result: Sequence[_Span] = join(o1, o2) if o1 and o2 or enter_empty else ()
            if stats.pairs_examined + stats.operator_evals >= meter.due:
                meter.check()
            n = len(result)
            if n > cap:
                self._check_budget(n)
            if n > stats.max_live_incidents:
                stats.max_live_incidents = n
            stats.incidents_produced += n
            return result

        return node

    def _compile_atomic(
        self, columnar: ColumnarLog, pattern: Atomic, stats: EvaluationStats
    ) -> _Node:
        """Window evaluator of one leaf: its incidents (:func:`_leaf`),
        held to ``max_incidents`` and counted."""
        leaf = _leaf(columnar, pattern, spans=True)
        max_incidents = self.max_incidents

        def leaf_node(wi: int, lo: int, hi: int) -> Sequence[_Span]:
            result = leaf(wi, lo, hi)
            n = len(result)
            if max_incidents is not None and n > max_incidents:
                self._check_budget(n)
            if n > stats.max_live_incidents:
                stats.max_live_incidents = n
            stats.incidents_produced += n
            return result

        return leaf_node

    # -- compile-time hooks ----------------------------------------------------

    def _traced(self, pattern: Pattern, key: int | str, node: _Node) -> _Node:
        """``node`` inside its key-merged span (children nest under it)."""
        tracer = self.tracer
        label = node_label(pattern)

        def traced_node(wi: int, lo: int, hi: int) -> Sequence[_Span]:
            with tracer.span(label, key=key) as span:
                result = node(wi, lo, hi)
                span.add(incidents=len(result))
            return result

        return traced_node

    def _observed(self, join, symbol: str, stats: EvaluationStats):
        """``join`` reporting operand sizes and its own pairs to the span
        of the node that runs it (open, and innermost, at that point)."""
        tracer = self.tracer

        def observed_join(o1: Sequence[_Span], o2: Sequence[_Span]) -> list[_Span]:
            pairs_before = stats.pairs_examined
            result = join(o1, o2)
            span = tracer.current
            span.set_tag("operator", symbol)
            span.add(
                n1=len(o1),
                n2=len(o2),
                pairs=stats.pairs_examined - pairs_before,
            )
            return result

        return observed_join

    # -- the four joins, over position tuples ----------------------------------
    #
    # The ⊳, ⊙ and ⊕ joins keep the pairs count in a local: each left
    # incident adds the slice of right incidents it examined, and when the
    # count reaches the meter's mark (shifted by the operator evals, which a
    # join does not change) or the output passes the cap, the count is
    # written back and the meter checks.

    def _join_sequential(
        self,
        meter: _Meter,
        left: Sequence[_Span],
        right: Sequence[_Span],
        *,
        bound: int | None = None,
    ) -> list[_Span]:
        stats = meter.stats
        pairs = stats.pairs_examined
        due = meter.due - stats.operator_evals
        cap = meter.cap
        firsts = [o[0] for o in right]
        out: list[_Span] = []
        seen: set[frozenset] = set()
        n = len(right)
        for first1, last1, pos1 in left:
            # qualifying right incidents (first > last1, and within the
            # window bound if one applies) form a contiguous slice of the
            # first-sorted right list
            start = bisect_right(firsts, last1)
            stop = n if bound is None else bisect_right(firsts, last1 + bound)
            for first2, last2, pos2 in right[start:stop]:
                union = pos1 | pos2
                if union not in seen:
                    seen.add(union)
                    out.append((first1, last2 if last2 > last1 else last1, union))
            pairs += stop - start
            if pairs >= due or len(out) > cap:
                stats.pairs_examined = pairs
                due = meter.check(len(out)) - stats.operator_evals
        stats.pairs_examined = pairs
        return _sorted_by_first(out)

    def _join_consecutive(
        self,
        meter: _Meter,
        left: Sequence[_Span],
        right: Sequence[_Span],
    ) -> list[_Span]:
        stats = meter.stats
        pairs = stats.pairs_examined
        due = meter.due - stats.operator_evals
        cap = meter.cap
        by_first: dict[int, list[_Span]] = {}
        for o2 in right:
            by_first.setdefault(o2[0], []).append(o2)
        out: list[_Span] = []
        seen: set[frozenset] = set()
        for first1, last1, pos1 in left:
            bucket = by_first.get(last1 + 1, ())
            for first2, last2, pos2 in bucket:
                union = pos1 | pos2
                if union not in seen:
                    seen.add(union)
                    out.append((first1, last2 if last2 > last1 else last1, union))
            pairs += len(bucket)
            if pairs >= due or len(out) > cap:
                stats.pairs_examined = pairs
                due = meter.check(len(out)) - stats.operator_evals
        stats.pairs_examined = pairs
        return _sorted_by_first(out)

    def _join_parallel(
        self,
        meter: _Meter,
        left: Sequence[_Span],
        right: Sequence[_Span],
    ) -> list[_Span]:
        stats = meter.stats
        pairs = stats.pairs_examined
        due = meter.due - stats.operator_evals
        cap = meter.cap
        out: list[_Span] = []
        seen: set[frozenset] = set()
        n = len(right)
        for first1, last1, pos1 in left:
            for first2, last2, pos2 in right:
                # span-based quick accept: non-overlapping is-lsn spans
                # cannot share records
                if last1 < first2 or last2 < first1 or pos1.isdisjoint(pos2):
                    union = pos1 | pos2
                    if union not in seen:
                        seen.add(union)
                        out.append(
                            (
                                first1 if first1 < first2 else first2,
                                last1 if last1 > last2 else last2,
                                union,
                            )
                        )
            pairs += n
            if pairs >= due or len(out) > cap:
                stats.pairs_examined = pairs
                due = meter.check(len(out)) - stats.operator_evals
        stats.pairs_examined = pairs
        return _sorted_by_first(out)

    def _union_choice(
        self,
        stats: EvaluationStats,
        left: Sequence[_Span],
        right: Sequence[_Span],
    ) -> list[_Span]:
        stats.pairs_examined += len(left) + len(right)
        seen: set[frozenset] = {o[2] for o in left}
        merged = list(left)
        merged.extend(o for o in right if o[2] not in seen)
        return _sorted_by_first(merged)


# ---------------------------------------------------------------------------
# Output-free counting of ⊙/⊳ chains of leaves.
# ---------------------------------------------------------------------------

def supports_counting(pattern: Pattern) -> bool:
    """Whether :meth:`VectorizedEngine.count` counts ``pattern`` without
    materialising it: a chain of *leaves* joined by ⊙ / ⊳ / windowed ⊳
    (no ⊗ — branches can overlap, making the count non-additive — and no
    ⊕)."""
    items, _ = flatten_chain(pattern)
    return all(isinstance(item, Atomic) for item in items)


def _count_window(positions: list[Sequence[int]], bounds: list[int | None]) -> int:
    """The chain's incidents in one window: ``positions[j]`` are leaf
    ``j``'s ascending positions, and leaf ``j + 1``'s position lies after
    leaf ``j``'s by at most ``bounds[j]`` (None: by any amount)."""
    later = positions[-1]
    weights = [1] * len(later)
    for here, bound in zip(positions[-2::-1], reversed(bounds)):
        prefix = [0, *accumulate(weights)]
        if bound is None:
            last = prefix[-1]
            weights = [last - prefix[bisect_right(later, p)] for p in here]
        else:
            weights = [
                prefix[bisect_right(later, p + bound)] - prefix[bisect_right(later, p)]
                for p in here
            ]
        later = here
    return sum(weights)


# ---------------------------------------------------------------------------
# Greedy existence check for {atom, ⊳, ⊗} patterns.
# ---------------------------------------------------------------------------

def _greedy_safe(pattern: Pattern) -> bool:
    """Whether the greedy earliest-completion scan decides existence for
    ``pattern``.  Sound for atoms, ``⊳`` and ``⊗``: the earliest completion
    of ``p1`` never rules out a later completion that greedy would need
    (matches are unconstrained suffix-ward).  ``⊙`` (exact adjacency) and
    ``⊕`` (record disjointness) break that dominance argument."""
    if isinstance(pattern, Atomic):
        return True
    # note: *subclasses* of Sequential (windowed ⊳) are excluded — an upper
    # window bound breaks the earliest-completion dominance too.
    if type(pattern) is Sequential or isinstance(pattern, Choice):
        return _greedy_safe(pattern.left) and _greedy_safe(pattern.right)
    return False


def _earliest_end(
    trace: Sequence[LogRecord], pattern: Pattern, start: int
) -> int | None:
    """Smallest ``last`` over incidents of ``pattern`` inside ``trace``
    whose ``first`` is >= ``start`` (is-lsn positions), or None.

    ``trace`` is one instance's records in is-lsn order; position ``i`` in
    the trace has ``is_lsn == i + 1``.
    """
    if isinstance(pattern, Atomic):
        for record in trace[start - 1 :]:
            if pattern.matches(record):
                return record.is_lsn
        return None
    if isinstance(pattern, Choice):
        ends = [
            e
            for e in (
                _earliest_end(trace, pattern.left, start),
                _earliest_end(trace, pattern.right, start),
            )
            if e is not None
        ]
        return min(ends) if ends else None
    assert isinstance(pattern, Sequential)
    left_end = _earliest_end(trace, pattern.left, start)
    if left_end is None:
        return None
    return _earliest_end(trace, pattern.right, left_end + 1)
