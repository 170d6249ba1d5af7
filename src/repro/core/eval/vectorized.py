"""The production join kernel: set-at-a-time evaluation over the columnar log.

The paper's Algorithm 1 evaluates a pattern node by node, inspecting
every pair of sub-incidents for every operator
(:class:`~repro.core.eval.naive.NaiveEngine` keeps that procedure
verbatim as the reference).  This kernel also runs each pattern node
once, over the whole log, as a relational operator over the columnar
rows: every instance is one contiguous row window of
:class:`~repro.columnar.ColumnarLog`, so one global row order serves all
of them, and a join keeps to the window of its left incident by row
arithmetic.

An intermediate result is one list of ``(first_row, last_row, mask)``
over global rows, sorted by ``first_row``: the rows of the incident's
first and last member, and an int with bit ``row - lo`` set for each
member row of its window ``[lo, hi)``.  Union is ``|``, ⊕'s disjointness
test is ``&``, and de-duplication hashes small ints.  The joins exploit
the order:

* **sequential** ``p1 ⊳ p2`` — the right incidents that qualify for a
  left incident are a contiguous slice of the first-sorted right list,
  from the first one after its ``last`` to its window's end (or to
  ``last + k`` for ``⊳[k]``), found by binary search, so no failing pair
  is ever examined; **consecutive** ``p1 ⊙ p2`` is ``⊳[1]``: the slice
  whose ``first`` is ``last + 1``, empty when that row is in the next
  window;
* **parallel** ``p1 ⊕ p2`` — each left incident meets the right
  incidents of its own window, and a pair joins when their masks do not
  intersect;
* **choice** — a merge of the two lists.

Output sizes are unchanged — the optimizations cut the *search*, not the
result (which Lemma 1 lower-bounds at ``n1·n2`` in the worst case) — and
so is the work accounting: ``pairs_examined`` counts each join's slices
as a window-at-a-time join would, and ``operator_evals`` /
``per_operator`` count one evaluation per binary node per window.

Leaves read the columns, never the record objects: over the whole log a
positive leaf is the activity's cached whole-log leaf list
(:meth:`~repro.columnar.ColumnarLog.leaves`), a negated one the other
activities' lists merged, and over fewer windows a leaf reads those
windows' slices of the ``act_id`` column.  Attribute-guarded leaves
(subclasses of :class:`~repro.core.pattern.Atomic`) need the attribute
maps and match the record objects of their candidate rows.  The root
hands its list to
:meth:`IncidentSet.from_spans <repro.core.incident.IncidentSet.from_spans>`
as it is; :class:`~repro.core.incident.Incident` objects exist only once
a caller iterates the result.

:meth:`VectorizedEngine.evaluate_all` is the one pass for a list of
roots, each over the whole log or, when it carries an earlier epoch's
result, over the windows of the instances appended to since (a set of
row ranges).  A batch evaluates its roots as one forest, memoised by
pattern: each distinct binary subpattern and each distinct root runs
once, over the windows of every root that reaches it, and a root that
needs fewer windows reads its slices.  Leaves are not memoised; the leaf
lists answer them as fast as a memo could.  Tracing is one span per node
run: the null tracer's shared no-op span when it is off.

:meth:`VectorizedEngine.count` is the kernel's count pass: a ⊙/⊳ chain of
leaves is counted by a suffix-sum DP over the leaves' rows, read by the
same leaf resolution the joins read (:func:`_leaf_rows`), so the count
never builds the incident set Lemma 1 and Theorem 1 size.

Budgets are charged with the work the paper counts (Lemma 1's pairs).
One evaluation keeps one work count, ``pairs_examined +
operator_evals``, and consults the governor when that count reaches the
mark :meth:`~repro.core.governor.ResourceGovernor.next_due` set: every
:data:`~repro.core.governor.CHECK_STRIDE` units, or at the first unit
that can cross ``max_pairs``.  The ⊳, ⊙ and ⊕ joins add their pairs once
per left incident (the slice of right incidents it examined) and compare
the count to the mark there, together with the output of the left
incident's window so far against ``max_incidents``; every node compares
it again after its join, and a pass that does no join work (a leaf
build, a merge, a level of the count) ends in a checkpoint.  So a
``max_pairs`` kill is exact to one slice, a deadline or cancel is seen
about every millisecond of join work, ``max_incidents`` bounds what one
node holds for one instance (and each whole result), and a run that
completes is checked once more at its end.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from collections.abc import Iterable, Sequence, Set
from itertools import accumulate, chain, compress, repeat
from operator import eq, itemgetter, ne, sub

from repro.columnar.column_log import ColumnarLog, _leaf_list, as_columnar
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

#: Intermediate incident: ``(first_row, last_row, mask)`` — see the
#: module docs.  Within one workflow instance is-lsn and lsn are in
#: bijection, so the mask carries exactly the identity an Incident's lsn
#: set does.  Lists of them may be shared (leaf lists, memoised nodes):
#: never mutate one.
_Span = tuple[int, int, int]

#: Windows a node runs over: ascending, disjoint runs ``(a, b)`` of window
#: numbers, the rows ``[starts[a], starts[b])`` of each.
_Scope = tuple[tuple[int, int], ...]

#: Work count no evaluation reaches: the mark of a run with no governor,
#: and the cap of one with no ``max_incidents``.
_NEVER = sys.maxsize

_first = itemgetter(0)


def _runs(windows: Iterable[int]) -> _Scope:
    """Window numbers as the ascending runs of a scope."""
    runs: list[tuple[int, int]] = []
    for wi in sorted(set(windows)):
        if runs and runs[-1][1] == wi:
            runs[-1] = (runs[-1][0], wi + 1)
        else:
            runs.append((wi, wi + 1))
    return tuple(runs)


def _leaf_rows(
    columnar: ColumnarLog, pattern: Atomic, starts: list[int], scope: _Scope
) -> list[int]:
    """The ascending rows of ``scope`` whose records match one leaf, for
    the joins and for :meth:`VectorizedEngine.count` alike: over the whole
    log a positive leaf's are the firsts of its activity's leaf list, and
    anything else's are read off slices of the ``act_id`` column, so a
    partial scope never builds a leaf list; an attribute-guarded leaf (a
    subclass of :class:`~repro.core.pattern.Atomic`) needs the attribute
    maps, so its candidate rows' records are matched."""
    act_id = columnar.act_id_of(pattern.name)
    rows: list[int] = []
    if pattern.negated or act_id is not None:
        if not pattern.negated and scope == ((0, len(starts) - 1),):
            rows = list(map(_first, columnar.leaves(act_id)[0]))
        else:
            act_col, test = columnar._act_id, ne if pattern.negated else eq
            for a, b in scope:
                lo, hi = starts[a], starts[b]
                rows += compress(range(lo, hi), map(test, act_col[lo:hi], repeat(act_id)))
    if type(pattern) is not Atomic:
        records, matches = columnar._rows, pattern.matches
        rows = [row for row in rows if matches(records[row])]
    return rows


class _Pass:
    """One evaluation: its budgets, read where its work is done, and its
    pattern nodes, each run once over the row ranges of a scope (see the
    module docs).

    ``due`` is the work count (``stats.pairs_examined +
    stats.operator_evals``) at which the governor is next consulted
    (:data:`_NEVER` without one; 0 at the start, so a run opens with a
    checkpoint) and ``cap`` the ``max_incidents`` a node's output in one
    window is held to.  The joins compare the count to ``due`` themselves
    and call :meth:`check` when it is reached or the cap is passed; a pass
    that does no join work ends in :meth:`poll`.

    With a ``forest`` (pattern -> scope of every memoised node: each root
    and each binary subpattern, over the windows of the roots reaching
    it), a memoised node keeps its result and hands each caller the
    slices of the caller's scope; ``hits`` counts the node evaluations
    that saves, window by window: every window of every call of a
    memoised node, less the windows it ran over once.
    """

    def __init__(
        self,
        engine: "VectorizedEngine",
        columnar: ColumnarLog,
        forest: "dict[Pattern, _Scope] | None" = None,
    ):
        self.engine = engine
        self.columnar = columnar
        self.stats = engine._new_stats()
        self.governor = engine.governor
        self.due = _NEVER if engine.governor is None else 0
        self.cap = _NEVER if engine.max_incidents is None else engine.max_incidents
        self.starts: list[int] = columnar._starts.tolist()
        self.whole: _Scope = ((0, len(self.starts) - 1),)
        self.forest = forest
        self.memo: dict[Pattern, list[_Span]] = {}
        self.hits = 0

    # -- budgets -----------------------------------------------------------------

    def check(self, size: int = 0) -> int:
        """Consult the governor if the work count is due, then hold an
        output of ``size`` incidents to the cap; returns the next mark."""
        stats = self.stats
        if stats.pairs_examined + stats.operator_evals >= self.due:
            self.poll()
        if size > self.cap:
            self.engine._check_budget(size)
        return self.due

    def poll(self) -> None:
        """Consult the governor whatever the work count."""
        if self.governor is not None:
            self.engine._checkpoint(self.stats)
            self.due = self.governor.next_due(self.stats)

    def capped(self, counts: Sequence[int]) -> int:
        """The largest of one node's per-window output sizes ``counts``
        (in window order), held to the cap."""
        peak = max(counts, default=0)
        if peak > self.cap:
            self.engine._check_budget(next(n for n in counts if n > self.cap))
        return peak

    # -- nodes -------------------------------------------------------------------

    def node(self, pattern: Pattern, key: int | str, scope: _Scope) -> list[_Span]:
        """``pattern``'s incidents in ``scope``, first-sorted; ``key`` is
        its position under its parent (the span key)."""
        forest = self.forest
        if forest is not None and (key == "root" or isinstance(pattern, BinaryPattern)):
            own = forest[pattern]
            found = self.memo.get(pattern)
            if found is None:
                found = self.memo[pattern] = self._run(pattern, key, own)
                self.hits -= sum(b - a for a, b in own)
            self.hits += sum(b - a for a, b in scope)
            return found if own == scope else self._slices(found, scope)
        return self._run(pattern, key, scope)

    def _slices(self, spans: list[_Span], scope: _Scope) -> list[_Span]:
        starts = self.starts
        out: list[_Span] = []
        for a, b in scope:
            lo = bisect_left(spans, starts[a], key=_first)
            out += spans[lo : bisect_left(spans, starts[b], lo, key=_first)]
        return out

    def _run(self, pattern: Pattern, key: int | str, scope: _Scope) -> list[_Span]:
        """One node's one run, in its span (a no-op one without a tracer)."""
        with self.engine.tracer.span(node_label(pattern), key=key) as span:
            if isinstance(pattern, Atomic):
                found, peak = self._leaf(pattern, scope)
            else:
                assert isinstance(pattern, BinaryPattern)
                found, peak = self._join(pattern, scope, span)
            span.add(incidents=len(found))
        stats = self.stats
        stats.incidents_produced += len(found)
        if peak > stats.max_live_incidents:
            stats.max_live_incidents = peak
        return found

    # -- leaves ------------------------------------------------------------------

    def _leaf(self, pattern: Atomic, scope: _Scope) -> tuple[list[_Span], int]:
        """One leaf's incidents in ``scope`` and its largest window count.
        Over the whole log a plain leaf reads the cached leaf lists — a
        negated one merges the other activities' — and anything else is
        built from its rows (:func:`_leaf_rows`)."""
        columnar = self.columnar
        act_id = columnar.act_id_of(pattern.name)
        if type(pattern) is Atomic and scope == self.whole and act_id is not None:
            if not pattern.negated:
                spans, counts = columnar.leaves(act_id)
                return spans, self.capped(counts)
            spans = []
            for other in range(len(columnar.act_names)):
                if other != act_id:
                    spans += columnar.leaves(other)[0]
            spans.sort(key=_first)
            starts = self.starts
            sizes = map(sub, map(sub, starts[1:], starts), columnar.leaves(act_id)[1])
            self.poll()
            return spans, self.capped(list(sizes))
        counts: dict[int, int] = {}  # by window, for the windows with a row
        spans = _leaf_list(_leaf_rows(columnar, pattern, self.starts, scope), self.starts, counts)
        self.poll()
        return spans, self.capped(list(counts.values()))

    # -- joins -------------------------------------------------------------------

    def _join(self, pattern: BinaryPattern, scope: _Scope, span) -> tuple[list[_Span], int]:
        left = self.node(pattern.left, 0, scope)
        right = self.node(pattern.right, 1, scope)
        stats = self.stats
        windows = sum(b - a for a, b in scope)
        symbol = pattern.symbol
        stats.operator_evals += windows
        stats.per_operator[symbol] = stats.per_operator.get(symbol, 0) + windows
        pairs = stats.pairs_examined
        if isinstance(pattern, Choice):
            found, peak = self._choice(left, right)
        elif not (left and right):
            found, peak = [], 0
        elif isinstance(pattern, Parallel):
            found, peak = self._parallel(left, right)
        elif isinstance(pattern, Consecutive):
            found, peak = self._sequential(left, right, 1)
        else:
            assert isinstance(pattern, Sequential)
            found, peak = self._sequential(left, right, getattr(pattern, "bound", None))
        span.set_tag("operator", symbol)
        span.add(n1=len(left), n2=len(right), pairs=stats.pairs_examined - pairs)
        if stats.pairs_examined + stats.operator_evals >= self.due:
            self.check()
        return found, peak

    # The ⊳ / ⊙ and ⊕ joins walk the left list window by window (a left
    # incident at or past ``hi`` opens the next window with one) and keep
    # the pairs count in a local: each left incident adds the slice of
    # right incidents it examined, and when the count reaches the pass's
    # mark (shifted by the operator evals, which a join does not change)
    # or the window's output passes the cap, the count is written back and
    # the pass checks.

    def _sequential(
        self, left: list[_Span], right: list[_Span], bound: int | None
    ) -> tuple[list[_Span], int]:
        """``left ⊳ right`` (``⊳[bound]``; ``⊙`` is ``⊳[1]``).  The output
        is first-sorted as it is made: each incident's first is its left
        incident's.  One left incident's unions are distinct (its members
        lie before every right member), so only left incidents sharing a
        first can repeat a union, and only they are de-duplicated."""
        stats, starts = self.stats, self.starts
        pairs = stats.pairs_examined
        due = self.due - stats.operator_evals
        cap = self.cap
        capped = cap != _NEVER
        firsts = list(map(_first, right))
        out: list[_Span] = []
        peak = mark = hi = ws = we = run = 0
        run_first = -1
        seen: "set[int] | None" = None
        for first1, last1, mask1 in left:
            if first1 >= hi:
                if len(out) - mark > peak:
                    peak = len(out) - mark
                mark = len(out)
                wi = bisect_right(starts, first1)
                hi = starts[wi]
                ws = bisect_left(firsts, starts[wi - 1], we)
                we = bisect_left(firsts, hi, ws)
            start = bisect_right(firsts, last1, ws, we)
            if bound is None:
                stop = we
            elif start == we or firsts[start] > last1 + bound:
                continue
            else:
                stop = bisect_right(firsts, last1 + bound, start + 1, we)
            if start == stop:
                continue
            if first1 != run_first:
                run_first, run, seen = first1, len(out), None
                if stop - start == 1:
                    _, last2, mask2 = right[start]
                    out.append((first1, last2, mask1 | mask2))
                else:
                    out += [(first1, last2, mask1 | mask2) for _, last2, mask2 in right[start:stop]]
            else:
                if seen is None:
                    seen = {mask for _, _, mask in out[run:]}
                for _, last2, mask2 in right[start:stop]:
                    union = mask1 | mask2
                    if union not in seen:
                        seen.add(union)
                        out.append((first1, last2, union))
            pairs += stop - start
            if pairs >= due or capped and len(out) - mark > cap:
                stats.pairs_examined = pairs
                due = self.check(len(out) - mark) - stats.operator_evals
        stats.pairs_examined = pairs
        return out, max(peak, len(out) - mark)

    def _parallel(self, left: list[_Span], right: list[_Span]) -> tuple[list[_Span], int]:
        """``left ⊕ right``: every pair within a window whose masks do not
        intersect."""
        stats, starts = self.stats, self.starts
        pairs = stats.pairs_examined
        due = self.due - stats.operator_evals
        cap = self.cap
        capped = cap != _NEVER
        firsts = list(map(_first, right))
        out: list[_Span] = []
        peak = mark = hi = ws = we = 0
        window: list[_Span] = []
        seen: set[int] = set()
        for first1, last1, mask1 in left:
            if first1 >= hi:
                if len(out) - mark > peak:
                    peak = len(out) - mark
                mark = len(out)
                wi = bisect_right(starts, first1)
                hi = starts[wi]
                ws = bisect_left(firsts, starts[wi - 1], we)
                we = bisect_left(firsts, hi, ws)
                window = right[ws:we]
                seen = set()
            for first2, last2, mask2 in window:
                if not mask1 & mask2:
                    union = mask1 | mask2
                    if union not in seen:
                        seen.add(union)
                        out.append(
                            (
                                first1 if first1 < first2 else first2,
                                last1 if last1 > last2 else last2,
                                union,
                            )
                        )
            pairs += we - ws
            if pairs >= due or capped and len(out) - mark > cap:
                stats.pairs_examined = pairs
                due = self.check(len(out) - mark) - stats.operator_evals
        stats.pairs_examined = pairs
        peak = max(peak, len(out) - mark)
        out.sort(key=_first)
        return out, peak

    def _choice(self, left: list[_Span], right: list[_Span]) -> tuple[list[_Span], int]:
        """``left ⊗ right``: both lists merged, an incident in both once
        (within a window its mask fixes its first and last, so the span
        tuple is its identity)."""
        self.stats.pairs_examined += len(left) + len(right)
        if not right or not left:
            merged = left or right
        else:
            seen = set(left)
            merged = left + [o for o in right if o not in seen]
            merged.sort(key=_first)
        self.poll()
        windows = Counter(map(bisect_right, repeat(self.starts), map(_first, merged)))
        return merged, self.capped(list(windows.values()))


class VectorizedEngine(Engine):
    """Set-at-a-time sort/hash joins over the columnar log (see module
    docs)."""

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
        """Every pattern of ``patterns`` in one pass: the incident sets in
        input order, and the node evaluations that shared subpatterns
        elided.

        Root ``i`` is whole-log unless ``bases[i]`` is ``(base, touched)``:
        ``base`` is its kernel result at an earlier epoch of the store
        ``log`` is a snapshot of, ``touched`` the instances with a record
        since.  Such a root is joined (and counted) only on the touched
        windows, and every other instance keeps what it has in ``base``
        (:meth:`IncidentSet.carried_to
        <repro.core.incident.IncidentSet.carried_to>`).

        With ``forest`` (a batch) each distinct binary subpattern and each
        distinct root runs once, over the windows of every root reaching
        it, so a recurring subpattern is joined, counted and checked once
        per window; without it each root runs alone, as Algorithm 1
        evaluates it.  The pass keeps one ``EvaluationStats`` and one
        governor account; ``max_incidents`` bounds each whole result.
        """
        columnar = as_columnar(log)
        bases = list(bases) + [None] * (len(patterns) - len(bases))
        windows = len(columnar.wids)
        touched = [
            None if base is None else {columnar.window(wid)[0] for wid in base[1]}
            for base in bases
        ]
        scopes = [((0, windows),) if wis is None else _runs(wis) for wis in touched]
        run = _Pass(self, columnar, _forest_scopes(patterns, touched, windows) if forest else None)
        stats = run.stats
        text = " ; ".join(map(str, patterns)) if self.tracer.enabled else ""
        with self.tracer.span("evaluate", key=(), engine=self.name, pattern=text):
            run.check()
            found = [run.node(p, "root", scope) for p, scope in zip(patterns, scopes)]
            self._checkpoint(stats)
            results = []
            for spans, base in zip(found, bases):
                if base is None:
                    incidents = IncidentSet.from_spans(columnar, spans)
                else:
                    incidents = base[0].carried_to(columnar, base[1], spans)
                self._check_budget(len(incidents))
                stats.note_live(len(spans))
                stats.incidents_produced += len(spans)
                results.append(incidents)
        self._finish(stats)
        return results, run.hits

    def count(self, log: "Log | ColumnarLog", pattern: Pattern) -> int:
        """Number of incidents.  A ⊙/⊳ chain of leaves
        (:func:`supports_counting`), whose incident set may be quadratic or
        worse in the log size (Lemma 1, Theorem 1), is counted without
        materialising it; any other pattern is the size of its set.

        For leaves ``a1 … ak`` with rows ``P1 … Pk``, each tuple ``p1 < …
        < pk`` with ``pi ∈ Pi`` in one window that satisfies every gap is
        the sorted record set of exactly one incident, so the count sums,
        right to left,

            g_k(p) = 1                                 for p ∈ P_k
            g_j(p) = Σ { g_{j+1}(q) : q ∈ P_{j+1}, gap_j(p, q) }

        where each gap sum is a range of ``P_{j+1}`` — after ``p`` and
        before the end of ``p``'s window, or within ``w`` of ``p`` for
        ``⊳[w]`` (⊙ is ⊳[1]) — read off prefix sums of ``g_{j+1}``: no pair
        is enumerated.  The rows are the leaves' own (:func:`_leaf_rows`).

        The scanned rows are the count's work: they are added to
        ``pairs_examined`` and checked like a join's pairs, so a kill
        carries them in its partial stats.  A count that completes examined
        no pairs and leaves ``last_stats`` None; ``max_incidents`` does not
        bound it, as it builds no set.
        """
        if not supports_counting(pattern):
            return len(self.evaluate(log, pattern))
        columnar = as_columnar(log)
        items, gaps = flatten_chain(pattern)
        bounds = [1 if isinstance(gap, Consecutive) else getattr(gap, "bound", None) for gap in gaps]
        run = _Pass(self, columnar)
        stats = run.stats
        with self.tracer.span("count", key=(), pattern=str(pattern)) as span:
            run.check()
            rows = []
            for item in items:
                rows.append(_leaf_rows(columnar, item, run.starts, run.whole))
                run.poll()
            stats.pairs_examined = sum(map(len, rows))
            run.check()
            total = _count_chain(rows, bounds, run) if all(rows) else 0
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
        patterns are evaluated over growing runs of windows (1, 2, 4, …
        instances), so a hit in an early instance stops the scan and a
        miss costs at most twice one pass.  The greedy scan does no join
        work, so it is checked only where the run begins and ends.
        """
        columnar = as_columnar(log)
        run = _Pass(self, columnar)
        run.check()
        found = False
        if _greedy_safe(pattern):
            rows = columnar._rows
            for _, lo, hi in columnar.wid_windows():
                if _earliest_end(rows[lo:hi], pattern, 1) is not None:
                    found = True
                    break
        else:
            windows = run.whole[0][1]
            a, size = 0, 1
            while a < windows and not found:
                b = min(windows, a + size)
                found = bool(run.node(pattern, "root", ((a, b),)))
                a, size = b, 2 * size
        self._checkpoint(run.stats)
        self._finish(run.stats)
        return found


def _forest_scopes(
    patterns: Sequence[Pattern], touched: list["set[int] | None"], windows: int
) -> "dict[Pattern, _Scope]":
    """The scope of each memoised node of a forest: the windows of every
    root reaching it."""
    reach: dict[Pattern, "set[int] | None"] = {}
    for pattern, wis in zip(patterns, touched):
        todo = [pattern]
        while todo:
            node = todo.pop()
            held = reach.get(node, set())
            if held is None or (node in reach and wis is not None and wis <= held):
                continue
            reach[node] = None if wis is None else held | wis
            if isinstance(node, BinaryPattern):
                todo += [p for p in (node.left, node.right) if isinstance(p, BinaryPattern)]
    return {node: ((0, windows),) if wis is None else _runs(wis) for node, wis in reach.items()}


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


def _count_chain(rows: list[list[int]], bounds: list[int | None], run: _Pass) -> int:
    """The chain's incidents: ``rows[j]`` are leaf ``j``'s ascending rows,
    and leaf ``j + 1``'s row lies after leaf ``j``'s in its window, by at
    most ``bounds[j]`` (None: by any amount).

    Each level is a few C-level passes, no Python frame per row:
    ``g_{j+1}`` is spread over all rows, so a ⊙ gap is one lookup of the
    row after (none if it opens the next window) and any other gap the
    difference of two prefix sums by row, up to the row's window end (one
    list per count, each window's end repeated over its rows)."""
    starts, ends = run.starts, None
    later = rows[-1]
    weights = [1] * len(later)
    for here, bound in zip(rows[-2::-1], reversed(bounds)):
        spread = [0] * (starts[-1] + 1)
        deque(map(spread.__setitem__, later, weights), maxlen=0)
        nexts = map((1).__add__, here)
        if bound == 1:
            deque(map(spread.__setitem__, starts, repeat(0)), maxlen=0)
            weights = list(map(spread.__getitem__, nexts))
        else:
            if ends is None:
                sizes = map(sub, starts[1:], starts)
                ends = list(chain.from_iterable(map(repeat, starts[1:], sizes))).__getitem__
            prefix = [0, *accumulate(spread)].__getitem__
            stops: Iterable[int] = map(ends, here)
            if bound is not None:
                stops = map(min, stops, map((bound + 1).__add__, here))
            weights = list(map(sub, map(prefix, stops), map(prefix, nexts)))
        later = here
        run.poll()
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
