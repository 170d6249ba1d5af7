"""Canonical automaton IR for incident patterns.

This module compiles the core pattern algebra (Definition 3) to finite
automata over a *marked alphabet*, the representation underlying every
decision procedure in :mod:`repro.analysis`.  The key observation —
matching SIGNAL's expressive-power results — is that the per-instance
incident semantics of Definition 4 is regular once traces are encoded
as words that carry the incident *in* the word:

* Each letter is a pair ``(activity, marked)``: one log record of a
  single well-formed trace, with ``marked`` true iff the record belongs
  to the candidate incident.  Activities not mentioned by the patterns
  under analysis are collapsed onto a single ``OTHER`` letter — sound
  and complete because every atom treats all unmentioned names
  identically.
* ``lang(p)`` is the set of marked well-formed traces whose marked
  records form an incident of ``p``.  Two patterns are equivalent iff
  their marked languages coincide, and ``p ⊑ q`` iff ``lang(p) ⊆
  lang(q)`` — both decidable by classical automata constructions, and a
  word in the difference decodes directly into a counterexample trace
  plus incident (see :mod:`repro.analysis.prover`).

``lang`` is built by an *anchored* recursion ``A(p)`` over the pattern:
``A(p)`` accepts exactly the words whose first and last letters are
marked and whose marked letters form a ``p``-incident of the word
(unmarked letters may appear inside).  Anchoring makes the operator
cases compositional:

* ``A(t)``          = a single marked letter matching the atom;
* ``A(p1 ⊙ p2)``    = ``A(p1) · A(p2)``                (consecutive);
* ``A(p1 ⊳ p2)``    = ``A(p1) · U* · A(p2)``           (sequential);
* ``A(p1 ⊳[k] p2)`` = ``A(p1) · U^{0..k-1} · A(p2)``   (within-k window);
* ``A(p1 ⊗ p2)``    = ``A(p1) ∪ A(p2)``                (choice);
* ``A(p1 ⊕ p2)``    = first/last-anchored interleavings of
  ``U*·A(p1)·U*`` and ``U*·A(p2)·U*`` where every *marked* letter is
  attributed to exactly one side (parallel = disjoint union).

where ``U`` is the set of unmarked letters.  Finally ``lang(p) =
(U* · A(p) · U*) ∩ WF`` with ``WF`` the 3-state well-formedness DFA of
Definition 2 (``START`` first, ``END`` last-or-absent, sentinels
nowhere else).  The WF intersection is load-bearing: patterns such as
``START ⊙ START`` differ only on ill-formed traces and must not be
distinguished.

:func:`compile_spec` builds the runs of a workflow specification over the
same alphabet, ``START · runs(root) · END?`` with every record marked or
not, so "can ``p`` match some run of the spec" is non-emptiness of its
product with ``lang(p)`` (:func:`common_word`).

Complexity: NFA sizes are linear in pattern size except for parallel
(a product) and the final determinization (exponential worst case, per
Theorem 1's lower bound); every product and subset construction takes a
state budget and raises :class:`AnalysisBudgetError` instead of
exhausting memory.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Iterator

from repro.core.errors import AnalysisBudgetError, UnsupportedPatternError
from repro.core.model import END, START
from repro.core.pattern import (
    Atomic,
    Choice,
    Consecutive,
    Parallel,
    Pattern,
    Sequential,
)
from repro.extensions.windows import Within
from repro.workflow.spec import (
    Block,
    Loop,
    Maybe,
    Par,
    Sequence,
    Step,
    WorkflowSpec,
    Xor,
)

__all__ = [
    "DEFAULT_MAX_STATES",
    "MarkedAlphabet",
    "NFA",
    "DFA",
    "compile_pattern",
    "compile_spec",
    "determinize",
    "difference_word",
    "common_word",
    "canonical_dfa_bytes",
    "simulate",
]

DEFAULT_MAX_STATES = 20_000


class MarkedAlphabet:
    """The finite alphabet a set of patterns is analysed over.

    Activities are the sorted mentioned names plus the two sentinels,
    plus one ``OTHER`` activity standing for every unmentioned
    non-sentinel name.  Symbols are ``2 * activity_index + marked`` so
    an automaton's transition tables are plain integer-keyed dicts.
    """

    __slots__ = ("names", "other_index", "other_name", "n_symbols", "_index")

    def __init__(self, names: Iterable[str] = ()):
        base = sorted(set(names) | {START, END})
        self.names: tuple[str, ...] = tuple(base)
        self.other_index = len(base)
        other = "other"
        while other in base:
            other += "_"
        self.other_name = other
        self._index = {name: i for i, name in enumerate(base)}
        self.n_symbols = 2 * (len(base) + 1)

    @classmethod
    def for_patterns(cls, *patterns: Pattern) -> "MarkedAlphabet":
        names: set[str] = set()
        for pattern in patterns:
            names |= pattern.activity_names()
        return cls(names)

    @property
    def n_activities(self) -> int:
        return self.other_index + 1

    def classify(self, activity: str) -> int:
        """Map a concrete activity name onto its alphabet index."""
        return self._index.get(activity, self.other_index)

    def symbol(self, index: int, marked: bool) -> int:
        return 2 * index + (1 if marked else 0)

    def decode(self, sym: int) -> tuple[int, bool]:
        return sym // 2, bool(sym & 1)

    def activity_name(self, index: int) -> str:
        """The witness name for an alphabet index (``OTHER`` gets a
        fresh name that collides with nothing mentioned)."""
        if index == self.other_index:
            return self.other_name
        return self.names[index]

    def atom_indices(self, atom: Atomic) -> list[int]:
        """Activity indices the atom matches (Definition 4 case 1-2:
        a negated atom matches everything but its name, sentinels and
        ``OTHER`` included)."""
        if atom.negated:
            return [i for i in range(self.n_activities)
                    if self.activity_name(i) != atom.name]
        idx = self._index.get(atom.name)
        return [] if idx is None else [idx]


@dataclass(frozen=True)
class NFA:
    """An ε-free nondeterministic automaton over marked symbols."""

    n_symbols: int
    delta: tuple[dict[int, frozenset[int]], ...]
    starts: frozenset[int]
    accepts: frozenset[int]

    @property
    def n_states(self) -> int:
        return len(self.delta)


@dataclass(frozen=True)
class DFA:
    """A complete deterministic automaton (row-per-state transition
    table; the last-constructed sink makes it total)."""

    n_symbols: int
    start: int
    trans: tuple[tuple[int, ...], ...]
    accepts: frozenset[int]

    @property
    def n_states(self) -> int:
        return len(self.trans)


class _Builder:
    """Thompson-style construction surface: states, labelled edges and
    ε-edges, with ε-elimination at :meth:`build` time."""

    def __init__(self, n_symbols: int):
        self.n_symbols = n_symbols
        self._edges: list[dict[int, set[int]]] = []
        self._eps: list[set[int]] = []

    def state(self) -> int:
        self._edges.append({})
        self._eps.append(set())
        return len(self._edges) - 1

    def edge(self, src: int, sym: int, dst: int) -> None:
        self._edges[src].setdefault(sym, set()).add(dst)

    def eps(self, src: int, dst: int) -> None:
        self._eps[src].add(dst)

    def embed(self, nfa: NFA) -> list[int]:
        """Copy ``nfa``'s states/edges in; return the new state ids."""
        ids = [self.state() for _ in range(nfa.n_states)]
        for q, trans in enumerate(nfa.delta):
            for sym, targets in trans.items():
                for t in targets:
                    self.edge(ids[q], sym, ids[t])
        return ids

    def build(self, starts: Iterable[int], accepts: Iterable[int]) -> NFA:
        n = len(self._edges)
        closures: list[set[int]] = []
        for q in range(n):
            seen = {q}
            stack = [q]
            while stack:
                s = stack.pop()
                for t in self._eps[s]:
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
            closures.append(seen)
        accept_set = set(accepts)
        delta: list[dict[int, frozenset[int]]] = []
        for q in range(n):
            merged: dict[int, set[int]] = {}
            for p in closures[q]:
                for sym, targets in self._edges[p].items():
                    merged.setdefault(sym, set()).update(targets)
            delta.append({sym: frozenset(t) for sym, t in merged.items()})
        new_accepts = frozenset(
            q for q in range(n) if closures[q] & accept_set
        )
        return NFA(self.n_symbols, tuple(delta), frozenset(starts), new_accepts)


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


def _union(a: NFA, b: NFA) -> NFA:
    builder = _Builder(a.n_symbols)
    ia, ib = builder.embed(a), builder.embed(b)
    return builder.build(
        [ia[s] for s in a.starts] + [ib[s] for s in b.starts],
        [ia[s] for s in a.accepts] + [ib[s] for s in b.accepts],
    )


def _concat(*parts: NFA) -> NFA:
    builder = _Builder(parts[0].n_symbols)
    ids = [builder.embed(part) for part in parts]
    for k in range(len(parts) - 1):
        for acc in parts[k].accepts:
            for start in parts[k + 1].starts:
                builder.eps(ids[k][acc], ids[k + 1][start])
    return builder.build(
        [ids[0][s] for s in parts[0].starts],
        [ids[-1][s] for s in parts[-1].accepts],
    )


def _pair_product(
    a: NFA,
    b: NFA,
    move: Callable[[int, int, int], Iterator[tuple[int, int]]],
    limit: int,
) -> NFA:
    """Reachable-pair product over ``move`` (which enumerates the joint
    successors of an ``(a_state, b_state)`` pair on a symbol)."""
    index: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []

    def state_id(pair: tuple[int, int]) -> int:
        sid = index.get(pair)
        if sid is None:
            if len(order) >= limit:
                raise AnalysisBudgetError(
                    f"automaton product exceeded the {limit}-state budget",
                    limit=limit,
                )
            sid = len(order)
            index[pair] = sid
            order.append(pair)
        return sid

    starts = [state_id((qa, qb)) for qa in sorted(a.starts) for qb in sorted(b.starts)]
    delta: list[dict[int, frozenset[int]]] = []
    i = 0
    while i < len(order):
        qa, qb = order[i]
        row: dict[int, frozenset[int]] = {}
        for sym in range(a.n_symbols):
            targets = frozenset(state_id(p) for p in move(qa, qb, sym))
            if targets:
                row[sym] = targets
        delta.append(row)
        i += 1
    accepts = frozenset(
        sid for sid, (qa, qb) in enumerate(order)
        if qa in a.accepts and qb in b.accepts
    )
    return NFA(a.n_symbols, tuple(delta), frozenset(starts), accepts)


def _intersect(a: NFA, b: NFA, limit: int) -> NFA:
    def move(qa: int, qb: int, sym: int) -> Iterator[tuple[int, int]]:
        for ta in a.delta[qa].get(sym, ()):
            for tb in b.delta[qb].get(sym, ()):
                yield ta, tb

    return _pair_product(a, b, move, limit)


def _shuffle_marked(a: NFA, b: NFA, limit: int) -> NFA:
    """Mark-attribution interleaving: an unmarked letter is read by both
    sides; a marked letter is attributed to exactly one side (which
    reads it marked) while the other side reads its unmarked variant —
    Definition 4's disjoint union of the two sub-incidents."""

    def move(qa: int, qb: int, sym: int) -> Iterator[tuple[int, int]]:
        if sym & 1:  # marked: attribute to one side
            unmarked = sym - 1
            for ta in a.delta[qa].get(sym, ()):
                for tb in b.delta[qb].get(unmarked, ()):
                    yield ta, tb
            for ta in a.delta[qa].get(unmarked, ()):
                for tb in b.delta[qb].get(sym, ()):
                    yield ta, tb
        else:
            for ta in a.delta[qa].get(sym, ()):
                for tb in b.delta[qb].get(sym, ()):
                    yield ta, tb

    return _pair_product(a, b, move, limit)


def _shuffle(a: NFA, b: NFA, limit: int) -> NFA:
    """Plain interleaving: every letter moves exactly one side."""

    def move(qa: int, qb: int, sym: int) -> Iterator[tuple[int, int]]:
        for ta in a.delta[qa].get(sym, ()):
            yield ta, qb
        for tb in b.delta[qb].get(sym, ()):
            yield qa, tb

    return _pair_product(a, b, move, limit)


# ---------------------------------------------------------------------------
# primitive automata
# ---------------------------------------------------------------------------


def _record(alphabet: MarkedAlphabet, activity: str) -> NFA:
    """One record of ``activity``, marked or not."""
    index = alphabet.classify(activity)
    row = {alphabet.symbol(index, m): frozenset({1}) for m in (False, True)}
    return NFA(alphabet.n_symbols, (row, {}), frozenset({0}), frozenset({1}))


def _pad(alphabet: MarkedAlphabet) -> NFA:
    """``U*`` — any number of unmarked letters."""
    loop = {
        alphabet.symbol(i, False): frozenset({0})
        for i in range(alphabet.n_activities)
    }
    return NFA(alphabet.n_symbols, (loop,), frozenset({0}), frozenset({0}))


def _gap_up_to(alphabet: MarkedAlphabet, max_gap: int) -> NFA:
    """``U^{0..max_gap}`` — at most ``max_gap`` unmarked letters."""
    delta: list[dict[int, frozenset[int]]] = []
    for state in range(max_gap + 1):
        if state < max_gap:
            delta.append({
                alphabet.symbol(i, False): frozenset({state + 1})
                for i in range(alphabet.n_activities)
            })
        else:
            delta.append({})
    return NFA(
        alphabet.n_symbols,
        tuple(delta),
        frozenset({0}),
        frozenset(range(max_gap + 1)),
    )


def _anchor(alphabet: MarkedAlphabet) -> NFA:
    """Non-empty words whose first and last letters are marked."""
    marked = [alphabet.symbol(i, True) for i in range(alphabet.n_activities)]
    unmarked = [alphabet.symbol(i, False) for i in range(alphabet.n_activities)]
    delta: list[dict[int, frozenset[int]]] = [
        {sym: frozenset({1}) for sym in marked},  # 0: before the first letter
        {},                                       # 1: last letter was marked
        {},                                       # 2: last letter was unmarked
    ]
    for sym in marked:
        delta[1][sym] = frozenset({1})
        delta[2][sym] = frozenset({1})
    for sym in unmarked:
        delta[1][sym] = frozenset({2})
        delta[2][sym] = frozenset({2})
    return NFA(alphabet.n_symbols, tuple(delta), frozenset({0}), frozenset({1}))


def _well_formed(alphabet: MarkedAlphabet) -> NFA:
    """Definition 2 traces (markings free): ``START`` first, body of
    non-sentinel activities, optional trailing ``END``."""
    start_idx = alphabet.classify(START)
    end_idx = alphabet.classify(END)
    delta: list[dict[int, frozenset[int]]] = [{}, {}, {}]
    for m in (False, True):
        delta[0][alphabet.symbol(start_idx, m)] = frozenset({1})
        delta[1][alphabet.symbol(end_idx, m)] = frozenset({2})
        for idx in range(alphabet.n_activities):
            if idx not in (start_idx, end_idx):
                delta[1][alphabet.symbol(idx, m)] = frozenset({1})
    return NFA(alphabet.n_symbols, tuple(delta), frozenset({0}), frozenset({1, 2}))


# ---------------------------------------------------------------------------
# pattern compilation
# ---------------------------------------------------------------------------


def _anchored(pattern: Pattern, alphabet: MarkedAlphabet, limit: int) -> NFA:
    """The anchored language ``A(pattern)`` (see the module docstring)."""
    cls = type(pattern)
    if isinstance(pattern, Atomic):
        if cls is not Atomic:
            raise UnsupportedPatternError(
                f"{cls.__name__} atoms carry attribute predicates outside "
                "the regular fragment; the prover cannot decide them"
            )
        builder = _Builder(alphabet.n_symbols)
        s0, s1 = builder.state(), builder.state()
        for idx in alphabet.atom_indices(pattern):
            builder.edge(s0, alphabet.symbol(idx, True), s1)
        return builder.build([s0], [s1])
    if cls is Within:
        left = _anchored(pattern.left, alphabet, limit)
        right = _anchored(pattern.right, alphabet, limit)
        return _concat(left, _gap_up_to(alphabet, pattern.bound - 1), right)
    if cls is Consecutive:
        return _concat(
            _anchored(pattern.left, alphabet, limit),
            _anchored(pattern.right, alphabet, limit),
        )
    if cls is Sequential:
        return _concat(
            _anchored(pattern.left, alphabet, limit),
            _pad(alphabet),
            _anchored(pattern.right, alphabet, limit),
        )
    if cls is Choice:
        return _union(
            _anchored(pattern.left, alphabet, limit),
            _anchored(pattern.right, alphabet, limit),
        )
    if cls is Parallel:
        pad = _pad(alphabet)
        left = _concat(pad, _anchored(pattern.left, alphabet, limit), pad)
        right = _concat(pad, _anchored(pattern.right, alphabet, limit), pad)
        shuffled = _shuffle_marked(left, right, limit)
        return _intersect(shuffled, _anchor(alphabet), limit)
    raise UnsupportedPatternError(
        f"operator {cls.__name__} is outside the decidable core fragment"
    )


def compile_pattern(
    pattern: Pattern,
    alphabet: MarkedAlphabet,
    max_states: int = DEFAULT_MAX_STATES,
) -> NFA:
    """``lang(pattern)`` — marked well-formed traces whose marked
    records form an incident of ``pattern``."""
    pad = _pad(alphabet)
    padded = _concat(pad, _anchored(pattern, alphabet, max_states), pad)
    return _intersect(padded, _well_formed(alphabet), max_states)


# ---------------------------------------------------------------------------
# workflow-specification compilation
# ---------------------------------------------------------------------------


def _runs(block: Block, alphabet: MarkedAlphabet, limit: int) -> NFA:
    """The runs of one block: every way its gateways can resolve."""
    if isinstance(block, Step):
        return _record(alphabet, block.activity)
    if isinstance(block, Sequence):
        return _concat(*(_runs(b, alphabet, limit) for b in block.blocks))
    if isinstance(block, Xor):
        return reduce(_union, (_runs(b, alphabet, limit) for b in block.branches))
    empty = _gap_up_to(alphabet, 0)  # {ε}
    if isinstance(block, Maybe):
        return _union(_runs(block.block, alphabet, limit), empty)
    if isinstance(block, Loop):
        body = _runs(block.body, alphabet, limit)
        runs = body
        for _ in range(block.max_iterations - 1):
            runs = _concat(body, _union(runs, empty))
            if runs.n_states > limit:
                raise AnalysisBudgetError(
                    f"loop unrolling exceeded the {limit}-state budget",
                    limit=limit,
                )
        return runs
    if isinstance(block, Par):
        return reduce(
            lambda a, b: _shuffle(a, b, limit),
            (_runs(b, alphabet, limit) for b in block.branches),
        )
    raise TypeError(f"unknown block type {type(block).__name__}")


def compile_spec(
    spec: WorkflowSpec,
    alphabet: MarkedAlphabet,
    max_states: int = DEFAULT_MAX_STATES,
) -> NFA:
    """Every instance ``spec`` can log, ``START · runs(root) · END?``,
    with each record marked or not: intersected with
    :func:`compile_pattern`, it holds exactly the spec's runs that carry
    an incident of the pattern (``Par`` is a plain shuffle, ``Loop``
    nests ``max_iterations`` optional copies of its body)."""
    return _concat(
        _record(alphabet, START),
        _runs(spec.root, alphabet, max_states),
        _union(_record(alphabet, END), _gap_up_to(alphabet, 0)),
    )


# ---------------------------------------------------------------------------
# decision-procedure machinery
# ---------------------------------------------------------------------------


def determinize(nfa: NFA, max_states: int = DEFAULT_MAX_STATES) -> DFA:
    """Subset construction to a *complete* DFA (empty set = sink)."""
    index: dict[frozenset[int], int] = {}
    order: list[frozenset[int]] = []

    def state_id(subset: frozenset[int]) -> int:
        sid = index.get(subset)
        if sid is None:
            if len(order) >= max_states:
                raise AnalysisBudgetError(
                    f"determinization exceeded the {max_states}-state budget",
                    limit=max_states,
                )
            sid = len(order)
            index[subset] = sid
            order.append(subset)
        return sid

    start = state_id(nfa.starts)
    trans: list[tuple[int, ...]] = []
    i = 0
    while i < len(order):
        subset = order[i]
        row = []
        for sym in range(nfa.n_symbols):
            targets: set[int] = set()
            for q in subset:
                targets.update(nfa.delta[q].get(sym, ()))
            row.append(state_id(frozenset(targets)))
        trans.append(tuple(row))
        i += 1
    accepts = frozenset(
        sid for sid, subset in enumerate(order) if subset & nfa.accepts
    )
    return DFA(nfa.n_symbols, start, tuple(trans), accepts)


def difference_word(p: DFA, q: DFA) -> list[int] | None:
    """A shortest word in ``L(p) \\ L(q)``, or ``None`` if ``L(p) ⊆
    L(q)`` — BFS over the product with parent pointers."""
    start = (p.start, q.start)
    parents: dict[tuple[int, int], tuple[tuple[int, int], int] | None] = {start: None}
    queue: deque[tuple[int, int]] = deque([start])
    hit: tuple[int, int] | None = None
    if start[0] in p.accepts and start[1] not in q.accepts:
        hit = start
    while queue and hit is None:
        pair = queue.popleft()
        sp, sq = pair
        for sym in range(p.n_symbols):
            nxt = (p.trans[sp][sym], q.trans[sq][sym])
            if nxt in parents:
                continue
            parents[nxt] = (pair, sym)
            if nxt[0] in p.accepts and nxt[1] not in q.accepts:
                hit = nxt
                break
            queue.append(nxt)
    if hit is None:
        return None
    word: list[int] = []
    cursor: tuple[int, int] | None = hit
    while parents[cursor] is not None:
        cursor, sym = parents[cursor]  # type: ignore[misc]
        word.append(sym)
    word.reverse()
    return word


def common_word(
    a: NFA, b: NFA, max_states: int = DEFAULT_MAX_STATES
) -> list[int] | None:
    """A shortest word in ``L(a) ∩ L(b)``, or ``None`` when the two
    languages are disjoint — BFS over the product with parent pointers."""
    nfa = _intersect(a, b, max_states)
    parents: dict[int, tuple[int, int] | None] = dict.fromkeys(nfa.starts)
    queue = deque(nfa.starts)
    while queue:
        state = queue.popleft()
        if state in nfa.accepts:
            word = []
            while (step := parents[state]) is not None:
                state, sym = step
                word.append(sym)
            return word[::-1]
        for sym, targets in nfa.delta[state].items():
            for target in targets - parents.keys():
                parents[target] = (state, sym)
                queue.append(target)
    return None


def canonical_dfa_bytes(dfa: DFA) -> bytes:
    """A canonical byte serialization of the DFA's minimal form.

    Moore partition refinement to the coarsest congruence, then a BFS
    renumbering from the start block — equivalent DFAs over the same
    alphabet produce identical bytes, so this is a sound equality key
    for pattern languages.
    """
    n = dfa.n_states
    part = [1 if s in dfa.accepts else 0 for s in range(n)]
    n_blocks = len(set(part))
    while True:
        signatures: dict[tuple[int, ...], int] = {}
        new_part = []
        for s in range(n):
            sig = (part[s], *(part[t] for t in dfa.trans[s]))
            block = signatures.setdefault(sig, len(signatures))
            new_part.append(block)
        if len(signatures) == n_blocks:
            part = new_part
            break
        part, n_blocks = new_part, len(signatures)
    block_trans: dict[int, tuple[int, ...]] = {}
    block_accept: dict[int, bool] = {}
    for s in range(n):
        block_trans.setdefault(part[s], tuple(part[t] for t in dfa.trans[s]))
        block_accept.setdefault(part[s], s in dfa.accepts)
    renumber = {part[dfa.start]: 0}
    order = [part[dfa.start]]
    i = 0
    while i < len(order):
        for target in block_trans[order[i]]:
            if target not in renumber:
                renumber[target] = len(order)
                order.append(target)
        i += 1
    pieces = [f"{dfa.n_symbols};"]
    for block in order:
        row = ",".join(str(renumber[t]) for t in block_trans[block])
        pieces.append(f"{int(block_accept[block])}:{row};")
    return "".join(pieces).encode("ascii")


def simulate(nfa: NFA, word: Iterable[int]) -> bool:
    """NFA membership in ``O(len(word) × states)``."""
    current = set(nfa.starts)
    for sym in word:
        nxt: set[int] = set()
        for q in current:
            nxt.update(nfa.delta[q].get(sym, ()))
        if not nxt:
            return False
        current = nxt
    return bool(current & nfa.accepts)
