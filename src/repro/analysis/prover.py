"""Decision procedures over the automaton IR: containment, equivalence,
counterexample witnesses, incident membership, canonical language keys,
and the batch subsumption planner.

All procedures reason about the *per-wid incident semantics* of
Definition 4: ``PatternProver.contains(p, q)`` holds iff for every
well-formed log ``L``, ``incL(p) ⊆ incL(q)``.  Because incidents never
span workflow instances and the core atoms ignore attributes, this
reduces to language containment of the compiled marked-trace automata
over a single shared alphabet (see :mod:`repro.analysis.automaton`),
which also means a refutation always decodes into a *single-instance*
counterexample log — the :class:`Witness`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.automaton import (
    DEFAULT_MAX_STATES,
    DFA,
    NFA,
    MarkedAlphabet,
    canonical_dfa_bytes,
    common_word,
    compile_pattern,
    compile_spec,
    determinize,
    difference_word,
    simulate,
)
from repro.core.errors import AnalysisError
from repro.core.incident import Incident, reference_incidents
from repro.core.model import Log, LogRecord
from repro.core.pattern import Atomic, BinaryPattern, Pattern, to_text
from repro.workflow.spec import Block, WorkflowSpec

__all__ = [
    "PatternProver",
    "Witness",
    "IncidentMatcher",
    "SubsumptionPlan",
    "PlanAction",
    "plan_subsumption",
    "canonical_key",
    "default_prover",
]


@dataclass(frozen=True)
class Witness:
    """A concrete single-instance log plus incident distinguishing two
    patterns: the marked records form an incident of exactly one side.
    """

    left: Pattern
    right: Pattern
    log: Log
    incident: Incident
    in_left: bool
    in_right: bool

    def replay(self) -> bool:
        """Re-check the claim against the ground-truth recursive oracle
        (:func:`reference_incidents`) — ``True`` iff the witness really
        distinguishes the two patterns."""
        in_left = self.incident in reference_incidents(self.log, self.left)
        in_right = self.incident in reference_incidents(self.log, self.right)
        return in_left == self.in_left and in_right == self.in_right

    def format(self) -> str:
        marked = self.incident.lsns
        trace = " ".join(
            f"[{record.activity}]" if record.lsn in marked else record.activity
            for record in self.log
        )
        holder, misser = (self.left, self.right) if self.in_left else (self.right, self.left)
        return (
            f"counterexample trace (wid 1, incident bracketed): {trace}\n"
            f"  the bracketed records form an incident of {to_text(holder)!r}"
            f" but not of {to_text(misser)!r}"
        )


class IncidentMatcher:
    """Exact incident-membership test for one pattern: is a given record
    set an incident of ``p`` within its instance?  One NFA simulation,
    ``O(|trace| × states)`` — the filter used to *derive* a subsumed
    query's results from its subsumer's."""

    def __init__(
        self,
        pattern: Pattern,
        *,
        alphabet: MarkedAlphabet | None = None,
        max_states: int = DEFAULT_MAX_STATES,
    ):
        self.pattern = pattern
        self._alphabet = alphabet or MarkedAlphabet.for_patterns(pattern)
        self._nfa = compile_pattern(pattern, self._alphabet, max_states)

    def matches(self, incident: Incident, instance: Sequence[LogRecord]) -> bool:
        marked = incident.lsns
        alphabet = self._alphabet
        word = [
            alphabet.symbol(alphabet.classify(record.activity), record.lsn in marked)
            for record in instance
        ]
        return simulate(self._nfa, word)


class PatternProver:
    """Compiles patterns to DFAs (memoized per alphabet) and answers
    containment/equivalence queries, producing witnesses on refutation.
    """

    def __init__(self, *, max_states: int = DEFAULT_MAX_STATES):
        self.max_states = max_states
        self._memo: dict[tuple[Pattern, tuple[str, ...]], DFA] = {}
        self._specs: dict[tuple[Block, tuple[str, ...]], NFA] = {}

    def alphabet(self, *patterns: Pattern) -> MarkedAlphabet:
        return MarkedAlphabet.for_patterns(*patterns)

    def _dfa(self, pattern: Pattern, alphabet: MarkedAlphabet) -> DFA:
        key = (pattern, alphabet.names)
        cached = self._memo.get(key)
        if cached is None:
            if len(self._memo) > 1024:
                self._memo.clear()
            nfa = compile_pattern(pattern, alphabet, self.max_states)
            cached = determinize(nfa, self.max_states)
            self._memo[key] = cached
        return cached

    def _difference(
        self, p: Pattern, q: Pattern, alphabet: MarkedAlphabet
    ) -> list[int] | None:
        return difference_word(self._dfa(p, alphabet), self._dfa(q, alphabet))

    def contains(
        self, p: Pattern, q: Pattern, *, alphabet: MarkedAlphabet | None = None
    ) -> bool:
        """``p ⊑ q``: every incident of ``p`` is an incident of ``q``
        on every well-formed log."""
        alphabet = alphabet or self.alphabet(p, q)
        return self._difference(p, q, alphabet) is None

    def equivalent(self, p: Pattern, q: Pattern) -> bool:
        alphabet = self.alphabet(p, q)
        return (
            self._difference(p, q, alphabet) is None
            and self._difference(q, p, alphabet) is None
        )

    def containment_witness(
        self, p: Pattern, q: Pattern, *, alphabet: MarkedAlphabet | None = None
    ) -> Witness | None:
        """A witness refuting ``p ⊑ q``, or ``None`` when it holds."""
        alphabet = alphabet or self.alphabet(p, q)
        word = self._difference(p, q, alphabet)
        if word is None:
            return None
        return self._decode_witness(p, q, word, alphabet, in_left=True)

    def witness(self, p: Pattern, q: Pattern) -> Witness | None:
        """A witness refuting ``p ≡ q``, or ``None`` when equivalent."""
        alphabet = self.alphabet(p, q)
        word = self._difference(p, q, alphabet)
        if word is not None:
            return self._decode_witness(p, q, word, alphabet, in_left=True)
        word = self._difference(q, p, alphabet)
        if word is not None:
            return self._decode_witness(p, q, word, alphabet, in_left=False)
        return None

    def matcher(
        self, pattern: Pattern, *, alphabet: MarkedAlphabet | None = None
    ) -> IncidentMatcher:
        return IncidentMatcher(
            pattern, alphabet=alphabet, max_states=self.max_states
        )

    def canonical_key(self, pattern: Pattern) -> str:
        """A string equal for provably-equivalent patterns (over the
        same mentioned-name set): the digest of the minimal DFA in
        canonical form, prefixed by the alphabet.  Equal keys imply
        equivalence; differing name sets are conservatively distinct.
        """
        alphabet = self.alphabet(pattern)
        digest = hashlib.blake2b(
            canonical_dfa_bytes(self._dfa(pattern, alphabet)), digest_size=16
        ).hexdigest()
        return "v1:" + ",".join(alphabet.names) + ":" + digest

    def spec_witness(
        self,
        spec: WorkflowSpec,
        pattern: Pattern,
        *,
        alphabet: MarkedAlphabet | None = None,
    ) -> tuple[Log, Incident] | None:
        """A run of ``spec`` (one instance) holding an incident of
        ``pattern``, or ``None`` when no run of ``spec`` holds one.

        Attribute guards are erased first: a guard only removes matches,
        so ``None`` stays a sound refutation of the guarded pattern (the
        witness then holds an incident of the unguarded one).  The spec
        automaton is memoized per alphabet; pass the root pattern's
        alphabet to compile it once for all of the root's subpatterns.
        """
        pattern = _erase_guards(pattern)
        alphabet = alphabet or self.alphabet(pattern)
        key = (spec.root, alphabet.names)
        runs = self._specs.get(key)
        if runs is None:
            if len(self._specs) > 64:
                self._specs.clear()
            runs = compile_spec(spec, alphabet, self.max_states)
            self._specs[key] = runs
        word = common_word(
            compile_pattern(pattern, alphabet, self.max_states),
            runs,
            self.max_states,
        )
        return None if word is None else _decode(word, alphabet)

    def _decode_witness(
        self,
        p: Pattern,
        q: Pattern,
        word: list[int],
        alphabet: MarkedAlphabet,
        *,
        in_left: bool,
    ) -> Witness:
        log, incident = _decode(word, alphabet)
        return Witness(
            left=p,
            right=q,
            log=log,
            incident=incident,
            in_left=in_left,
            in_right=not in_left,
        )


def _decode(word: list[int], alphabet: MarkedAlphabet) -> tuple[Log, Incident]:
    """A marked word as a one-instance log and the incident its marked
    letters form."""
    records = []
    marked_positions = []
    for position, sym in enumerate(word):
        index, marked = alphabet.decode(sym)
        records.append(
            LogRecord(
                lsn=position + 1,
                wid=1,
                is_lsn=position + 1,
                activity=alphabet.activity_name(index),
            )
        )
        if marked:
            marked_positions.append(position)
    log = Log(records)  # construction re-checks Definition 2
    return log, Incident(records[i] for i in marked_positions)


def _erase_guards(pattern: Pattern) -> Pattern:
    """``pattern`` with every attribute-guarded atom replaced by its
    plain atom."""
    if isinstance(pattern, Atomic):
        return Atomic(pattern.name, pattern.negated)
    assert isinstance(pattern, BinaryPattern)
    return pattern.with_children(
        _erase_guards(pattern.left), _erase_guards(pattern.right)
    )


_DEFAULT_PROVER = PatternProver()


def default_prover() -> PatternProver:
    """The process-wide shared prover (its DFA memo amortises repeated
    lint/batch/cache proofs over the same patterns)."""
    return _DEFAULT_PROVER


def canonical_key(pattern: Pattern) -> str:
    return _DEFAULT_PROVER.canonical_key(pattern)


# ---------------------------------------------------------------------------
# batch subsumption planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanAction:
    """What the batch executor should do for one query position.

    ``scan``   — evaluate against the log as usual;
    ``alias``  — proved equivalent to position ``source``: share its
    result set outright;
    ``derive`` — proved strictly contained in position ``source``:
    filter the source's incidents through this pattern's matcher.
    """

    kind: str
    source: int | None = None


class SubsumptionPlan:
    """A proved evaluation plan for a batch of patterns."""

    def __init__(
        self,
        patterns: Sequence[Pattern],
        actions: Sequence[PlanAction],
        proofs: int,
        prover: PatternProver,
        alphabet: MarkedAlphabet,
    ):
        self.patterns = tuple(patterns)
        self.actions = tuple(actions)
        self.proofs = proofs
        self._prover = prover
        self._alphabet = alphabet
        self._matchers: dict[int, IncidentMatcher] = {}

    @property
    def subsumed(self) -> int:
        """Positions that skip their own log scan."""
        return sum(1 for action in self.actions if action.kind != "scan")

    def filter_incidents(
        self, index: int, incidents: Sequence[Incident], log: Log
    ) -> list[Incident]:
        """Derive position ``index``'s incidents from its subsumer's.

        Exact, not approximate: ``p ⊑ q`` means every ``p``-incident is
        a ``q``-incident, so filtering the subsumer's incidents through
        ``p``'s membership matcher yields precisely ``incL(p)``."""
        matcher = self._matchers.get(index)
        if matcher is None:
            matcher = self._prover.matcher(
                self.patterns[index], alphabet=self._alphabet
            )
            self._matchers[index] = matcher
        return [
            incident
            for incident in incidents
            if matcher.matches(incident, log.instance(incident.wid))
        ]


def plan_subsumption(
    patterns: Sequence[Pattern],
    *,
    prover: PatternProver | None = None,
    max_patterns: int = 24,
) -> SubsumptionPlan:
    """Prove containment/equivalence relations across a batch and plan
    which queries can skip their scan.

    Equivalent patterns collapse onto the first member of their class
    (``alias``); a class leader strictly contained in another leader is
    ``derive``-d from it by filtering.  Any pattern the prover cannot
    handle (budget, unsupported operator) simply stays ``scan`` — the
    planner degrades to the status quo, never fails the batch.
    """
    prover = prover or _DEFAULT_PROVER
    n = len(patterns)
    alphabet = prover.alphabet(*patterns) if patterns else MarkedAlphabet()
    if n < 2 or n > max_patterns:
        return SubsumptionPlan(
            patterns, [PlanAction("scan")] * n, 0, prover, alphabet
        )

    usable = []
    for pattern in patterns:
        try:
            prover._dfa(pattern, alphabet)
            usable.append(True)
        except AnalysisError:
            usable.append(False)

    containment: dict[tuple[int, int], bool] = {}

    def proved_contains(i: int, j: int) -> bool:
        cached = containment.get((i, j))
        if cached is None:
            try:
                cached = prover.contains(
                    patterns[i], patterns[j], alphabet=alphabet
                )
            except AnalysisError:
                cached = False
            containment[(i, j)] = cached
        return cached

    proofs = 0
    leader = list(range(n))
    for j in range(n):
        if not usable[j]:
            continue
        for i in range(j):
            if usable[i] and leader[i] == i \
                    and proved_contains(i, j) and proved_contains(j, i):
                leader[j] = i
                proofs += 1
                break

    source: list[int | None] = [None] * n
    for i in range(n):
        if leader[i] != i or not usable[i]:
            continue
        for j in range(n):
            if j == i or leader[j] != j or not usable[j]:
                continue
            if proved_contains(i, j) and not proved_contains(j, i):
                source[i] = j
                proofs += 1
                break

    actions = []
    for i in range(n):
        if leader[i] != i:
            actions.append(PlanAction("alias", leader[i]))
        elif source[i] is not None:
            actions.append(PlanAction("derive", source[i]))
        else:
            actions.append(PlanAction("scan"))
    return SubsumptionPlan(patterns, actions, proofs, prover, alphabet)
