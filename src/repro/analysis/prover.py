"""Decision procedures over the automaton IR: containment, equivalence
and counterexample witnesses.

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

from dataclasses import dataclass

from repro.analysis.automaton import (
    DEFAULT_MAX_STATES,
    DFA,
    NFA,
    MarkedAlphabet,
    common_word,
    compile_pattern,
    compile_spec,
    determinize,
    difference_word,
)
from repro.core.errors import AnalysisError
from repro.core.incident import Incident, reference_incidents
from repro.core.model import Log, LogRecord
from repro.core.pattern import Atomic, BinaryPattern, Pattern, to_text
from repro.workflow.spec import Block, WorkflowSpec

__all__ = [
    "PatternProver",
    "Witness",
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

    def compiles(self, pattern: Pattern, alphabet: MarkedAlphabet) -> bool:
        """Whether ``pattern`` compiles over ``alphabet`` within the state
        budget, so that the prover can decide its relations."""
        try:
            self._dfa(pattern, alphabet)
        except AnalysisError:
            return False
        return True

    def _difference(
        self, p: Pattern, q: Pattern, alphabet: MarkedAlphabet, *, either_way: bool = False
    ) -> list[int] | None:
        return difference_word(
            self._dfa(p, alphabet), self._dfa(q, alphabet), either_way=either_way
        )

    def contains(
        self, p: Pattern, q: Pattern, *, alphabet: MarkedAlphabet | None = None
    ) -> bool:
        """``p ⊑ q``: every incident of ``p`` is an incident of ``q``
        on every well-formed log."""
        alphabet = alphabet or self.alphabet(p, q)
        return self._difference(p, q, alphabet) is None

    def equivalent(
        self, p: Pattern, q: Pattern, *, alphabet: MarkedAlphabet | None = None
    ) -> bool:
        """``p ≡ q``: no word tells them apart, one product search."""
        alphabet = alphabet or self.alphabet(p, q)
        return self._difference(p, q, alphabet, either_way=True) is None

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
    lint and analysis proofs over the same patterns)."""
    return _DEFAULT_PROVER
