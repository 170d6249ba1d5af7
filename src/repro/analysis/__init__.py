"""Static analysis of incident patterns: a containment/equivalence
prover over a canonical automaton IR, with counterexample witnesses.

The public surface:

* :class:`PatternProver` (``contains`` / ``equivalent`` / ``witness``;
  :func:`default_prover` is the shared one) — the decision procedures
  (per-wid incident semantics, Definition 4);
* :class:`Witness` — a replayable counterexample trace + incident;
* :func:`verify_rules` — optimizer rewrite-rule soundness gating.

Lint's QW402/QW502, ``repro-logs analyze`` and ``POST /v1/analyze`` call
the prover.  A batch does not: it aliases queries by their
:func:`~repro.core.optimizer.rules.identity`, and lint's QW501 reports
those aliases.

Errors raised here all derive from
:class:`repro.core.errors.AnalysisError`.
"""

from repro.analysis.automaton import (
    DEFAULT_MAX_STATES,
    DFA,
    MarkedAlphabet,
    NFA,
    compile_pattern,
    determinize,
)
from repro.analysis.prover import (
    PatternProver,
    Witness,
    default_prover,
)
from repro.analysis.verify import (
    SHIPPED_RULES,
    RuleReport,
    RuleVerification,
    default_corpus,
    verify_rules,
)
from repro.core.errors import (
    AnalysisBudgetError,
    AnalysisError,
    UnsupportedPatternError,
)

__all__ = [
    "DEFAULT_MAX_STATES",
    "DFA",
    "NFA",
    "MarkedAlphabet",
    "compile_pattern",
    "determinize",
    "PatternProver",
    "Witness",
    "default_prover",
    "SHIPPED_RULES",
    "RuleReport",
    "RuleVerification",
    "default_corpus",
    "verify_rules",
    "AnalysisError",
    "AnalysisBudgetError",
    "UnsupportedPatternError",
]
