"""Static analysis of incident patterns: a containment/equivalence
prover over a canonical automaton IR, with counterexample witnesses.

The public surface:

* :class:`PatternProver` (``contains`` / ``equivalent`` / ``witness``;
  :func:`default_prover` is the shared one) — the decision procedures
  (per-wid incident semantics, Definition 4);
* :class:`Witness` — a replayable counterexample trace + incident;
* :class:`IncidentMatcher` — exact incident-membership filter;
* :func:`canonical_key` — an equivalence-class key for result caching;
* :func:`plan_subsumption` — the batch executor's proved scan plan;
* :func:`verify_rules` — optimizer rewrite-rule soundness gating.

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
    IncidentMatcher,
    PatternProver,
    PlanAction,
    SubsumptionPlan,
    Witness,
    canonical_key,
    default_prover,
    plan_subsumption,
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
    "IncidentMatcher",
    "Witness",
    "PlanAction",
    "SubsumptionPlan",
    "plan_subsumption",
    "canonical_key",
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
