"""Cost-based query optimizer for incident patterns.

The paper proves algebraic laws (Theorems 2-5) and explicitly leaves
"developing query optimization techniques" as future work; this package
implements that future work:

* :mod:`repro.core.optimizer.cost` — log statistics and cardinality
  estimation grounded in the size bounds of Lemma 1;
* :mod:`repro.core.optimizer.rules` — rewrite rules, each one licensed by
  a specific theorem (choice factoring by Theorem 5, chain flattening by
  Theorems 2/4, ...);
* :mod:`repro.core.optimizer.planner` — a matrix-chain-style dynamic
  program that picks the cheapest parenthesisation of ⊙/⊳ chains, plus the
  top-level :class:`~repro.core.optimizer.planner.Optimizer`.
"""

from repro.core.optimizer.cost import CostModel, LogStatistics
from repro.core.optimizer.planner import OptimizedPlan, Optimizer
from repro.core.optimizer.rules import (
    REWRITE_RULES,
    RewriteRule,
    factor_choice,
    identity,
    normalize,
    push_choice_out,
)

__all__ = [
    "CostModel",
    "LogStatistics",
    "Optimizer",
    "OptimizedPlan",
    "RewriteRule",
    "REWRITE_RULES",
    "factor_choice",
    "identity",
    "normalize",
    "push_choice_out",
]
