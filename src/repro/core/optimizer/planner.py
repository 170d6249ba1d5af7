"""Plan selection: chain re-association DP and the top-level Optimizer.

Theorems 2 and 4 make every parenthesisation of a maximal ⊙/⊳ chain
equivalent (as long as each operator stays attached to its gap), exactly
as join associativity does in relational algebra.  The planner therefore
runs the classic matrix-chain dynamic program over each chain, using the
:class:`~repro.core.optimizer.cost.CostModel` cardinality estimates, to
pick the parenthesisation with the least estimated pairwise-join work.

The :class:`Optimizer` pipeline:

1. apply the always-beneficial rewrite rules (choice dedup and factoring,
   Theorem 5 right-to-left) bottom-up to fixpoint;
2. re-associate every maximal ⊙/⊳ chain via the DP;
3. cost-guardedly distribute operators over choices (Theorem 5
   left-to-right) when the estimate says it helps (e.g. one branch is
   empty on this log);
4. emit an :class:`OptimizedPlan` with before/after cost estimates and the
   list of applied transformations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import OptimizerError
from repro.core.model import Log
from repro.obs.log import get_logger
from repro.core.optimizer.cost import CostModel, LogStatistics
from repro.core.optimizer.rules import normalize, push_choice_out
from repro.core.algebra import flatten_chain
from repro.core.pattern import (
    Atomic,
    BinaryPattern,
    Consecutive,
    Pattern,
    Sequential,
)

__all__ = ["Optimizer", "OptimizedPlan", "reassociate_chain"]

logger = get_logger("core.optimizer")


@dataclass
class OptimizedPlan:
    """Result of optimizing a query pattern for a specific log.

    Attributes
    ----------
    original, optimized:
        Input pattern and equivalent rewritten pattern.
    original_cost, optimized_cost:
        Estimated evaluation costs under the cost model.
    transformations:
        Human-readable list of the transformations applied.
    """

    original: Pattern
    optimized: Pattern
    original_cost: float
    optimized_cost: float
    transformations: list[str] = field(default_factory=list)

    @property
    def estimated_speedup(self) -> float:
        """Ratio of estimated costs (>= 1.0 when optimization helped)."""
        if self.optimized_cost <= 0:
            return 1.0
        return self.original_cost / self.optimized_cost

    def explain(self) -> str:
        """Multi-line explanation suitable for CLI `--explain` output."""
        lines = [
            f"original : {self.original}",
            f"optimized: {self.optimized}",
            f"estimated cost: {self.original_cost:,.0f} -> "
            f"{self.optimized_cost:,.0f} "
            f"({self.estimated_speedup:.2f}x)",
        ]
        if self.transformations:
            lines.append("transformations:")
            lines.extend(f"  - {t}" for t in self.transformations)
        else:
            lines.append("transformations: none (already optimal)")
        return "\n".join(lines)


def reassociate_chain(
    items: list[Pattern], gaps: list, model: CostModel
) -> tuple[Pattern, float]:
    """Matrix-chain DP over a ⊙/⊳ chain.

    Returns the cheapest-parenthesisation pattern and its estimated join
    cost.  ``items[i]`` must already be optimized; ``gaps[k]`` is the
    operator between items ``k`` and ``k+1``.
    """
    n = len(items)
    if n != len(gaps) + 1:
        raise OptimizerError("chain items/gaps length mismatch")
    if n == 1:
        return items[0], 0.0

    leaf_cards = [model.cardinality(item) for item in items]

    # card[i][j]: canonical cardinality estimate for the sub-chain i..j.
    # Computed left-to-right so it is independent of the parenthesisation
    # the DP later chooses (the estimate, like the true size, is a property
    # of the sub-chain, not of the plan).
    card = [[0.0] * n for _ in range(n)]
    for i in range(n):
        card[i][i] = leaf_cards[i]
        running = leaf_cards[i]
        for j in range(i + 1, n):
            running = model.join_cardinality(gaps[j - 1], running, leaf_cards[j])
            card[i][j] = running

    INF = float("inf")
    cost = [[0.0] * n for _ in range(n)]
    split = [[-1] * n for _ in range(n)]
    for length in range(2, n + 1):
        for i in range(0, n - length + 1):
            j = i + length - 1
            best, best_k = INF, -1
            for k in range(i, j):
                candidate = (
                    cost[i][k]
                    + cost[k + 1][j]
                    + model.join_cost(gaps[k], card[i][k], card[k + 1][j])
                )
                if candidate < best:
                    best, best_k = candidate, k
            cost[i][j] = best
            split[i][j] = best_k

    return _build_split(items, gaps, split, 0, n - 1), cost[0][n - 1]


def _build_split(
    items: list[Pattern], gaps: list, split: list[list[int]], i: int, j: int
) -> Pattern:
    """The tree over ``items[i..j]`` that the DP's ``split`` table chose."""
    if i == j:
        return items[i]
    k = split[i][j]
    return gaps[k].with_children(
        _build_split(items, gaps, split, i, k),
        _build_split(items, gaps, split, k + 1, j),
    )


class Optimizer:
    """Cost-based optimizer for incident-pattern queries.

    Examples
    --------
    >>> from repro.core.parser import parse
    >>> from repro.core.model import Log
    >>> log = Log.from_traces([["A", "B", "A", "C"]])
    >>> plan = Optimizer.for_log(log).optimize(parse("A -> B -> C"))
    >>> plan.optimized_cost <= plan.original_cost
    True
    """

    def __init__(self, model: CostModel):
        self.model = model

    @classmethod
    def for_log(cls, log: Log) -> "Optimizer":
        """Build an optimizer from a log's collected statistics."""
        return cls(CostModel(LogStatistics.from_log(log)))

    def optimize(self, pattern: Pattern) -> OptimizedPlan:
        """Produce an equivalent, estimated-cheaper pattern for the log the
        cost model was built from."""
        original_cost = self.model.plan_cost(pattern)

        # the same normal form repro.core.lint reasons about
        current, transformations = normalize(pattern)

        reassociated = self._reassociate(current)
        if reassociated != current:
            transformations.append(
                "chain re-association via DP (licensed by Theorems 2 and 4)"
            )
            current = reassociated

        distributed = self._distribute_if_cheaper(current)
        if distributed is not None:
            transformations.append(
                "cost-guarded choice distribution (licensed by Theorem 5)"
            )
            current = distributed

        optimized_cost = self.model.plan_cost(current)
        logger.debug(
            "optimized %s -> %s (cost %.1f -> %.1f, %d transformation(s))",
            pattern,
            current,
            original_cost,
            optimized_cost,
            len(transformations),
        )
        return OptimizedPlan(
            original=pattern,
            optimized=current,
            original_cost=original_cost,
            optimized_cost=optimized_cost,
            transformations=transformations,
        )

    # -- internals -----------------------------------------------------

    def _reassociate(self, pattern: Pattern) -> Pattern:
        """Recursively re-associate every maximal ⊙/⊳ chain."""
        if isinstance(pattern, Atomic):
            return pattern
        if isinstance(pattern, (Consecutive, Sequential)):
            items, gaps = flatten_chain(pattern)
            items = [self._reassociate(item) for item in items]
            rebuilt, __ = reassociate_chain(items, gaps, self.model)
            return rebuilt
        assert isinstance(pattern, BinaryPattern)
        return pattern.with_children(
            self._reassociate(pattern.left), self._reassociate(pattern.right)
        )

    def _distribute_if_cheaper(self, pattern: Pattern) -> Pattern | None:
        """Apply Theorem 5 left-to-right wherever the estimate improves.

        Distribution duplicates the non-choice operand, which usually
        costs more — but when one choice branch has (near-)zero estimated
        cardinality on this log, the distributed form lets that branch be
        evaluated (and found empty) in isolation.  ``None`` when nothing
        in ``pattern`` improved.
        """
        if isinstance(pattern, Atomic):
            return None
        assert isinstance(pattern, BinaryPattern)
        left = self._distribute_if_cheaper(pattern.left)
        right = self._distribute_if_cheaper(pattern.right)
        node = pattern.with_children(
            pattern.left if left is None else left,
            pattern.right if right is None else right,
        )
        candidate = push_choice_out(node)
        if candidate is not None and self.model.plan_cost(
            candidate
        ) < self.model.plan_cost(node):
            return candidate
        return None if left is None and right is None else node
