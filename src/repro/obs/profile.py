"""Per-node query profiling: measured cost vs. the optimizer's estimate.

:func:`profile_query` evaluates a pattern with tracing and metrics
enabled, then joins the recorded span tree with the cost model of
:mod:`repro.core.optimizer.cost` node by node.  The resulting
:class:`ProfileReport` shows, for every incident-tree node, the operand
cardinalities, the pairs actually examined, the pairs the optimizer
*predicted* (Lemma 1 shapes under estimated cardinalities), the incidents
produced, and the node's self time — and flags the hottest node.  This is
the feedback loop between the paper's cost analysis and reality: a node
whose actual pairs dwarf its prediction is exactly where the cost model
(and therefore the planner) is being misled.

Import note: this module pulls in the evaluation stack, so the ``repro.obs``
package exposes it lazily — engines can import ``repro.obs.tracer`` without
cycling back through ``repro.core``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.eval.base import EvaluationStats
from repro.core.model import Log
from repro.core.optimizer.cost import CostModel, LogStatistics
from repro.core.optimizer.planner import Optimizer
from repro.core.parser import parse
from repro.core.pattern import Atomic, Pattern
from repro.core.query import engine_class
from repro.obs.export import PROFILE_SCHEMA
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer

__all__ = ["NodeProfile", "ProfileReport", "profile_query"]


@dataclass
class NodeProfile:
    """Measured + predicted cost of one incident-tree node."""

    path: str
    depth: int
    label: str
    kind: str  # "operator" | "leaf"
    count: int
    incidents: int
    elapsed_s: float
    self_s: float
    operator: str | None = None
    n1: int = 0
    n2: int = 0
    pairs: int = 0
    predicted_pairs: float = 0.0
    predicted_incidents: float = 0.0

    def to_dict(self) -> dict:
        node: dict = {
            "path": self.path,
            "label": self.label,
            "kind": self.kind,
            "count": self.count,
            "incidents": self.incidents,
            "predicted_incidents": self.predicted_incidents,
            "elapsed_s": self.elapsed_s,
            "self_s": self.self_s,
        }
        if self.kind == "operator":
            node.update(
                operator=self.operator,
                n1=self.n1,
                n2=self.n2,
                pairs=self.pairs,
                predicted_pairs=self.predicted_pairs,
            )
        return node


@dataclass
class ProfileReport:
    """Everything one profiled evaluation produced."""

    engine: str
    pattern_text: str
    optimized_text: str
    transformations: list[str]
    stats: EvaluationStats
    nodes: list[NodeProfile]
    trace: Span
    registry: MetricsRegistry
    elapsed_s: float = 0.0
    incidents: int = 0

    @property
    def hottest(self) -> NodeProfile:
        """The node with the largest self time (ties: most pairs)."""
        return max(self.nodes, key=lambda n: (n.self_s, n.pairs))

    @property
    def predicted_pairs(self) -> float:
        return sum(n.predicted_pairs for n in self.nodes)

    def to_dict(self) -> dict:
        """Serialise to the ``repro.obs.profile/v1`` schema."""
        return {
            "schema": PROFILE_SCHEMA,
            "engine": self.engine,
            "pattern": self.pattern_text,
            "optimized": self.optimized_text,
            "transformations": list(self.transformations),
            "totals": {
                "operator_evals": self.stats.operator_evals,
                "pairs_examined": self.stats.pairs_examined,
                "incidents_produced": self.stats.incidents_produced,
                "max_live_incidents": self.stats.max_live_incidents,
                "incidents": self.incidents,
                "predicted_pairs": self.predicted_pairs,
                "elapsed_s": self.elapsed_s,
            },
            "hottest": self.hottest.to_dict(),
            "nodes": [n.to_dict() for n in self.nodes],
        }

    def format(self) -> str:
        """Aligned per-node cost breakdown with the hottest node flagged."""
        hottest = self.hottest
        header = (
            "node", "count", "n1", "n2", "pairs", "pred.pairs",
            "incidents", "self(ms)",
        )
        rows: list[tuple[str, ...]] = []
        for node in self.nodes:
            tree_label = "  " * node.depth + node.label
            if node.kind == "operator":
                rows.append((
                    tree_label,
                    str(node.count),
                    str(node.n1),
                    str(node.n2),
                    str(node.pairs),
                    f"{node.predicted_pairs:.1f}",
                    str(node.incidents),
                    f"{node.self_s * 1e3:.2f}"
                    + ("  ◀ hottest" if node is hottest else ""),
                ))
            else:
                rows.append((
                    tree_label, str(node.count), "-", "-", "-", "-",
                    str(node.incidents),
                    f"{node.self_s * 1e3:.2f}"
                    + ("  ◀ hottest" if node is hottest else ""),
                ))
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows))
            for i in range(len(header))
        ]
        lines = [
            f"profile: {self.pattern_text}  (engine={self.engine})",
            f"optimized: {self.optimized_text}",
        ]
        if self.transformations:
            lines.append("transformations: " + "; ".join(self.transformations))
        lines.append("")
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        for row in rows:
            lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
        ratio = (
            self.stats.pairs_examined / self.predicted_pairs
            if self.predicted_pairs
            else float("inf") if self.stats.pairs_examined else 1.0
        )
        lines += [
            "",
            f"totals: {self.incidents} incident(s), "
            f"{self.stats.pairs_examined} pairs examined "
            f"(cost model predicted {self.predicted_pairs:.1f}, "
            f"actual/predicted = {ratio:.2f}), "
            f"{self.stats.operator_evals} operator eval(s), "
            f"peak live incidents {self.stats.max_live_incidents}, "
            f"{self.elapsed_s * 1e3:.2f}ms",
            f"hottest node: {hottest.label} at {hottest.path} "
            f"({hottest.self_s * 1e3:.2f}ms self, {hottest.pairs} pairs)",
        ]
        return "\n".join(lines)


def _collect(
    span: Span,
    pattern: Pattern,
    cost: CostModel,
    path: str,
    depth: int,
    out: list[NodeProfile],
) -> None:
    metrics = span.metrics
    if isinstance(pattern, Atomic):
        out.append(
            NodeProfile(
                path=path,
                depth=depth,
                label=span.label,
                kind="leaf",
                count=span.count,
                incidents=int(metrics.get("incidents", 0)),
                predicted_incidents=cost.cardinality(pattern),
                elapsed_s=span.elapsed_s,
                self_s=span.self_s,
            )
        )
        return
    out.append(
        NodeProfile(
            path=path,
            depth=depth,
            label=span.label,
            kind="operator",
            count=span.count,
            incidents=int(metrics.get("incidents", 0)),
            elapsed_s=span.elapsed_s,
            self_s=span.self_s,
            operator=str(span.tags.get("operator", span.label)),
            n1=int(metrics.get("n1", 0)),
            n2=int(metrics.get("n2", 0)),
            pairs=int(metrics.get("pairs", 0)),
            predicted_pairs=cost.pairs_estimate(pattern),
            predicted_incidents=cost.cardinality(pattern),
        )
    )
    if len(span.children) != 2:  # pragma: no cover - engines always trace both
        return
    _collect(span.children[0], pattern.left, cost, f"{path}.0", depth + 1, out)
    _collect(span.children[1], pattern.right, cost, f"{path}.1", depth + 1, out)


def profile_query(
    log: Log,
    pattern: Pattern | str,
    *,
    engine: str | None = None,
    optimize: bool = True,
    max_incidents: int | None = None,
) -> ProfileReport:
    """Evaluate ``pattern`` over ``log`` with full instrumentation.

    Runs the optimizer (unless disabled), evaluates with a tracing
    engine, and reconciles the span tree with the cost model.  The
    returned report's ``stats``, ``trace`` and ``registry`` carry the raw
    artefacts; ``format()`` / ``to_dict()`` are the CLI surfaces.
    """
    if engine is None:
        engine = engine_class(None).name
    if isinstance(pattern, str):
        pattern = parse(pattern)
    if optimize:
        plan = Optimizer.for_log(log).optimize(pattern)
        evaluated, transformations = plan.optimized, list(plan.transformations)
    else:
        evaluated, transformations = pattern, ["optimization disabled"]
    tracer = Tracer()
    registry = MetricsRegistry()
    engine_obj = engine_class(engine)(
        max_incidents=max_incidents, tracer=tracer, metrics=registry
    )
    incidents = len(engine_obj.evaluate(log, evaluated))
    assert engine_obj.last_stats is not None
    stats = engine_obj.last_stats

    root = tracer.last_root
    assert root is not None and root.children, "engine produced no trace"
    cost = CostModel(LogStatistics.from_log(log))
    nodes: list[NodeProfile] = []
    _collect(root.children[0], evaluated, cost, "root", 0, nodes)
    return ProfileReport(
        engine=engine,
        pattern_text=str(pattern),
        optimized_text=str(evaluated),
        transformations=transformations,
        stats=stats,
        nodes=nodes,
        trace=root,
        registry=registry,
        elapsed_s=root.elapsed_s,
        incidents=incidents,
    )
