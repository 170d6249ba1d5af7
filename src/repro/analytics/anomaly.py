"""Anomaly / compliance rule library.

The paper's conclusion proposes using incident-pattern queries "in
application problems such as detecting anomalous or malicious behavior,
with applications in fraud detection".  This module packages that idea:
an :class:`AnomalyRule` is a named incident query with a severity and a
description; a :class:`RuleSet` runs many rules over a log and produces an
:class:`AnomalyReport` listing the offending workflow instances.

Ready-made rule sets are provided for the three bundled workflow models;
they double as realistic query workloads in the examples and benchmarks.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.core.incident import IncidentSet
from repro.core.model import Log
from repro.core.parser import parse
from repro.core.pattern import Pattern
from repro.core.options import EngineOptions
from repro.core.query import Query

__all__ = [
    "AnomalyRule",
    "AnomalyReport",
    "RuleSet",
    "clinic_rules",
    "order_rules",
    "loan_rules",
]


@dataclass(frozen=True)
class AnomalyRule:
    """One named compliance/anomaly query.

    Attributes
    ----------
    name:
        Stable rule identifier (used in reports).
    pattern:
        The incident pattern whose matches *are* the anomaly.
    description:
        Analyst-facing explanation of what a match means.
    severity:
        ``info`` / ``warning`` / ``critical``.
    """

    name: str
    pattern: Pattern
    description: str
    severity: str = "warning"

    def __post_init__(self) -> None:
        if self.severity not in ("info", "warning", "critical"):
            raise ValueError("severity must be info/warning/critical")

    @classmethod
    def from_text(
        cls, name: str, pattern: str, description: str, severity: str = "warning"
    ) -> "AnomalyRule":
        """Build a rule from query-syntax text."""
        return cls(name, parse(pattern), description, severity)


@dataclass(frozen=True)
class Finding:
    """One rule's matches on one log."""

    rule: AnomalyRule
    incidents: IncidentSet

    @property
    def instance_ids(self) -> tuple[int, ...]:
        return self.incidents.wids()

    @property
    def count(self) -> int:
        return len(self.incidents)


@dataclass
class AnomalyReport:
    """All findings of a rule-set run."""

    findings: list[Finding] = field(default_factory=list)

    @property
    def triggered(self) -> list[Finding]:
        """Findings with at least one incident, most severe first."""
        order = {"critical": 0, "warning": 1, "info": 2}
        hits = [f for f in self.findings if f.count]
        return sorted(hits, key=lambda f: (order[f.rule.severity], f.rule.name))

    def __bool__(self) -> bool:
        return bool(self.triggered)

    def format(self) -> str:
        """Multi-line report for CLI / log output."""
        if not self.triggered:
            return "no anomalies detected"
        lines = []
        for finding in self.triggered:
            rule = finding.rule
            instances = ", ".join(map(str, finding.instance_ids[:10]))
            more = (
                f" (+{len(finding.instance_ids) - 10} more)"
                if len(finding.instance_ids) > 10
                else ""
            )
            lines.append(
                f"[{rule.severity.upper():8}] {rule.name}: {finding.count} "
                f"incident(s) in instance(s) {instances}{more}\n"
                f"           {rule.description}"
            )
        return "\n".join(lines)


class RuleSet:
    """A collection of anomaly rules evaluated together.

    The rules share one engine and one optimizer pass per log, so scanning
    a log for dozens of compliance rules stays cheap.
    """

    def __init__(self, rules: Iterable[AnomalyRule] = ()):
        self._rules: list[AnomalyRule] = list(rules)
        names = [r.name for r in self._rules]
        if len(names) != len(set(names)):
            raise ValueError("rule names must be unique")

    def add(self, rule: AnomalyRule) -> "RuleSet":
        if any(r.name == rule.name for r in self._rules):
            raise ValueError(f"duplicate rule name {rule.name!r}")
        self._rules.append(rule)
        return self

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[AnomalyRule]:
        return iter(self._rules)

    def run(self, log: Log, *, engine: str | None = None) -> AnomalyReport:
        """Evaluate every rule; returns the full report."""
        report = AnomalyReport()
        for rule in self._rules:
            incidents = Query(rule.pattern, EngineOptions(engine=engine)).run(log)
            report.findings.append(Finding(rule, incidents))
        return report


def clinic_rules() -> RuleSet:
    """Compliance rules for the clinic referral process (Example 2),
    including the paper's running query."""
    return RuleSet(
        [
            AnomalyRule.from_text(
                "update-before-reimburse",
                "UpdateRefer -> GetReimburse",
                "Referral balance was raised before a reimbursement was "
                "paid — the paper's running fraud indicator.",
                "warning",
            ),
            AnomalyRule.from_text(
                "update-after-reimburse",
                "GetReimburse -> UpdateRefer",
                "Referral updated after reimbursement; the new balance can "
                "never be used legitimately.",
                "critical",
            ),
            AnomalyRule.from_text(
                "reimburse-without-visit",
                "CheckIn ; GetReimburse",
                "Reimbursement immediately after check-in, with no doctor "
                "visit or payment in between.",
                "critical",
            ),
            AnomalyRule.from_text(
                "double-reimburse",
                "GetReimburse -> GetReimburse",
                "Two reimbursements in one referral.",
                "critical",
            ),
            AnomalyRule.from_text(
                "high-balance-referral",
                "GetRefer[out.balance >= 5000] -> GetReimburse",
                "Reimbursement against a high-budget referral (>= 5000); "
                "sample for manual review.",
                "info",
            ),
        ]
    )


def order_rules() -> RuleSet:
    """Compliance rules for the order-fulfillment process."""
    return RuleSet(
        [
            AnomalyRule.from_text(
                "refund-before-delivery",
                "Refund -> Deliver",
                "Order refunded before it was delivered.",
                "critical",
            ),
            AnomalyRule.from_text(
                "ship-without-payment",
                "PaymentFailed -> (ShipExpress | ShipStandard)",
                "Order shipped although the last recorded payment attempt "
                "failed.",
                "warning",
            ),
            AnomalyRule.from_text(
                "double-refund",
                "Refund -> Refund",
                "Two refunds for one order.",
                "critical",
            ),
        ]
    )


def loan_rules() -> RuleSet:
    """Compliance rules for the loan-approval process."""
    return RuleSet(
        [
            AnomalyRule.from_text(
                "disburse-after-reject",
                "Reject -> Disburse",
                "Loan disbursed after an explicit rejection.",
                "critical",
            ),
            AnomalyRule.from_text(
                "skip-credit-check",
                "SubmitApplication ; (AutoApprove | ManualReview)",
                "Decision immediately after submission — the credit check "
                "was skipped.",
                "warning",
            ),
            AnomalyRule.from_text(
                "large-auto-approval",
                "SubmitApplication[out.amount >= 100000] -> AutoApprove",
                "Six-figure loan approved automatically; sample for review.",
                "info",
            ),
        ]
    )
