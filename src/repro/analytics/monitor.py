"""Live anomaly monitoring over an append-only record stream.

Combines the anomaly rule library with the incremental evaluator: a
:class:`LiveMonitor` watches records as a workflow engine emits them and
raises :class:`Alert` objects the moment a rule's pattern completes —
the "runtime execution monitoring" capability the paper says warehousing
cannot provide.

Example
-------
>>> from repro.analytics.anomaly import clinic_rules
>>> from repro.core.model import LogRecord
>>> monitor = LiveMonitor(clinic_rules())
>>> for record in some_record_stream:          # doctest: +SKIP
...     for alert in monitor.observe(record):
...         page_the_auditor(alert)
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter

from repro.analytics.anomaly import AnomalyRule, RuleSet
from repro.core.eval.incremental import IncrementalEvaluator
from repro.core.incident import Incident
from repro.core.model import LogRecord
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry

__all__ = ["Alert", "LiveMonitor"]

logger = get_logger("analytics.monitor")


@dataclass(frozen=True)
class Alert:
    """One rule completion: the rule, the completing record and the
    incident it completed."""

    rule: AnomalyRule
    record: LogRecord
    incident: Incident

    def format(self) -> str:
        members = ", ".join(f"l{r.lsn}:{r.activity}" for r in self.incident)
        return (
            f"[{self.rule.severity.upper()}] {self.rule.name} "
            f"completed at lsn={self.record.lsn} "
            f"(wid={self.incident.wid}): {{{members}}}"
        )


class LiveMonitor:
    """Evaluates a rule-set incrementally over an append-only stream.

    Parameters
    ----------
    rules:
        The rule-set to monitor.
    max_incidents_per_rule:
        Safety cap forwarded to each rule's incremental evaluator.
    on_alert:
        Optional callback invoked synchronously for every alert (in
        addition to alerts being returned from :meth:`observe`).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`: records
        observed / alerts raised counters plus an ``observe`` latency
        histogram, shared with each rule's incremental evaluator.
    """

    def __init__(
        self,
        rules: RuleSet,
        *,
        max_incidents_per_rule: int | None = 100_000,
        on_alert: Callable[[Alert], None] | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.rules = rules
        self.on_alert = on_alert
        self.metrics = metrics
        self._evaluators: list[tuple[AnomalyRule, IncrementalEvaluator]] = [
            (
                rule,
                IncrementalEvaluator(
                    rule.pattern,
                    max_incidents=max_incidents_per_rule,
                    metrics=metrics,
                ),
            )
            for rule in rules
        ]
        self._alerts: list[Alert] = []

    def observe(self, record: LogRecord) -> list[Alert]:
        """Feed one record; returns the alerts it triggers."""
        started = perf_counter() if self.metrics is not None else 0.0
        new_alerts: list[Alert] = []
        for rule, evaluator in self._evaluators:
            for incident in evaluator.append(record):
                alert = Alert(rule, record, incident)
                new_alerts.append(alert)
                logger.debug(
                    "rule %s completed at lsn=%d (wid=%d)",
                    rule.name,
                    record.lsn,
                    incident.wid,
                )
                if self.on_alert is not None:
                    self.on_alert(alert)
        self._alerts.extend(new_alerts)
        if self.metrics is not None:
            self.metrics.counter("monitor.records_observed").inc()
            self.metrics.counter("monitor.alerts").inc(len(new_alerts))
            self.metrics.histogram("monitor.observe_seconds").observe(
                perf_counter() - started
            )
        return new_alerts

    @property
    def alerts(self) -> tuple[Alert, ...]:
        """Every alert raised since construction."""
        return tuple(self._alerts)

    def offending_instances(self) -> dict[str, tuple[int, ...]]:
        """Per rule name, the instances with at least one alert."""
        out: dict[str, set[int]] = {}
        for alert in self._alerts:
            out.setdefault(alert.rule.name, set()).add(alert.incident.wid)
        return {name: tuple(sorted(wids)) for name, wids in out.items()}

    def __repr__(self) -> str:
        return (
            f"LiveMonitor({len(self._evaluators)} rules, "
            f"{len(self._alerts)} alerts)"
        )
