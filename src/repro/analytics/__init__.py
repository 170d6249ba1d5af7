"""Analytics over incident sets.

* :mod:`repro.analytics.aggregate` — counting incidents by attribute
  values (the "how many per year" queries of the paper's introduction);
* :mod:`repro.analytics.anomaly` — a library of reusable anomaly /
  compliance queries (the fraud-detection application the paper's
  conclusion proposes);
* :mod:`repro.analytics.monitor` — live rule monitoring over an
  append-only record stream via the incremental evaluator.
"""

from repro.analytics.aggregate import attr_of, count_by
from repro.analytics.monitor import Alert, LiveMonitor
from repro.analytics.anomaly import (
    AnomalyReport,
    AnomalyRule,
    RuleSet,
    clinic_rules,
    loan_rules,
    order_rules,
)

__all__ = [
    "count_by",
    "attr_of",
    "AnomalyRule",
    "AnomalyReport",
    "RuleSet",
    "clinic_rules",
    "order_rules",
    "loan_rules",
    "Alert",
    "LiveMonitor",
]
