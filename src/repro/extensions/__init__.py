"""Language extensions beyond the paper's core algebra.

* :mod:`repro.extensions.conditions` — attribute-guarded atomic patterns
  (the "balance > 5000" queries the paper's introduction motivates but
  its formal language leaves to future work);
* :mod:`repro.extensions.windows` — bounded-window variants of the
  sequential operator (CEP-style "within k steps" matching).
"""

from repro.extensions.conditions import (
    AllOf,
    AnyOf,
    AttrRef,
    Compare,
    Condition,
    Exists,
    Guarded,
    Not,
    attr,
    parse_guard,
)
from repro.extensions.windows import Within

__all__ = [
    "Condition",
    "Compare",
    "Exists",
    "AllOf",
    "AnyOf",
    "Not",
    "AttrRef",
    "attr",
    "Guarded",
    "parse_guard",
    "Within",
]
