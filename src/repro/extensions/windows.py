"""Windowed sequential operator.

CEP systems bound how far apart matched events may be ("B within 5 events
of A").  :class:`Within` is the incident-algebra counterpart: a sequential
operator whose gap constraint is

    ``last(o1) < first(o2) <= last(o1) + bound``

so ``Within(p1, p2, bound=1)`` coincides with the consecutive operator ⊙
and ``bound=∞`` with plain ⊳.  As a subclass of
:class:`~repro.core.pattern.Sequential` it inherits chain flattening
(Theorems 2/4 hold per-gap), engine support (both engines consult
``gap_ok``/``bound``), SQL compilation, and the optimizer's chain DP.

Query-text syntax: ``A ->[5] B``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pattern import Sequential

__all__ = ["Within"]


@dataclass(frozen=True, slots=True, repr=False)
class Within(Sequential):
    """``p1 ⊳[k] p2`` — p1 strictly before p2, at most ``bound`` positions
    between the end of the p1-incident and the start of the p2-incident."""

    bound: int = 1

    symbol = "⊳[k]"

    def __post_init__(self) -> None:
        # explicit class reference: dataclass(slots=True) re-creates the
        # class, which breaks zero-argument super() in its methods
        Sequential.__post_init__(self)
        if self.bound < 1:
            raise ValueError("window bound must be >= 1")

    @property
    def token(self) -> str:  # type: ignore[override]
        return f"->[{self.bound}]"

    def gap_ok(self, last1: int, first2: int) -> bool:
        return last1 < first2 <= last1 + self.bound
