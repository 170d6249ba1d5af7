"""Shared-scan batch evaluation (``repro.exec``).

:func:`evaluate_batch` (also exposed as ``Query.evaluate_batch``)
evaluates N queries over one log in one pass, joining every subpattern
the queries share exactly once.  See ``docs/BATCH.md``.

The scan is in-process on purpose: ``docs/PERFORMANCE.md``, "Why there
is no parallel backend".
"""

from repro.exec.batch import BatchResult, evaluate_batch

__all__ = ["BatchResult", "evaluate_batch"]
