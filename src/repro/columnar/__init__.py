"""Columnar log core: the interned, column-backed log representation.

* :class:`~repro.columnar.column_log.ColumnarLog` — immutable columnar
  form of a :class:`~repro.core.model.Log` (interned dictionaries,
  ``array``-backed columns, per-wid contiguous row ranges);
* :func:`~repro.columnar.column_log.as_columnar` — coercion helper.

The vectorized pairwise engine that evaluates directly over the columns
lives with its siblings in :mod:`repro.core.eval.vectorized`; the SQL
baseline (:mod:`repro.baselines.sql`) loads its warehouse from them.
"""

from repro.columnar.column_log import ColumnarLog, as_columnar

__all__ = ["ColumnarLog", "as_columnar"]
