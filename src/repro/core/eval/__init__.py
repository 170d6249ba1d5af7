"""Evaluation engines for incident-pattern queries.

Two in-process engines share one semantics (Definition 4):

* :class:`~repro.core.eval.naive.NaiveEngine` — a faithful implementation
  of the paper's Algorithms 1-3 (pairwise nested-loop operator evaluation,
  post-order incident-tree traversal, per-wid record index); the
  reference and test oracle.
* :class:`~repro.core.eval.vectorized.VectorizedEngine` — the one
  production join kernel: sorted incident lists, binary-search joins for
  the sequential operator and hash joins for the consecutive operator,
  evaluated set-at-a-time over the columnar log core
  (:mod:`repro.columnar`) with position-tuple intermediates.  Tracing
  and in-run subpattern sharing are compile-time hooks on its closure
  tree.

Both satisfy the :class:`~repro.core.eval.base.Engine` interface, as
do the comparators of :mod:`repro.baselines` (the paper's SQL route,
:class:`~repro.baselines.sql.SqlBaseline`, among them); tests
differential-check them all against the Definition 4 oracle in
:func:`repro.core.incident.reference_incidents`.
"""

from repro.core.eval.base import Engine, EvaluationStats
from repro.core.eval.incremental import IncrementalEvaluator
from repro.core.eval.naive import NaiveEngine
from repro.core.eval.tree import IncidentTreeNode, build_incident_tree, render_tree
from repro.core.eval.vectorized import VectorizedEngine, supports_counting

__all__ = [
    "Engine",
    "EvaluationStats",
    "NaiveEngine",
    "VectorizedEngine",
    "IncrementalEvaluator",
    "supports_counting",
    "IncidentTreeNode",
    "build_incident_tree",
    "render_tree",
]
