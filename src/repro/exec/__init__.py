"""Parallel sharded execution (``repro.exec``).

Incidents never span workflow instances (Definition 4), which makes
pattern evaluation embarrassingly parallel across ``wid`` values.  This
package exploits that:

* :mod:`repro.exec.shard` — lossless wid-disjoint partitioning of a
  :class:`~repro.core.model.Log` or live
  :class:`~repro.logstore.store.LogStore` (hash and balanced
  contiguous-range strategies);
* :mod:`repro.exec.backends` — serial / thread-pool / process-pool
  execution backends with an order-preserving ``map`` interface;
* :mod:`repro.exec.worker` — picklable per-shard evaluation entry
  points wrapping every existing engine;
* :mod:`repro.exec.parallel` — the :class:`ParallelExecutor` fanning
  shards over a backend and merging incidents, statistics and trace
  spans into a result byte-for-byte identical to serial evaluation;
* :mod:`repro.exec.batch` — shared-scan evaluation of N queries at
  once, deduplicating common subpatterns across queries.

High-level entry points: ``Query(..., EngineOptions(jobs=4))`` routes
single queries through the executor; :func:`evaluate_batch` (also exposed
as ``Query.evaluate_batch``) runs query batches.  See
``docs/PARALLELISM.md``.
"""

from repro.exec.backends import (
    BACKENDS,
    Backend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.exec.batch import BatchResult, evaluate_batch
from repro.exec.parallel import ParallelExecutor, ParallelResult, default_jobs
from repro.exec.shard import (
    SHARD_STRATEGIES,
    Shard,
    ShardPlan,
    assign_wids,
    plan_shards,
)
from repro.exec.worker import EngineConfig, ShardOutcome, ShardTask, evaluate_shard

__all__ = [
    "BACKENDS",
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "make_backend",
    "BatchResult",
    "evaluate_batch",
    "ParallelExecutor",
    "ParallelResult",
    "default_jobs",
    "SHARD_STRATEGIES",
    "Shard",
    "ShardPlan",
    "assign_wids",
    "plan_shards",
    "EngineConfig",
    "ShardOutcome",
    "ShardTask",
    "evaluate_shard",
]
