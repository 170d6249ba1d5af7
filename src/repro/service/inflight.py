"""Live-query introspection: who is evaluating right now, and the hook
to kill them.

Every evaluation request the service admits registers an
:class:`InflightEntry` for its lifetime.  The entry carries the query's
identity (``query_id``/``trace_id``), what it is doing (pattern, op,
store), when it started, and — the operational teeth — a shared
:class:`~repro.core.governor.CancelToken`.  The run the token is handed
to points it at its :class:`~repro.core.governor.ResourceGovernor`,
whose ``pairs_seen`` is the run's checkpoint progress, so a query and a
batch report progress the same way.  ``GET /v1/admin/inflight`` lists
snapshots; ``DELETE /v1/admin/inflight/{query_id}`` sets the token, and
the run dies at its next cooperative checkpoint with the standard
structured-cancellation contract (503 ``unavailable`` + partial
:class:`~repro.core.eval.base.EvaluationStats`, journal ``killed``
event) — no thread is ever killed, no engine invariant is bypassed.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any

from repro.core.governor import CancelToken

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.governor import QueryContext

__all__ = ["InflightEntry", "InflightRegistry"]


class InflightEntry:
    """One admitted, still-running query."""

    __slots__ = (
        "query_id",
        "trace_id",
        "pattern",
        "op",
        "store",
        "started_unix",
        "cancel",
        "cancelled_by_admin",
    )

    def __init__(
        self,
        *,
        query_id: str,
        trace_id: str,
        pattern: str,
        op: str,
        store: str | None,
        started_unix: float,
    ) -> None:
        self.query_id = query_id
        self.trace_id = trace_id
        self.pattern = pattern
        self.op = op
        self.store = store
        self.started_unix = started_unix
        self.cancel = CancelToken()
        self.cancelled_by_admin = False

    def pairs_so_far(self) -> int:
        """Best-effort pairs examined so far, read lock-free from the
        run's governor (refreshed at every cooperative checkpoint)."""
        governor = self.cancel.governor
        return 0 if governor is None else governor.pairs_seen

    def snapshot(self, *, now: float | None = None) -> dict[str, Any]:
        when = time.time() if now is None else now
        return {
            "query_id": self.query_id,
            "trace_id": self.trace_id,
            "pattern": self.pattern,
            "op": self.op,
            "store": self.store,
            "started_unix": self.started_unix,
            "elapsed_s": max(0.0, when - self.started_unix),
            "pairs": self.pairs_so_far(),
            "cancelling": self.cancel.is_set(),
        }


class InflightRegistry:
    """Thread-safe registry of every in-flight evaluation."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, InflightEntry] = {}
        self.cancelled_total = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def register(
        self,
        ctx: "QueryContext",
        *,
        pattern: str,
        op: str,
        store: str | None = None,
    ) -> InflightEntry:
        entry = InflightEntry(
            query_id=ctx.query_id,
            trace_id=ctx.trace_id,
            pattern=pattern,
            op=op,
            store=store,
            started_unix=time.time(),
        )
        with self._lock:
            self._entries[entry.query_id] = entry
        return entry

    def remove(self, query_id: str) -> None:
        with self._lock:
            self._entries.pop(query_id, None)

    def list(self, *, now: float | None = None) -> list[dict[str, Any]]:
        """Snapshots of every live entry, longest-running first."""
        with self._lock:
            entries = list(self._entries.values())
        rows = [entry.snapshot(now=now) for entry in entries]
        rows.sort(key=lambda row: (-row["elapsed_s"], row["query_id"]))
        return rows

    def request_cancel(self, query_id: str, *, reason: str) -> InflightEntry | None:
        """Set the entry's token; returns the entry, or None if unknown.

        The kill is cooperative: this only flips the flag, the running
        query raises at its next governor checkpoint.
        """
        with self._lock:
            entry = self._entries.get(query_id)
            if entry is None:
                return None
            entry.cancelled_by_admin = True
            self.cancelled_total += 1
        entry.cancel.set(reason)
        return entry
