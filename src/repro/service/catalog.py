"""A named collection of live :class:`~repro.logstore.LogStore` objects.

The daemon serves queries *by log name*: every evaluation endpoint takes
``"log": "<name>"`` and resolves it here.  A catalog can be built three
ways —

* programmatically (``catalog.add_log("clinic", log)`` in tests and
  bench cases),
* from a config file (``StoreCatalog.from_config``, JSON everywhere and
  TOML where :mod:`tomllib` exists, i.e. Python ≥ 3.11), or
* by scanning a directory of log files (``StoreCatalog.from_directory``),
  where each ``*.jsonl`` / ``*.csv`` / ``*.xes`` becomes a store named
  after its stem.

Stores stay *live*: ``POST /v1/logs/{name}/records`` appends through
:meth:`StoreCatalog.get`, bumping the store epoch, which is exactly the
signal the PR-5 result cache keys on (``("lineage", store_id, epoch)``)
— so a hot append invalidates precisely the cached results of that one
log.  All mutation goes through one catalog lock, so appenders
interleave at batch granularity, and a batch is atomic
(:meth:`LogStore.append_batch <repro.logstore.store.LogStore.append_batch>`):
it is checked whole against the store before anything changes, one that
breaks a rule changes nothing, and one that passes lands in a single
step that moves the epoch once.  Queries do not take the catalog lock:
they read through :meth:`LogStore.snapshot`, which captures the records
in one atomic step (the epoch it stamps is the count of that capture)
and builds the validated log at most once per epoch under the store's
own snapshot lock.  A query therefore sees all of a batch or none of it,
always a well-formed log whose epoch names exactly the records it holds.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.errors import LogStoreError, ReproError
from repro.logstore import LogStore, read_csv, read_jsonl, read_xes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.model import Log
    from repro.obs.metrics import MetricsRegistry

__all__ = ["StoreCatalog"]

#: Extensions the directory scanner (and config loader) understand.
_READERS = {
    ".jsonl": read_jsonl,
    ".csv": read_csv,
    ".xes": read_xes,
}


def _load_log_file(path: Path) -> "Log":
    reader = _READERS.get(path.suffix.lower())
    if reader is None:
        raise ReproError(
            f"unsupported log format {path.suffix!r} for {path} "
            f"(expected one of {', '.join(sorted(_READERS))})"
        )
    return reader(str(path))


class StoreCatalog:
    """Thread-safe name → :class:`LogStore` registry for the daemon."""

    def __init__(self, *, metrics: "MetricsRegistry | None" = None) -> None:
        self._stores: dict[str, LogStore] = {}
        self._sources: dict[str, str] = {}
        self._lock = threading.Lock()
        self.metrics = metrics

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------

    def add(self, name: str, store: LogStore, *, source: str = "<memory>") -> None:
        """Register a live store under ``name`` (refuses duplicates)."""
        if not name:
            raise ReproError("store name must be non-empty")
        with self._lock:
            if name in self._stores:
                raise ReproError(f"store {name!r} is already registered")
            if store.metrics is None:
                store.metrics = self.metrics
            self._stores[name] = store
            self._sources[name] = source
        if self.metrics is not None:
            self.metrics.gauge("service.catalog_stores").set(float(len(self._stores)))

    def add_log(self, name: str, log: "Log", *, source: str = "<memory>") -> LogStore:
        """Seed a live store from an immutable log and register it."""
        store = LogStore.from_log(log)
        self.add(name, store, source=source)
        return store

    def add_file(self, name: str, path: str | Path) -> LogStore:
        """Load a log file and register the resulting store."""
        file_path = Path(path)
        log = _load_log_file(file_path)
        return self.add_log(name, log, source=str(file_path))

    @classmethod
    def from_directory(
        cls, path: str | Path, *, metrics: "MetricsRegistry | None" = None
    ) -> "StoreCatalog":
        """Scan ``path`` for log files; each becomes a store named by stem."""
        root = Path(path)
        if not root.is_dir():
            raise ReproError(f"catalog directory {root} does not exist")
        catalog = cls(metrics=metrics)
        for file_path in sorted(root.iterdir()):
            if file_path.suffix.lower() in _READERS and file_path.is_file():
                catalog.add_file(file_path.stem, file_path)
        if not catalog.names():
            raise ReproError(
                f"catalog directory {root} holds no log files "
                f"({', '.join(sorted(_READERS))})"
            )
        return catalog

    @classmethod
    def from_config(
        cls, path: str | Path, *, metrics: "MetricsRegistry | None" = None
    ) -> "StoreCatalog":
        """Build a catalog from a JSON or TOML config file.

        The config maps names to log-file paths (relative paths resolve
        against the config file's directory)::

            {"logs": {"clinic": "logs/clinic.jsonl",
                      "billing": "logs/billing.csv"}}

        TOML uses the same shape under a ``[logs]`` table.  TOML support
        needs :mod:`tomllib` (Python ≥ 3.11); on older interpreters a
        clean error suggests JSON instead.
        """
        config_path = Path(path)
        if not config_path.is_file():
            raise ReproError(f"catalog config {config_path} does not exist")
        suffix = config_path.suffix.lower()
        if suffix == ".toml":
            try:
                import tomllib
            except ImportError:  # Python < 3.11
                raise ReproError(
                    f"TOML catalog {config_path} needs Python >= 3.11 "
                    "(tomllib); use a JSON catalog on this interpreter"
                ) from None
            with open(config_path, "rb") as handle:
                doc: Any = tomllib.load(handle)
        elif suffix == ".json":
            import json

            with open(config_path, "r", encoding="utf-8") as text_handle:
                try:
                    doc = json.load(text_handle)
                except json.JSONDecodeError as exc:
                    raise ReproError(
                        f"catalog config {config_path} is not valid JSON: {exc}"
                    ) from None
        else:
            raise ReproError(
                f"unsupported catalog config format {suffix!r} "
                "(expected .json or .toml)"
            )

        logs = doc.get("logs") if isinstance(doc, Mapping) else None
        if not isinstance(logs, Mapping) or not logs:
            raise ReproError(
                f"catalog config {config_path} must define a non-empty "
                "'logs' table mapping names to file paths"
            )
        catalog = cls(metrics=metrics)
        base = config_path.parent
        for name in sorted(logs):
            target = logs[name]
            if not isinstance(target, str):
                raise ReproError(
                    f"catalog entry {name!r} must be a file path string"
                )
            file_path = Path(target)
            if not file_path.is_absolute():
                file_path = base / file_path
            if not file_path.is_file():
                raise ReproError(
                    f"catalog entry {name!r} points at missing file {file_path}"
                )
            catalog.add_file(str(name), file_path)
        return catalog

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._stores))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._stores

    def __len__(self) -> int:
        with self._lock:
            return len(self._stores)

    def get(self, name: str) -> LogStore:
        """The live store, or :class:`LogStoreError` for unknown names
        (the handler layer maps that to the 404 contract)."""
        with self._lock:
            store = self._stores.get(name)
        if store is None:
            raise LogStoreError(f"unknown log {name!r}")
        return store

    def snapshot(self, name: str) -> "Log":
        """An immutable snapshot of the named store's current contents."""
        return self.get(name).snapshot()

    def describe(self) -> list[dict[str, Any]]:
        """Catalog listing for ``GET /v1/logs``; each row is read between
        batches, under the lock they are applied under."""
        with self._lock:
            return [
                {
                    "name": name,
                    "records": len(store),
                    "instances": len(store.wid_record_counts()),
                    "open_instances": list(store.open_instances),
                    "epoch": store.epoch,
                    "lineage": store.lineage,
                    "source": self._sources.get(name, "<memory>"),
                }
                for name, store in sorted(self._stores.items())
            ]

    def append_batch(self, name: str, records: Any) -> dict[str, Any]:
        """Apply one validated append request to the named store.

        ``records`` is the tuple of
        :class:`~repro.service.schemas.AppendRecord` operations.  The
        batch is applied whole or, on a :class:`LogStoreError`, not at
        all, under the catalog lock so concurrent appenders interleave at
        batch granularity; the response reports the epoch it left the
        store at (what cache-invalidation tests assert on).
        """
        store = self.get(name)
        with self._lock:
            written = store.append_batch(
                (record.wid, record.activity, record.attrs_in, record.attrs_out)
                for record in records
            )
            epoch = store.epoch
        opened = sum(r.is_start for r in written)
        closed = sum(r.is_end for r in written)
        return {
            "log": name,
            "appended": len(written) - opened - closed,
            "opened": opened,
            "closed": closed,
            "wids": [r.wid for r in written],
            "epoch": epoch,
        }
