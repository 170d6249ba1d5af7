"""Log storage, serialization, statistics, validation and rendering.

The paper notes there is "no standard structure for workflow logs"; this
package provides one concrete, production-usable realisation:

* :mod:`repro.logstore.store` — an append-only in-memory store with the
  bookkeeping (lsn / wid / is-lsn assignment) a workflow engine needs;
* :mod:`repro.logstore.io_jsonl` / :mod:`repro.logstore.io_csv` /
  :mod:`repro.logstore.io_xes` — serialization to JSON-lines, CSV and the
  XES process-mining interchange format;
* :mod:`repro.logstore.stats` — descriptive statistics and the
  directly-follows graph;
* :mod:`repro.logstore.validate` — non-throwing validation reports and
  log repair;
* :mod:`repro.logstore.render` — text and DOT renderings for the CLI.
"""

from repro.logstore.io_csv import read_csv, write_csv
from repro.logstore.io_jsonl import read_jsonl, write_jsonl
from repro.logstore.io_xes import read_xes, write_xes
from repro.logstore.render import (
    dfg_to_dot,
    render_instance,
    render_log_table,
    render_swimlanes,
)
from repro.logstore.stats import LogSummary, directly_follows_graph, summarize
from repro.logstore.store import LogStore
from repro.logstore.validate import ValidationIssue, repair_log, validation_report

__all__ = [
    "LogStore",
    "read_jsonl",
    "write_jsonl",
    "read_csv",
    "write_csv",
    "read_xes",
    "write_xes",
    "LogSummary",
    "summarize",
    "directly_follows_graph",
    "ValidationIssue",
    "validation_report",
    "repair_log",
    "render_instance",
    "render_log_table",
    "render_swimlanes",
    "dfg_to_dot",
]
