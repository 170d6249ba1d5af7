"""Text rendering of logs, traces and incidents.

Terminal-friendly views used by the CLI's ``show`` subcommand and by the
examples:

* :func:`render_instance` — one instance's trace as a numbered timeline,
  optionally highlighting the records of given incidents;
* :func:`render_log_table` — the Figure 3-style table of a log segment;
* :func:`render_swimlanes` — all instances side by side against global
  log positions, showing the interleaving;
* :func:`dfg_to_dot` — the directly-follows graph as Graphviz DOT text
  (renderable outside this environment).
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from repro.core.incident import Incident
from repro.core.model import Log
from repro.logstore.stats import directly_follows_graph

__all__ = [
    "render_instance",
    "render_log_table",
    "render_swimlanes",
    "dfg_to_dot",
]


def render_instance(
    log: Log,
    wid: int,
    *,
    incidents: Iterable[Incident] = (),
    marker: str = "<<",
) -> str:
    """One instance's trace, one record per line, marking incident
    members.

    >>> print(render_instance(log, 2, incidents=q.run(log)))  # doctest: +SKIP
      1  START
      2  GetRefer
      ...
      5  UpdateRefer        << [1]
    """
    members: dict[int, list[int]] = {}
    for index, incident in enumerate(incidents, start=1):
        if incident.wid != wid:
            continue
        for record in incident:
            members.setdefault(record.lsn, []).append(index)
    lines = []
    for record in log.instance(wid):
        tags = members.get(record.lsn)
        suffix = (
            f"  {marker} {sorted(tags)}" if tags else ""
        )
        lines.append(f"  {record.is_lsn:>3}  {record.activity}{suffix}")
    if not lines:
        return f"  (no records for instance {wid})"
    return "\n".join(lines)


def render_log_table(
    log: Log,
    *,
    start: int = 1,
    limit: int = 25,
    with_attributes: bool = False,
) -> str:
    """A Figure 3-style table of the log records ``start .. start+limit``."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    header = f"{'lsn':>5} {'wid':>4} {'is-lsn':>6}  activity"
    if with_attributes:
        header += "  αin / αout"
    lines = [header]
    shown = 0
    for record in log:
        if record.lsn < start:
            continue
        if shown >= limit:
            lines.append(f"  ... ({len(log) - record.lsn + 1} more records)")
            break
        row = (
            f"{record.lsn:>5} {record.wid:>4} {record.is_lsn:>6}  "
            f"{record.activity}"
        )
        if with_attributes and (record.attrs_in or record.attrs_out):
            row += (
                f"  {json.dumps(dict(record.attrs_in), sort_keys=True)}"
                f" / {json.dumps(dict(record.attrs_out), sort_keys=True)}"
            )
        lines.append(row)
        shown += 1
    return "\n".join(lines)


def render_swimlanes(log: Log, *, width: int = 78) -> str:
    """Instances as swimlanes over global positions; each cell is the
    first letter of the activity (sentinels: ``>`` start, ``.`` end)."""
    lanes = []
    positions = min(len(log), max(width - 8, 8))
    for wid in log.wids:
        cells = [" "] * positions
        for record in log.instance(wid):
            if record.lsn > positions:
                break
            if record.is_start:
                glyph = ">"
            elif record.is_end:
                glyph = "."
            else:
                glyph = record.activity[0]
            cells[record.lsn - 1] = glyph
        lanes.append(f"wid{wid:>3} |" + "".join(cells))
    clipped = "" if positions >= len(log) else f"  (first {positions} of {len(log)} positions)"
    return "\n".join(lanes) + clipped


def dfg_to_dot(log: Log, *, include_sentinels: bool = False) -> str:
    """The directly-follows graph as Graphviz DOT (edge labels carry
    counts; pen width scales with relative frequency)."""
    graph = directly_follows_graph(log, include_sentinels=include_sentinels)
    if not graph:
        return "digraph dfg {\n}\n"
    heaviest = max(graph.values())
    lines = ["digraph dfg {", "  rankdir=LR;", "  node [shape=box];"]
    for name in sorted({name for edge in graph for name in edge}):
        lines.append(f'  "{name}";')
    for (source, target), weight in sorted(graph.items()):
        pen = 1.0 + 3.0 * weight / heaviest
        lines.append(
            f'  "{source}" -> "{target}" '
            f'[label="{weight}", penwidth={pen:.2f}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
