"""Flamegraph rendering for recorded span trees.

Two formats, both derived from any :class:`~repro.obs.tracer.Span` root
(serial traces and merged parallel traces alike):

* **folded stacks** (:func:`folded_stacks`) — the `stackcollapse`
  interchange format: one line per span, ``root;child;leaf <value>``,
  value = the span's *self* time in integer microseconds.  Feed it to
  any external ``flamegraph.pl``-compatible tool;
* **self-contained HTML** (:func:`flamegraph_html`) — a dependency-free
  icicle flamegraph (root at the top): one absolutely positioned
  ``<div class="frame">`` per span, width proportional to the span's
  share of the root wall time, children packed left-to-right inside
  their parent.  No external scripts, stylesheets or fonts — the file
  opens anywhere, and the machine-readable trace document is embedded
  verbatim in a ``<script type="application/json">`` block so tooling
  can recover the exact tree from the artifact.

Both formats emit **every** span exactly once, including zero-time
spans — the node set of the rendering equals the node set of the trace,
which is what the tests pin.

Layout note: a span's children can sum to more wall time than the span
itself records (clock granularity).  The layout normalises each
sibling row by ``max(parent_width, sum(children))`` so frames never
overflow their parent, at the cost of a slightly compressed row when
the anomaly occurs.
"""

from __future__ import annotations

import json
from html import escape
from typing import Iterator

from repro.obs.export import trace_to_dict
from repro.obs.tracer import Span

__all__ = ["folded_stacks", "flamegraph_html"]

#: Row height of one stack depth, in pixels.
_ROW_PX = 18

#: Frame fill colours by depth (flame palette, cycled).
_PALETTE = ("#d9534f", "#e8793a", "#f0a830", "#c7803d", "#b3583b")


def _frame_name(span: Span) -> str:
    """A folded-stack frame name: the label with the separators escaped."""
    return (span.label or "(unnamed)").replace(";", ",").replace("\n", " ")


def folded_stacks(root: Span, *, _prefix: str = "") -> str:
    """Render the tree in folded-stacks format (self time, microseconds).

    One line per span, pre-order, so the line count equals the span
    count and the per-stack values sum to the root's total wall time (up
    to integer rounding).
    """
    lines: list[str] = []
    for stack, span in _walk_stacks(root, _prefix):
        lines.append(f"{stack} {round(span.self_s * 1e6)}")
    return "\n".join(lines) + "\n"


def _walk_stacks(span: Span, prefix: str) -> Iterator[tuple[str, Span]]:
    stack = f"{prefix};{_frame_name(span)}" if prefix else _frame_name(span)
    yield stack, span
    for child in span.children:
        yield from _walk_stacks(child, stack)


def _layout(
    span: Span,
    x0: float,
    width: float,
    depth: int,
    out: list[tuple[Span, float, float, int]],
) -> None:
    """Assign ``(x, width, depth)`` fractions of the root width."""
    out.append((span, x0, width, depth))
    if not span.children:
        return
    child_sum = sum(child.elapsed_s for child in span.children)
    # the row is scaled to fit the parent; unused width (self time) stays
    # exposed at the right edge of the parent frame
    denominator = max(span.elapsed_s, child_sum)
    cursor = x0
    for child in span.children:
        if denominator > 0.0:
            child_width = width * (child.elapsed_s / denominator)
        else:
            # a zero-time subtree still renders: share the row equally
            child_width = width / len(span.children)
        _layout(child, cursor, child_width, depth + 1, out)
        cursor += child_width


def _frame_title(span: Span, root_elapsed: float) -> str:
    share = span.elapsed_s / root_elapsed if root_elapsed > 0 else 0.0
    parts = [
        f"{span.elapsed_s * 1e3:.3f}ms total ({share:.1%})",
        f"{span.self_s * 1e3:.3f}ms self",
        f"count={span.count}",
    ]
    for name in ("n1", "n2", "pairs", "incidents"):
        if name in span.metrics:
            parts.append(f"{name}={span.metrics[name]:g}")
    return f"{span.label or '(unnamed)'} — " + ", ".join(parts)


def flamegraph_html(root: Span, *, title: str = "repro trace flamegraph") -> str:
    """A complete, self-contained HTML page for one span tree."""
    frames: list[tuple[Span, float, float, int]] = []
    _layout(root, 0.0, 100.0, 0, frames)
    depth_max = max(depth for _, _, _, depth in frames)

    divs: list[str] = []
    for index, (span, x0, width, depth) in enumerate(frames):
        colour = _PALETTE[depth % len(_PALETTE)]
        label = escape(span.label or "(unnamed)")
        tooltip = escape(_frame_title(span, root.elapsed_s), quote=True)
        divs.append(
            f'<div class="frame" data-path="{index}" '
            f'title="{tooltip}" '
            f'style="left:{x0:.4f}%;width:{width:.4f}%;'
            f"top:{depth * _ROW_PX}px;background:{colour}\">"
            f"<span>{label}</span></div>"
        )

    trace_json = json.dumps(
        trace_to_dict(root), ensure_ascii=False, sort_keys=True
    ).replace("</", "<\\/")

    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{escape(title)}</title>
<style>
  body {{ font: 13px/1.4 system-ui, sans-serif; margin: 16px; }}
  h1 {{ font-size: 15px; margin: 0 0 4px; }}
  p.meta {{ color: #555; margin: 0 0 12px; }}
  #flame {{ position: relative; width: 100%;
            height: {(depth_max + 1) * _ROW_PX}px; }}
  .frame {{ position: absolute; height: {_ROW_PX - 1}px; overflow: hidden;
            box-sizing: border-box; border: 1px solid rgba(255,255,255,.55);
            border-radius: 2px; cursor: default; }}
  .frame span {{ padding: 0 4px; font-size: 11px; color: #fff;
                 white-space: nowrap; }}
  .frame:hover {{ filter: brightness(1.15); }}
</style>
</head>
<body>
<h1>{escape(title)}</h1>
<p class="meta">root: {escape(root.label or "(unnamed)")} —
{root.elapsed_s * 1e3:.3f}ms wall, {len(frames)} span(s),
depth {depth_max + 1}. Width = share of root wall time; hover for
self time and payload metrics.</p>
<div id="flame">
{chr(10).join(divs)}
</div>
<script type="application/json" id="trace">{trace_json}</script>
</body>
</html>
"""
