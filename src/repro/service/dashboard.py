"""The zero-dependency admin dashboard.

One self-contained HTML document (inline CSS + vanilla JS, no external
assets, no build step) served at ``GET /dashboard``.  It polls the
admin-plane JSON endpoints — ``/v1/admin/stats``, ``/v1/admin/slo``,
``/v1/admin/inflight``, ``/v1/admin/cache`` — every two seconds and
renders windowed latency quantiles, SLO burn gauges, the in-flight
table (with a cooperative *kill* button wired to
``DELETE /v1/admin/inflight/{query_id}``) and cache health.  Like the
rest of the admin plane it is **auth-free** and must only be exposed on
a trusted network (see ``docs/SERVICE.md``).
"""

from __future__ import annotations

__all__ = ["DASHBOARD_HTML"]

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro-logs · live telemetry</title>
<style>
  :root { color-scheme: dark; }
  body { font: 13px/1.45 ui-monospace, SFMono-Regular, Menlo, monospace;
         background: #0d1117; color: #c9d1d9; margin: 1.2rem; }
  h1 { font-size: 1.1rem; color: #e6edf3; }
  h1 small { color: #8b949e; font-weight: normal; }
  h2 { font-size: 0.85rem; color: #8b949e; text-transform: uppercase;
       letter-spacing: 0.08em; margin: 1.4rem 0 0.4rem; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: left; padding: 0.22rem 0.7rem 0.22rem 0;
           border-bottom: 1px solid #21262d; white-space: nowrap; }
  th { color: #8b949e; font-weight: normal; }
  td.num { text-align: right; font-variant-numeric: tabular-nums; }
  .cards { display: flex; flex-wrap: wrap; gap: 0.8rem; }
  .card { background: #161b22; border: 1px solid #21262d; border-radius: 6px;
          padding: 0.6rem 0.9rem; min-width: 9rem; }
  .card .v { font-size: 1.25rem; color: #e6edf3; }
  .card .k { color: #8b949e; font-size: 0.75rem; }
  .ok { color: #3fb950; } .warn { color: #d29922; } .bad { color: #f85149; }
  button.kill { background: #21262d; color: #f85149; border: 1px solid #30363d;
                border-radius: 4px; cursor: pointer; font: inherit;
                padding: 0.05rem 0.5rem; }
  button.kill:hover { background: #f85149; color: #0d1117; }
  #err { color: #f85149; margin-left: 0.6rem; }
  select { background: #161b22; color: #c9d1d9; border: 1px solid #30363d;
           border-radius: 4px; font: inherit; }
</style>
</head>
<body>
<h1>repro-logs <small>live telemetry</small>
  <select id="window">
    <option value="60">1m</option>
    <option value="300" selected>5m</option>
    <option value="900">15m</option>
    <option value="3600">1h</option>
  </select>
  <span id="err"></span>
</h1>

<h2>Service</h2>
<div class="cards" id="cards"></div>

<h2>SLOs</h2>
<table id="slo"><thead><tr>
  <th>objective</th><th>target</th><th class="num">fast burn</th>
  <th class="num">slow burn</th><th class="num">budget left</th><th>state</th>
</tr></thead><tbody></tbody></table>

<h2>Routes</h2>
<table id="routes"><thead><tr>
  <th>route</th><th class="num">req</th><th class="num">err</th>
  <th class="num">p50</th><th class="num">p95</th><th class="num">p99</th>
</tr></thead><tbody></tbody></table>

<h2>Stores</h2>
<table id="stores"><thead><tr>
  <th>store</th><th class="num">req</th><th class="num">err</th>
  <th class="num">p50</th><th class="num">p95</th><th class="num">p99</th>
</tr></thead><tbody></tbody></table>

<h2>Pattern shapes</h2>
<table id="patterns"><thead><tr>
  <th>pattern</th><th class="num">req</th><th class="num">killed</th>
  <th class="num">pairs</th><th class="num">p95</th><th class="num">p99</th>
</tr></thead><tbody></tbody></table>

<h2>In flight</h2>
<table id="inflight"><thead><tr>
  <th>query_id</th><th>op</th><th>store</th><th>pattern</th>
  <th class="num">elapsed</th><th class="num">pairs</th><th></th>
</tr></thead><tbody></tbody></table>

<h2>Cache</h2>
<div class="cards" id="cache"></div>

<script>
"use strict";
const $ = (id) => document.getElementById(id);
const esc = (s) => String(s).replace(/[&<>"]/g,
  (c) => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));
const ms = (s) => s >= 1 ? s.toFixed(2) + "s" : (s * 1000).toFixed(1) + "ms";
const pct = (x) => (100 * x).toFixed(2) + "%";

function card(k, v, cls) {
  return `<div class="card"><div class="v ${cls || ""}">${esc(v)}</div>` +
         `<div class="k">${esc(k)}</div></div>`;
}

function rows(tbody, html) { $(tbody).querySelector("tbody").innerHTML = html; }

async function getJSON(path) {
  const res = await fetch(path);
  if (!res.ok) throw new Error(path + " -> " + res.status);
  return res.json();
}

async function kill(qid) {
  try { await fetch("/v1/admin/inflight/" + qid, { method: "DELETE" }); }
  catch (e) { /* surfaced on next poll */ }
  refresh();
}
window.kill = kill;

function dimRows(cells, killCol) {
  return cells.map((c) =>
    `<tr><td>${esc(c.key)}</td><td class="num">${c.count}</td>` +
    (killCol
      ? `<td class="num">${c.killed}</td><td class="num">${c.pairs}</td>`
      : `<td class="num">${c.errors}</td><td class="num">${ms(c.p50_s)}</td>`) +
    `<td class="num">${ms(c.p95_s)}</td><td class="num">${ms(c.p99_s)}</td></tr>`
  ).join("");
}

async function refresh() {
  const w = $("window").value;
  try {
    const [stats, slo, inflight, cache] = await Promise.all([
      getJSON("/v1/admin/stats?window=" + w),
      getJSON("/v1/admin/slo"),
      getJSON("/v1/admin/inflight"),
      getJSON("/v1/admin/cache"),
    ]);
    $("err").textContent = "";

    const errCls = stats.error_ratio > 0.01 ? "bad"
      : (stats.error_ratio > 0 ? "warn" : "ok");
    $("cards").innerHTML =
      card("requests / " + stats.window_s + "s", stats.requests) +
      card("error ratio", pct(stats.error_ratio), errCls) +
      card("governor kills", stats.killed, stats.killed ? "warn" : "ok") +
      card("p50", ms(stats.latency.p50_s)) +
      card("p95", ms(stats.latency.p95_s)) +
      card("p99", ms(stats.latency.p99_s)) +
      card("in flight", inflight.count);

    rows("slo", slo.objectives.map((o) => {
      const cls = o.breach ? "bad" : (o.burn_fast >= 1 ? "warn" : "ok");
      const state = o.breach ? "BREACH" : (o.burn_fast >= 1 ? "burning" : "ok");
      return `<tr><td>${esc(o.name)}</td><td>${pct(o.target)}</td>` +
        `<td class="num">${o.burn_fast.toFixed(2)}×</td>` +
        `<td class="num">${o.burn_slow.toFixed(2)}×</td>` +
        `<td class="num">${pct(o.budget_remaining)}</td>` +
        `<td class="${cls}">${state}</td></tr>`;
    }).join(""));

    rows("routes", dimRows(stats.routes, false));
    rows("stores", dimRows(stats.stores, false));
    rows("patterns", dimRows(stats.patterns, true));

    rows("inflight", inflight.queries.map((q) =>
      `<tr><td>${esc(q.query_id)}</td><td>${esc(q.op)}</td>` +
      `<td>${esc(q.store || "")}</td><td>${esc(q.pattern)}</td>` +
      `<td class="num">${q.elapsed_s.toFixed(1)}s</td>` +
      `<td class="num">${q.pairs}</td>` +
      `<td><button class="kill" onclick="kill('${esc(q.query_id)}')">` +
      (q.cancelling ? "cancelling…" : "kill") + `</button></td></tr>`
    ).join(""));

    const hr = (h, m) => (h + m) ? pct(h / (h + m)) : "—";
    $("cache").innerHTML =
      card("result hit ratio", hr(cache.result_hits, cache.result_misses)) +
      card("result entries", cache.result_entries) +
      card("result bytes", cache.result_bytes);
  } catch (e) {
    $("err").textContent = String(e);
  }
}

refresh();
setInterval(refresh, 2000);
$("window").addEventListener("change", refresh);
</script>
</body>
</html>
"""
