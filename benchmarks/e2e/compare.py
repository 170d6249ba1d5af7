"""``compare A.json B.json``: is B worse than A, per workload x metric?

Follows the no-regression rule of the metrics guide: B's median may not
be worse than A's by more than the metric's bound; where the run-to-run
spread (interquartile distance / median, the wider of the two sides) is
itself wider than the bound, the pair is ``unresolved`` rather than
``ok``, unless every run of B reads better than every run of A.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from .metrics import END_TO_END, Metric

#: Besides the driver's end-to-end list, the metrics the benchmark was
#: designed to bound but that the driver's contract cannot carry: it needs
#: every metric on every workload (the append pair exists on live_mixed
#: only), none that is 0 when all is well (fail_share), and a run-to-run
#: spread within the bound on a host whose speed drifts by a quarter
#: (server CPU per operation, the p95).  A bound of 0 is absolute.
COMPARED = END_TO_END + (
    Metric("client.query_p95_ms", "ms", "lower", 0.25),
    Metric("server.cpu_ms_per_op", "ms", "lower", 0.25),
    Metric("client.query_after_append_p50_ms", "ms", "lower", 0.25),
    Metric("client.append_p50_ms", "ms", "lower", 0.25),
    Metric("client.fail_share", "ratio", "lower", 0.0),
)


def _values(entry: dict, metric: str) -> list[float]:
    section = "layers" if "." in metric else "end_to_end"
    return [run[section][metric] for run in entry["runs"]]


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)


def judge(metric: Metric, a: list[float], b: list[float]) -> tuple[float, float, str]:
    """``(relative worsening of B, spread, verdict)``."""
    sign = 1.0 if metric.better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = sign * (med_b - med_a)
    if med_a != 0:
        worse /= abs(med_a)
    wide = max(spread(a), spread(b))
    if metric.bound and wide > metric.bound:  # an absolute bound of 0 has no spread
        all_better = all(sign * (y - x) < 0 for x in a for y in b)
        return worse, wide, "ok" if all_better else "unresolved"
    return worse, wide, "worse" if worse > metric.bound else "ok"


def compare_files(path_a: Path, path_b: Path) -> int:
    doc_a = json.loads(path_a.read_text(encoding="utf-8"))
    doc_b = json.loads(path_b.read_text(encoding="utf-8"))
    for key in ("seconds", "instances", "nproc"):
        if doc_a["meta"][key] != doc_b["meta"][key]:
            print(f"warning: {key} differs: {doc_a['meta'][key]} vs {doc_b['meta'][key]}")
    print(
        f"{'workload':12s} {'metric':34s} {'A median':>12s} {'B median':>12s} "
        f"{'B worse by':>10s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    verdicts: list[str] = []
    for name, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"].get(name)
        if entry_b is None:
            print(f"{name:12s} missing from {path_b}")
            verdicts.append("unresolved")
            continue
        for metric in COMPARED:
            a, b = _values(entry_a, metric.name), _values(entry_b, metric.name)
            if not any(a) and not any(b) and metric.bound:
                continue  # not a metric of this workload
            worse, wide, verdict = judge(metric, a, b)
            verdicts.append(verdict)
            print(
                f"{name:12s} {metric.name:34s} {statistics.median(a):12.4f} "
                f"{statistics.median(b):12.4f} {worse:+10.2%} {wide:7.2%} "
                f"{metric.bound:6.2f}  {verdict}  (n={len(a)},{len(b)})"
            )
    for verdict in ("worse", "unresolved", "ok"):
        print(f"{verdict}: {verdicts.count(verdict)}")
    return 1 if "worse" in verdicts else 0
