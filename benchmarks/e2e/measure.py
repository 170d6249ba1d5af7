"""One workload against the real daemon: set-up, oracle, window, metrics.

Nothing here is traced or patched; every end-to-end number and every
``M``-sourced layer number comes from this path.
"""

from __future__ import annotations

import http.client
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from .client import Connection, Sample, play_all
from .daemon import Daemon
from .metrics import median, percentile
from .store import StoreInfo
from .workloads import QUERY_PATH, Oracle, Workload, query_body, script

#: Length of the slices ``ops_per_s`` and ``server.cpu_ms_per_op`` are
#: medians over.
SLICE_S = 2.0
#: the append route's ``endpoint`` label on ``/metrics``
_APPEND_ENDPOINT = "/v1/logs/{name}/records"


class OracleMismatch(Exception):
    """The daemon's answer differs from ``NaiveEngine``'s before timing."""


def _post(conn: http.client.HTTPConnection, path: str, body: bytes) -> tuple[int, bytes]:
    conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def verify(conn: http.client.HTTPConnection, workload: Workload, oracle: Oracle) -> None:
    """Compare count, wid set and lsn sets of every pool pattern with the
    oracle.  Runs with the workload's cache option, so on cached workloads
    it is also what fills the result cache."""
    for pattern in workload.pool:
        status, body = _post(conn, QUERY_PATH, query_body(workload, pattern, mode="incidents"))
        if status != 200:
            raise OracleMismatch(f"{pattern!r}: status {status}: {body[:300]!r}")
        reply = json.loads(body)
        answer = oracle.answers[pattern]
        rows = reply["incidents"]
        got = (
            reply["count"],
            frozenset(row["wid"] for row in rows),
            frozenset(frozenset(row["lsns"]) for row in rows),
        )
        if reply.get("truncated") or got != (answer.count, answer.wids, answer.lsn_sets):
            raise OracleMismatch(
                f"{pattern!r}: daemon says {got[0]} incidents in {len(got[1])} "
                f"instances, oracle {answer.count} in {len(answer.wids)} "
                f"(lsn sets equal: {got[2] == answer.lsn_sets})"
            )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _ms(samples: list[Sample]) -> list[float]:
    return [s.latency_s * 1000.0 for s in samples]


@dataclass
class _Part:
    """What one daemon's share of the window recorded."""

    samples: list[Sample]
    marks: list[tuple[float, float]]  # (clock, daemon CPU seconds) at slice ends
    before: dict[str, float]  # /metrics around the part
    after: dict[str, float]
    rss_mb: float


def run_workload(
    workload: Workload,
    store: StoreInfo,
    oracle: Oracle,
    *,
    root: Path,
    workdir: Path,
    seconds: float,
    shared_setup_s: float,
    setups: int = 1,
) -> dict:
    """Measure ``workload`` for ``seconds`` in all, on ``setups`` fresh daemons.

    Each daemon is started, checked against the oracle, warmed and then
    measured for ``seconds / setups``: the host's speed drifts over tens
    of seconds, so a window cut in parts that lie a set-up apart sees more
    of that drift than one contiguous window, and its medians move less
    from run to run.  ``setup_s`` charges the median start-up + warm-up on
    top of ``shared_setup_s`` (store generation and oracle answers, paid
    once per invocation).
    """
    cores = len(os.sched_getaffinity(0))
    if workload.connections > cores:
        raise RuntimeError(
            f"{workload.name} needs {workload.connections} client connections but "
            f"only {cores} core(s) are available: the client would steal the "
            "daemon's CPU"
        )
    part_s = seconds / setups
    parts: list[_Part] = []
    startup_s: list[float] = []
    warmup_s: list[float] = []
    for _ in range(setups):
        with Daemon(root, store.path, workdir / f"daemon-{workload.name}.stderr") as daemon:
            connections = [
                Connection(daemon.port, script(workload, oracle, i, store.instances + 1))
                for i in range(workload.connections)
            ]
            try:
                started = time.perf_counter()
                verify(connections[0].conn, workload, oracle)
                warm, _ = play_all(connections, count=workload.warmup_ops)
                wrong = [s for s in warm if not s.correct]
                if wrong:
                    raise OracleMismatch(
                        f"{len(wrong)} of {len(warm)} warm-up replies were wrong "
                        f"(first: {wrong[0]})"
                    )
                startup_s.append(daemon.startup_s)
                warmup_s.append(time.perf_counter() - started)
                before = daemon.metrics()
                samples, marks = play_all(
                    connections,
                    seconds=part_s,
                    probe=daemon.cpu_seconds,
                    slices=max(1, round(part_s / SLICE_S)),
                )
                parts.append(
                    _Part(samples, marks, before, daemon.metrics(), daemon.rss_peak_mb())
                )
            finally:
                for connection in connections:
                    connection.close()

    setup_s = shared_setup_s + median([a + b for a, b in zip(startup_s, warmup_s)])
    result = _summarise(parts, setup_s)
    result["setup"] = {"shared_s": shared_setup_s, "startup_s": startup_s, "warmup_s": warmup_s}
    return result


def _per_slice(parts: list[_Part]) -> tuple[float, float]:
    """``(ops_per_s, cpu_ms_per_op)`` as medians over every slice of every
    part.  The host slows down in bursts; a whole-window mean carries
    every burst, the median slice does not."""
    rates: list[float] = []
    costs: list[float] = []
    for part in parts:
        for (t0, cpu0), (t1, cpu1) in zip(part.marks, part.marks[1:]):
            done = sum(1 for s in part.samples if s.correct and t0 < s.ended <= t1)
            rates.append(done / (t1 - t0))
            if done:
                costs.append((cpu1 - cpu0) * 1000.0 / done)
    return median(rates), median(costs)


def _summarise(parts: list[_Part], setup_s: float) -> dict:
    samples = [s for part in parts for s in part.samples]
    by_kind: dict[str, list[Sample]] = {"query": [], "query_after_append": [], "append": []}
    for sample in samples:
        by_kind[sample.kind].append(sample)
    attempted = len(samples)
    failed = sum(1 for s in samples if not s.correct)
    ops_per_s, cpu_ms_per_op = _per_slice(parts)
    steady = _ms(by_kind["query"])
    queries = len(by_kind["query"]) + len(by_kind["query_after_append"])
    gauges = parts[-1].after

    def delta(key: str) -> float:
        return sum(part.after.get(key, 0.0) - part.before.get(key, 0.0) for part in parts)

    def served(suffix: str) -> float:
        """A ``service.*`` histogram field summed over both measured endpoints."""
        return sum(
            delta(f'repro_service_{suffix}{{endpoint="{endpoint}"}}')
            for endpoint in (QUERY_PATH, _APPEND_ENDPOINT)
        )

    hits = delta("repro_cache_result_hits")
    shed = sum(
        delta(key)
        for key in gauges
        if key.startswith("repro_service_requests{") and 'status="429"' in key
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "elapsed_s": sum(part.marks[-1][0] - part.marks[0][0] for part in parts),
        "samples": {kind: len(values) for kind, values in by_kind.items()},
        "end_to_end": {
            "setup_s": setup_s,
            "query_p50_ms": percentile(steady, 50),
            "ops_per_s": ops_per_s,
            "server_rss_mb": median([part.rss_mb for part in parts]),
        },
        "layers": {
            "client.append_p50_ms": percentile(_ms(by_kind["append"]), 50),
            "client.query_after_append_p50_ms": percentile(
                _ms(by_kind["query_after_append"]), 50
            ),
            "client.fail_share": _ratio(failed, attempted),
            "client.samples": float(attempted),
            "client.query_p95_ms": percentile(steady, 95),
            "client.query_p99_ms": percentile(steady, 99),
            "server.cpu_ms_per_op": cpu_ms_per_op,
            "server.wire_ms": sum(_ms(samples)) / attempted
            - _ratio(served("request_seconds_sum"), served("request_seconds_count")) * 1000.0,
            "server.response_bytes": _ratio(
                served("response_bytes_sum"), served("response_bytes_count")
            ),
            "admission.shed_share": _ratio(shed, attempted),
            "columnar.builds_per_append": _ratio(
                delta("repro_logstore_columnar_builds"), len(by_kind["append"])
            ),
            "eval.evaluations_per_query": _ratio(delta("repro_engine_evaluations"), queries),
            "eval.pairs_per_incident": _ratio(
                delta("repro_engine_pairs_examined"), delta("repro_engine_incidents_produced")
            ),
            "cache.result_hit_ratio": _ratio(
                hits, hits + delta("repro_cache_result_misses")
            ),
            "cache.result_bytes": gauges.get("repro_cache_result_bytes", 0.0),
            "cache.memo_bytes": gauges.get("repro_cache_memo_bytes", 0.0),
            "cache.evictions": delta("repro_cache_result_evictions")
            + delta("repro_cache_memo_evictions"),
        },
    }
