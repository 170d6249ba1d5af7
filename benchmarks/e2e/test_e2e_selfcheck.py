"""Self-check of the benchmark harness (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e

It starts real daemons on the ``--quick`` store, so it takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import cli, compare, measure, metrics, trace
from benchmarks.e2e.client import Connection, play_all
from benchmarks.e2e.daemon import Daemon
from benchmarks.e2e.store import QUICK_INSTANCES
from benchmarks.e2e.workloads import WORKLOADS, Oracle, script

ROOT = cli.ROOT


def _daemons_of(directory: Path) -> list[str]:
    """Command lines of live processes that serve a store under ``directory``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
            except OSError:
                continue
            if "serve" in cmdline and str(directory) in cmdline:
                found.append(cmdline)
    return found


@pytest.fixture(scope="module")
def session():
    with cli._workdir() as workdir:
        yield cli.Session(seed=3, instances=QUICK_INSTANCES, workdir=workdir)


def test_quick_run_prints_every_metric_and_cleans_up(tmp_path):
    out = tmp_path / "BENCH_e2e.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--quick", "--repeat", "1",
         "--seed", "3", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    doc = json.loads(out.read_text())
    for key in ("seed", "git_commit", "python", "nproc", "seconds", "fingerprint"):
        assert key in doc["meta"]
    assert set(doc["workloads"]) == set(WORKLOADS)
    measured = {m.name for m in metrics.PER_LAYER if m.source == "M"}
    traced = {m.name for m in metrics.PER_LAYER if m.source == "T"}
    assert traced == set(trace.T_METRICS)
    for name, entry in doc["workloads"].items():
        (run,) = entry["runs"]
        assert set(run["end_to_end"]) == {m.name for m in metrics.END_TO_END}
        assert set(run["layers"]) == measured
        assert set(entry["trace"]["layers"]) == traced
        assert entry["trace"]["missing"] == {}
        assert run["attempted"] > 0 and run["failed"] == 0, name
        assert run["layers"]["client.fail_share"] == 0
        assert all(value > 0 for value in run["end_to_end"].values()), run["end_to_end"]
        assert entry["trace"]["detail"]["other_min_ms"] >= 0
    # one line per metric and workload, by name, with its unit
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        lines = [line.split() for line in done.stdout.splitlines() if metric.name in line.split()]
        assert len(lines) == len(WORKLOADS), metric.name
        assert all(line[2] == metric.unit for line in lines), metric.name
    # nothing is left behind: no daemon, no temporary store
    assert not _daemons_of(cli.SCRATCH)
    assert not list(cli.SCRATCH.glob("run-*"))


def test_designed_exact_counts(session):
    """The counts the workloads were designed around repeat exactly."""
    expected = {
        "warm_point": (0.0, 1.0),
        "cold_join": (1.0, 0.0),
        "fat_result": (0.0, 1.0),
        "live_mixed": (0.2, 0.8),
    }
    for name, (evaluations, hit_ratio) in expected.items():
        run = session.measure(WORKLOADS[name], seconds=2, setups=1)
        assert run["failed"] == 0
        assert run["layers"]["eval.evaluations_per_query"] == pytest.approx(evaluations), name
        assert run["layers"]["cache.result_hit_ratio"] == pytest.approx(hit_ratio), name
        assert run["layers"]["columnar.builds_per_append"] == 0, name


def test_wrong_expected_count_is_a_failure(session):
    workload = WORKLOADS["warm_point"]
    oracle, _ = session.oracle(workload)
    liar_pattern = workload.pool[2]

    class LyingOracle(Oracle):
        def __init__(self):  # the true answers, one expected count off by one
            self.answers, self.per_batch = oracle.answers, oracle.per_batch

        def count(self, pattern, appended=0):
            return oracle.count(pattern, appended) + (pattern == liar_pattern)

    stderr = session.workdir / "selfcheck.stderr"
    with Daemon(ROOT, session.store.path, stderr) as daemon:
        connection = Connection(daemon.port, script(workload, LyingOracle(), 0, 1))
        try:
            measure.verify(connection.conn, workload, oracle)  # the store itself is fine
            samples, _ = play_all([connection], count=len(workload.pool))
        finally:
            connection.close()
        pid = daemon.pid
    assert [s.correct for s in samples] == [p != liar_pattern for p in workload.pool]
    assert all(s.status == 200 for s in samples)
    assert not Path(f"/proc/{pid}").exists()
    # and the harness refuses to time a daemon whose warm-up answers are wrong
    with pytest.raises(measure.OracleMismatch):
        measure.run_workload(
            workload, session.store, LyingOracle(), root=ROOT, workdir=session.workdir,
            seconds=1, shared_setup_s=0.0,
        )
    assert not _daemons_of(session.workdir)


def test_missing_probe_is_null_with_a_reason(session, monkeypatch):
    gone = ("incident.to_rows", "repro.core.incident", "IncidentSet.no_such_method", None)
    probes = tuple(p for p in trace.PROBES if p[0] != "incident.to_rows") + (gone,)
    monkeypatch.setattr(trace, "PROBES", probes)
    workload = WORKLOADS["cold_join"]
    traced = trace.trace_workload(workload, session.store, session.oracle(workload)[0])
    assert traced["layers"]["incident.to_rows_ms"] is None
    assert "no_such_method" in traced["missing"]["incident.to_rows"]
    assert traced["layers"]["eval.run_ms"] > 0  # the other layers still report


def test_spans_nest_and_share_a_request_id(session):
    workload = WORKLOADS["fat_result"]
    traced = trace.trace_workload(workload, session.store, session.oracle(workload)[0])
    spans = traced["spans"]
    roots = [s for s in spans if s["name"] == "handlers.dispatch"]
    assert len(roots) == traced["detail"]["requests"] == trace.SAMPLE_PASSES * len(workload.pool)
    for span in spans:
        if span["parent"] is None:
            assert span["name"] == "handlers.dispatch"
            continue
        parent = spans[span["parent"]]
        assert parent["request"] == span["request"]
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    assert traced["detail"]["other_min_ms"] >= 0


def test_benchmark_json_repeats_the_metric_table():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]


def _doc(values: dict[str, list[float]]) -> dict:
    runs = [
        {
            "end_to_end": {m.name: 1.0 for m in metrics.END_TO_END}
            | {"query_p50_ms": values["query_p50_ms"][i]},
            "layers": {m.name: 0.0 for m in compare.COMPARED if "." in m.name}
            | {"client.fail_share": values["client.fail_share"][i]},
        }
        for i in range(len(values["query_p50_ms"]))
    ]
    return {"meta": {"seconds": 1, "instances": 1, "nproc": 2}, "workloads": {"w": {"runs": runs}}}


@pytest.mark.parametrize(
    "b_p50, b_fail, verdict, code",
    [
        ([10.2, 10.4, 10.3], [0, 0, 0], "ok", 0),
        ([12.2, 12.4, 12.3], [0, 0, 0], "worse", 1),  # +20 % against a 10 % bound
        ([8.0, 12.0, 16.0], [0, 0, 0], "unresolved", 0),  # spread wider than the bound
        ([10.2, 10.4, 10.3], [0, 0.01, 0.01], "worse", 1),  # any failure share is worse
    ],
)
def test_compare_verdicts(tmp_path, capsys, monkeypatch, b_p50, b_fail, verdict, code):
    monkeypatch.setattr(
        compare, "COMPARED",
        tuple(
            metrics.Metric(m.name, m.unit, m.better, 0.10 if m.name == "query_p50_ms" else m.bound)
            for m in compare.COMPARED
        ),
    )
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(_doc({"query_p50_ms": [10.0, 10.1, 10.2], "client.fail_share": [0, 0, 0]})))
    b.write_text(json.dumps(_doc({"query_p50_ms": b_p50, "client.fail_share": b_fail})))
    assert compare.compare_files(a, b) == code
    printed = capsys.readouterr().out
    row = "client.fail_share" if any(b_fail) else "query_p50_ms"
    assert any(row in line and f"  {verdict}  (n=" in line for line in printed.splitlines()), printed
