"""Command line: ``run`` (full report), ``compare`` and the one-workload
entry point that ``BENCHMARK.json`` names (:func:`driver_main`)."""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from .metrics import BY_NAME, END_TO_END, PER_LAYER, median

ROOT = Path(__file__).resolve().parents[2]
SCRATCH = ROOT / ".bench_e2e"  # everything a run writes, inside the checkout
SCHEMA = "benchmarks.e2e/v1"
DEFAULT_SECONDS = 12
QUICK_SECONDS = 3
#: Daemons started (and warmed) per driver run; ``setup_s`` takes the median.
DRIVER_SETUPS = 3
EXIT_ORACLE = 3


def _bootstrap() -> None:
    """Make ``repro`` importable from the checkout's own ``src/``; a tree
    without the program is an error, not something to work around."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _on_sigterm)


def _on_sigterm(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)  # unwinds through the daemon/tempdir clean-up


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@contextmanager
def _workdir() -> Iterator[Path]:
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=SCRATCH) as tmp:
        yield Path(tmp)


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _fingerprint() -> dict | None:
    try:
        from repro.obs.bench import machine_fingerprint

        return machine_fingerprint()
    except Exception as exc:  # a later PR may move it; the run goes on
        _log(f"machine_fingerprint unavailable: {exc!r}")
        return None


class Session:
    """One invocation's shared inputs: the store, its log and the oracles."""

    def __init__(self, seed: int, instances: int, workdir: Path) -> None:
        from repro.logstore import read_jsonl

        from .store import generate

        self.workdir = workdir
        self.store = generate(seed, instances, workdir / "clinic.jsonl")
        started = time.perf_counter()
        self.log = read_jsonl(self.store.path)
        self.read_s = time.perf_counter() - started
        self._oracles: dict = {}
        _log(
            f"store: seed {seed}, {self.store.instances} instances, "
            f"{self.store.records} records, generated in {self.store.generate_s:.2f} s"
        )

    def oracle(self, workload):
        """The workload's oracle and the set-up time it shares with the
        store: generation + reading it back + ``NaiveEngine`` answers."""
        from .workloads import Oracle

        if workload.pool not in self._oracles:
            started = time.perf_counter()
            oracle = Oracle(self.log, workload.pool)
            self._oracles[workload.pool] = (oracle, time.perf_counter() - started)
        oracle, oracle_s = self._oracles[workload.pool]
        return oracle, self.store.generate_s + self.read_s + oracle_s

    def measure(self, workload, seconds: float, setups: int) -> dict:
        from .measure import run_workload

        oracle, shared_s = self.oracle(workload)
        return run_workload(
            workload,
            self.store,
            oracle,
            root=ROOT,
            workdir=self.workdir,
            seconds=seconds,
            shared_setup_s=shared_s,
            setups=setups,
        )

    def trace(self, workload) -> dict:
        from .trace import null_layers, trace_workload

        try:
            return trace_workload(workload, self.store, self.oracle(workload)[0])
        except Exception as exc:  # layer numbers degrade, end-to-end ones never do
            _log(f"trace of {workload.name} failed: {exc!r}")
            return null_layers(repr(exc))


def _write_spans(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for row in rows:
            out.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# run: every workload, every metric, one result file
# ---------------------------------------------------------------------------


def _medians(runs: list[dict], section: str) -> dict[str, float]:
    return {name: median([run[section][name] for run in runs]) for name in runs[0][section]}


def _report(doc: dict) -> None:
    meta = doc["meta"]
    print(
        f"benchmarks.e2e  seed {meta['seed']}  store {meta['instances']} instances / "
        f"{meta['records']} records  window {meta['seconds']} s x {meta['repeat']} run(s)  "
        f"closed loop"
    )
    for name, entry in doc["workloads"].items():
        runs = entry["runs"]
        samples = {
            kind: sum(run["samples"][kind] for run in runs) for kind in runs[0]["samples"]
        }
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        print(f"\n== {name}: {entry['connections']} connection(s) ==")
        print(f"   {entry['why']}")
        counts = {
            "query_p50_ms": samples["query"],
            "client.query_p95_ms": samples["query"],
            "client.query_p99_ms": samples["query"],
            "client.append_p50_ms": samples["append"],
            "client.query_after_append_p50_ms": samples["query_after_append"],
        }
        rows = {
            **_medians(runs, "end_to_end"),
            **_medians(runs, "layers"),
            **entry.get("trace", {}).get("layers", {}),
        }
        for metric, value in rows.items():
            shown = "null" if value is None else f"{value:14.4f}"
            note = f"  n={counts[metric]}" if metric in counts else ""
            if metric == "client.fail_share":
                note = f"  {failed} of {attempted}"
            print(f"   {metric:36s} {shown:>14s} {BY_NAME[metric].unit:6s}{note}")
        for probe, reason in entry.get("trace", {}).get("missing", {}).items():
            print(f"   probe {probe}: null because {reason}")


def cmd_run(args: argparse.Namespace) -> int:
    from .measure import OracleMismatch
    from .store import FULL_INSTANCES, QUICK_INSTANCES
    from .workloads import WORKLOADS

    instances = QUICK_INSTANCES if args.quick else FULL_INSTANCES
    seconds = args.seconds or (QUICK_SECONDS if args.quick else DEFAULT_SECONDS)
    names = args.workload or list(WORKLOADS)
    out = Path(args.out)
    spans: list[dict] = []
    workloads: dict[str, dict] = {}
    started_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    try:
        with _workdir() as workdir:
            session = Session(args.seed, instances, workdir)
            for name in names:
                workload = WORKLOADS[name]
                runs = []
                for index in range(args.repeat):
                    _log(f"{name}: run {index + 1} of {args.repeat} ({seconds} s)")
                    runs.append(session.measure(workload, seconds, setups=1))
                entry = {
                    "why": workload.why,
                    "connections": workload.connections,
                    "runs": runs,
                }
                if not args.no_trace:
                    _log(f"{name}: traced replay")
                    traced = session.trace(workload)
                    spans += [{"workload": name, **span} for span in traced.pop("spans")]
                    entry["trace"] = traced
                workloads[name] = entry
            store = session.store
    except OracleMismatch as exc:
        _log(f"oracle mismatch: {exc}")
        return EXIT_ORACLE
    doc = {
        "schema": SCHEMA,
        "meta": {
            "seed": args.seed,
            "git_commit": _git_commit(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "seconds": seconds,
            "repeat": args.repeat,
            "quick": args.quick,
            "instances": store.instances,
            "records": store.records,
            "started_utc": started_utc,
            "fingerprint": _fingerprint(),
        },
        "workloads": workloads,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if spans:
        _write_spans(out.with_suffix(".spans.jsonl"), spans)
    _report(doc)
    _log(f"\nwrote {out}")
    failed = sum(run["failed"] for entry in workloads.values() for run in entry["runs"])
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure every workload and print every metric")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=int, default=None,
                     help=f"measured window per run (default {DEFAULT_SECONDS})")
    run.add_argument("--repeat", type=int, default=3,
                     help="fresh-daemon runs per workload (compare needs >= 2 for a spread)")
    run.add_argument("--quick", action="store_true",
                     help=f"smoke size: small store, {QUICK_SECONDS} s windows")
    run.add_argument("--workload", action="append", help="only this workload (repeatable)")
    run.add_argument("--no-trace", action="store_true", help="skip the per-layer replay")
    run.add_argument("--out", default="BENCH_e2e.json", help="result file")
    compare = commands.add_parser("compare", help="compare two result files")
    compare.add_argument("a")
    compare.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "compare":
        from .compare import compare_files

        return compare_files(Path(args.a), Path(args.b))
    _bootstrap()
    return cmd_run(args)


# ---------------------------------------------------------------------------
# the entry point BENCHMARK.json names: one workload, one JSON line
# ---------------------------------------------------------------------------


def driver_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    _bootstrap()

    from .measure import OracleMismatch
    from .store import FULL_INSTANCES
    from .workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    try:
        with _workdir() as workdir:
            session = Session(args.seed, FULL_INSTANCES, workdir)
            if args.trace:
                run = session.measure(workload, args.seconds, setups=1)
                traced = session.trace(workload)
                values = {**run["layers"], **traced["layers"]}
                table = PER_LAYER
                _write_spans(
                    SCRATCH / f"spans-{workload.name}-{args.seed}.jsonl", traced["spans"]
                )
            else:
                run = session.measure(workload, args.seconds, setups=DRIVER_SETUPS)
                values = run["end_to_end"]
                table = END_TO_END
    except OracleMismatch as exc:
        _log(f"oracle mismatch: {exc}")
        return EXIT_ORACLE
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {
                    m.name: {"value": values[m.name], "unit": m.unit} for m in table
                },
            }
        )
    )
    return 0
