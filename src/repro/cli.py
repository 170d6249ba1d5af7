"""Command-line interface: ``repro-logs`` (or ``python -m repro``).

Subcommands
-----------
* ``query``     — evaluate an incident pattern over a log file (with a
  pre-flight static-diagnostics pass; opt out with ``--no-lint``);
* ``lint``      — static diagnostics for a pattern, optionally against a
  log's vocabulary/statistics and/or a bundled workflow model;
* ``stats``     — descriptive statistics of a log;
* ``validate``  — Definition 2 well-formedness report (optional repair);
* ``generate``  — simulate a workflow model (or synthetic noise) to a log;
* ``anomalies`` — run a bundled anomaly rule-set over a log;
* ``monitor``   — replay a log record by record through the streaming
  evaluator, printing each alert at the record that completes it;
* ``profile``   — evaluate a pattern with tracing enabled and print a
  per-node cost breakdown (predicted vs. actual pairs, hottest node);
  ``--flamegraph out.html`` / ``--folded out.txt`` render the recorded
  span tree as a self-contained HTML flamegraph / folded stacks;
* ``batch``     — evaluate several patterns in one shared-scan pass,
  deduplicating common subpatterns across the queries and skipping the
  scans of queries the prover shows are equivalent to a sibling (opt
  out with ``--no-analyze``; a pre-flight ``lint_batch`` pass reports
  QW501 subsumption findings on stderr, opt out with ``--no-lint``);
* ``analyze``   — the decision procedures of ``repro.analysis``:
  ``--rules`` proves every shipped optimizer rewrite rule
  equivalence-preserving (CI gate), ``--equivalent P Q`` /
  ``--contains P Q`` decide the pair and print a counterexample trace
  on refutation (exit 0 holds, 1 refuted, 2 usage/input error,
  3 internal error);
* ``events``    — query/filter/tail a ``repro.obs.journal/v1`` JSONL
  journal (``--slow-ms`` is the slow-query log view);
* ``top``       — per-pattern resource ranking over a journal;
* ``convert``   — transcode between jsonl / csv / xes.

``query`` and ``batch`` accept ``--journal PATH`` (append the run's
lifecycle events as JSONL) and the resource-governor budgets
``--deadline-ms`` / ``--max-pairs``; a run killed by the governor exits
with the dedicated code **4** (see ``docs/OBSERVABILITY.md``), after
recording a terminal ``killed`` journal event.

Log formats are inferred from file extensions (``.jsonl``, ``.csv``,
``.xes``/``.xml``); ``-`` reads from stdin / writes to stdout as JSONL.
``-v`` / ``-vv`` on the root command routes the ``repro.*`` diagnostic
logging hierarchy to stderr at INFO / DEBUG.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

from repro.analytics.anomaly import clinic_rules, loan_rules, order_rules
from repro.cache import CachePolicy, QueryCache
from repro.core.errors import QueryGovernorError, ReproError
from repro.core.lint import Linter, Severity, format_diagnostics
from repro.core.model import Log
from repro.core.options import EngineOptions
from repro.core.parser import parse, parse_with_spans
from repro.core.query import ENGINES, Query
from repro.generator.synthetic import SyntheticLogConfig, generate_log
from repro.logstore import (
    read_csv,
    read_jsonl,
    read_xes,
    repair_log,
    summarize,
    validation_report,
    write_csv,
    write_jsonl,
    write_xes,
)
from repro.obs import MetricsRegistry, Tracer, enable_verbose, metrics_to_dict, render_trace
from repro.obs.journal import EVENT_KINDS as JOURNAL_EVENT_KINDS
from repro.obs.journal import TOP_KEYS as JOURNAL_TOP_KEYS
from repro.workflow.engine import SimulationConfig, WorkflowEngine
from repro.workflow.models import (
    clinic_referral_workflow,
    loan_approval_workflow,
    order_fulfillment_workflow,
)

__all__ = ["main", "build_parser"]

_MODELS = {
    "clinic": clinic_referral_workflow,
    "order": order_fulfillment_workflow,
    "loan": loan_approval_workflow,
}

_RULESETS = {
    "clinic": clinic_rules,
    "order": order_rules,
    "loan": loan_rules,
}


def _load_log(path: str, *, validate: bool = True) -> Log:
    if path == "-":
        return read_jsonl(sys.stdin, validate=validate)
    suffix = Path(path).suffix.lower()
    if suffix == ".jsonl":
        return read_jsonl(path, validate=validate)
    if suffix == ".csv":
        return read_csv(path, validate=validate)
    if suffix in (".xes", ".xml"):
        return read_xes(path, validate=validate)
    raise ReproError(
        f"cannot infer log format from {path!r}; use .jsonl, .csv or .xes"
    )


def _save_log(log: Log, path: str) -> None:
    if path == "-":
        write_jsonl(log, sys.stdout)
        return
    suffix = Path(path).suffix.lower()
    if suffix == ".jsonl":
        write_jsonl(log, path)
    elif suffix == ".csv":
        write_csv(log, path)
    elif suffix in (".xes", ".xml"):
        write_xes(log, path)
    else:
        raise ReproError(
            f"cannot infer log format from {path!r}; use .jsonl, .csv or .xes"
        )


def _add_governor_arguments(command: argparse.ArgumentParser) -> None:
    """The journal/governor flags shared by ``query`` and ``batch``."""
    command.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="append the run's lifecycle events to this JSONL journal "
        "(repro.obs.journal/v1; inspect with `repro-logs events/top`)",
    )
    command.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="wall-clock budget; a run past it is killed with exit code 4",
    )
    command.add_argument(
        "--max-pairs",
        type=int,
        default=None,
        metavar="N",
        help="budget on pairs examined; a run past it is killed with "
        "exit code 4",
    )


def _add_engine_arguments(
    command: argparse.ArgumentParser,
    *,
    engine_help: str | None,
    optimize_help: str = "skip the query optimizer",
) -> None:
    """The evaluation flags shared by ``query``, ``profile`` and ``batch``
    (``engine_help=None``: no ``--engine``, a batch runs on the kernel)."""
    if engine_help is not None:
        command.add_argument(
            "--engine", choices=sorted(ENGINES), default=None, help=engine_help
        )
    command.add_argument("--no-optimize", action="store_true", help=optimize_help)
    command.add_argument(
        "--max-incidents",
        type=int,
        default=None,
        help="abort if an incident set exceeds this size",
    )


def _engine_options(args: argparse.Namespace) -> EngineOptions:
    """The :class:`EngineOptions` of a ``query``, ``batch`` or ``profile``
    command line; a flag the command does not have keeps its default.
    A ``--journal`` is opened here and closed by the caller."""
    flags = vars(args)
    registry = (
        MetricsRegistry()
        if flags.get("metrics") or flags.get("metrics_format", "json") != "json"
        else None
    )
    cache = None
    if flags.get("cache"):
        policy = CachePolicy()
        if flags.get("cache_bytes") is not None:
            policy = policy.with_budget(flags["cache_bytes"])
        cache = QueryCache(policy, metrics=registry)
    journal = None
    if flags.get("journal") is not None:
        from repro.obs.journal import QueryJournal

        journal = QueryJournal(flags["journal"], metrics=registry)
    return EngineOptions(
        engine=flags.get("engine"),
        optimize=not args.no_optimize,
        max_incidents=args.max_incidents,
        tracer=Tracer() if flags.get("trace") else None,
        metrics=registry,
        cache=cache,
        deadline_ms=flags.get("deadline_ms"),
        max_pairs=flags.get("max_pairs"),
        journal=journal,
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree (exposed for the test-suite)."""
    parser = argparse.ArgumentParser(
        prog="repro-logs",
        description="Incident-pattern queries over workflow logs",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="enable repro.* diagnostics on stderr (-v INFO, -vv DEBUG)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser("query", help="evaluate an incident pattern")
    query.add_argument("--log", required=True, help="log file (.jsonl/.csv/.xes)")
    query.add_argument("--pattern", required=True, help='e.g. "A -> (B | C)"')
    _add_engine_arguments(query, engine_help="engine (default: vectorized)")
    query.add_argument(
        "--mode",
        choices=("incidents", "count", "exists", "instances"),
        default="incidents",
        help="what to print",
    )
    query.add_argument(
        "--limit", type=int, default=20, help="max incidents to print"
    )
    query.add_argument(
        "--explain", action="store_true", help="print the chosen plan"
    )
    query.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the pre-flight static-diagnostics pass",
    )
    query.add_argument(
        "--trace",
        action="store_true",
        help="record and print the per-node evaluation span tree",
    )
    query.add_argument(
        "--metrics",
        action="store_true",
        help="print the engine metrics snapshot after the results",
    )
    query.add_argument(
        "--metrics-format",
        choices=("json", "prom"),
        default="json",
        help="metrics output format: JSON document or Prometheus text "
        "exposition (implies --metrics)",
    )
    query.add_argument(
        "--cache",
        action="store_true",
        help="enable the in-process result cache and report whether "
        "it served the run (see docs/CACHING.md)",
    )
    query.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        metavar="N",
        help="cache byte budget (default 32 MiB)",
    )
    query.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="evaluate N times, timing each run on stderr — with --cache "
        "the warm runs demonstrate the result cache",
    )
    _add_governor_arguments(query)

    profile = commands.add_parser(
        "profile",
        help="per-node cost breakdown: predicted vs. actual pairs, hottest node",
    )
    profile.add_argument("--log", required=True, help="log file (.jsonl/.csv/.xes)")
    profile.add_argument("--pattern", required=True, help='e.g. "A -> (B | C)"')
    _add_engine_arguments(profile, engine_help="engine")
    profile.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    profile.add_argument(
        "--flamegraph",
        metavar="OUT.html",
        default=None,
        help="write the recorded span tree as a self-contained HTML flamegraph",
    )
    profile.add_argument(
        "--folded",
        metavar="OUT.txt",
        default=None,
        help="write the span tree as folded stacks (self time, microseconds)",
    )

    events = commands.add_parser(
        "events", help="query/filter/tail a query-lifecycle journal"
    )
    events.add_argument(
        "--journal", required=True, metavar="PATH", help="JSONL journal file"
    )
    events.add_argument(
        "--query-id", default=None, help="only this query's events"
    )
    events.add_argument(
        "--kind",
        action="append",
        choices=JOURNAL_EVENT_KINDS,
        default=None,
        help="only these event kinds (repeatable)",
    )
    events.add_argument(
        "--pattern",
        default=None,
        help="substring match on the event's pattern field",
    )
    events.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="slow-query log: terminal events at/above this wall time, "
        "slowest first (combines with the other filters)",
    )
    events.add_argument(
        "--tail", type=int, default=None, metavar="N", help="newest N events"
    )
    events.add_argument(
        "--no-validate",
        action="store_true",
        help="skip schema validation while loading",
    )
    events.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )

    top = commands.add_parser(
        "top", help="per-pattern resource ranking over a journal"
    )
    top.add_argument(
        "--journal", required=True, metavar="PATH", help="JSONL journal file"
    )
    top.add_argument(
        "--by",
        choices=JOURNAL_TOP_KEYS,
        default="wall_ms",
        help="ranking key (default wall_ms)",
    )
    top.add_argument(
        "--limit", type=int, default=10, metavar="N", help="rows to print"
    )
    top.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )

    slo = commands.add_parser(
        "slo",
        help="replay a journal through the windowed SLO engine "
        "(same aggregator as the live admin plane)",
    )
    slo.add_argument(
        "--journal", required=True, metavar="PATH", help="JSONL journal file"
    )
    slo.add_argument(
        "--window", type=float, default=300.0, metavar="SECONDS",
        help="trailing stats window to report (default 300)",
    )
    slo.add_argument(
        "--bucket", type=float, default=10.0, metavar="SECONDS",
        help="aggregation bucket width (default 10)",
    )
    slo.add_argument(
        "--fast-window", type=float, default=300.0, metavar="SECONDS",
        help="fast burn-rate window (default 300)",
    )
    slo.add_argument(
        "--slow-window", type=float, default=3600.0, metavar="SECONDS",
        help="slow burn-rate window (default 3600)",
    )
    slo.add_argument(
        "--availability-target", type=float, default=0.999,
        help="availability objective (default 0.999)",
    )
    slo.add_argument(
        "--latency-target", type=float, default=0.95,
        help="latency objective (default 0.95)",
    )
    slo.add_argument(
        "--latency-threshold-ms", type=float, default=500.0, metavar="MS",
        help="latency objective threshold (default 500ms)",
    )
    slo.add_argument(
        "--burn-threshold", type=float, default=1.0,
        help="burn multiple at which an objective breaches (default 1.0)",
    )
    slo.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="rows per attribution table (default 10)",
    )
    slo.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )

    batch = commands.add_parser(
        "batch",
        help="evaluate several patterns in one shared-scan pass",
    )
    batch.add_argument("--log", required=True, help="log file (.jsonl/.csv/.xes)")
    batch.add_argument(
        "patterns",
        nargs="*",
        metavar="PATTERN",
        help='patterns, e.g. "A -> B" "A -> B -> C"',
    )
    batch.add_argument(
        "--queries",
        metavar="FILE",
        default=None,
        help="file with one pattern per line (# comments allowed; - for stdin)",
    )
    _add_engine_arguments(
        batch,
        engine_help=None,
        optimize_help="skip rule-based canonicalisation (reduces subpattern sharing)",
    )
    batch.add_argument(
        "--no-analyze",
        action="store_true",
        help="skip the subsumption prover pass (every query scans the log "
        "independently)",
    )
    batch.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the pre-flight lint_batch pass (QW501 subsumption "
        "findings on stderr)",
    )
    batch.add_argument(
        "--cache",
        action="store_true",
        help="serve repeated patterns from the result cache",
    )
    _add_governor_arguments(batch)

    analyze = commands.add_parser(
        "analyze",
        help="decision procedures: rewrite-rule soundness, pattern "
        "equivalence and containment (repro.analysis)",
    )
    analyze.add_argument(
        "--rules",
        action="store_true",
        help="prove every shipped optimizer rewrite rule "
        "equivalence-preserving over the standard corpus",
    )
    analyze.add_argument(
        "--equivalent",
        nargs=2,
        metavar=("P", "Q"),
        default=None,
        help="decide P ≡ Q; prints a counterexample trace on refutation",
    )
    analyze.add_argument(
        "--contains",
        nargs=2,
        metavar=("P", "Q"),
        default=None,
        help="decide P ⊑ Q (every incident of P is an incident of Q); "
        "prints a counterexample trace on refutation",
    )
    analyze.add_argument(
        "--max-states",
        type=int,
        default=None,
        help="prover automaton state budget (default 20000)",
    )
    analyze.add_argument(
        "--samples",
        type=int,
        default=40,
        help="random corpus patterns per rule for --rules (default 40)",
    )

    lint = commands.add_parser(
        "lint", help="static diagnostics for a pattern (no evaluation)"
    )
    lint.add_argument("pattern", help='e.g. "A -> (B | C)"')
    lint.add_argument(
        "--log", help="check against this log's vocabulary and statistics"
    )
    lint.add_argument(
        "--model",
        choices=sorted(_MODELS),
        help="check against a bundled workflow model's control flow",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    lint.add_argument(
        "--cost-threshold",
        type=float,
        default=1e7,
        help="estimated plan cost above which QW401 fires",
    )

    stats = commands.add_parser("stats", help="log statistics")
    stats.add_argument("--log", required=True)

    validate = commands.add_parser("validate", help="well-formedness report")
    validate.add_argument("--log", required=True)
    validate.add_argument(
        "--repair", metavar="OUT", help="write a repaired log to OUT"
    )

    generate = commands.add_parser("generate", help="simulate a workflow model")
    generate.add_argument(
        "--model",
        choices=(*sorted(_MODELS), "synthetic"),
        default="clinic",
    )
    generate.add_argument("--instances", type=int, default=20)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--stagger", type=int, default=0,
                          help="steps between instance launches")
    generate.add_argument("--out", required=True, help="output file or -")

    anomalies = commands.add_parser("anomalies", help="run anomaly rules")
    anomalies.add_argument("--log", required=True)
    anomalies.add_argument(
        "--rules", choices=sorted(_RULESETS), default="clinic"
    )

    monitor = commands.add_parser(
        "monitor", help="stream a log through the live rule monitor"
    )
    monitor.add_argument("--log", required=True)
    monitor.add_argument(
        "--rules", choices=sorted(_RULESETS), default="clinic"
    )
    monitor.add_argument(
        "--quiet", action="store_true",
        help="print only the final per-rule summary",
    )

    show = commands.add_parser(
        "show", help="render a log (table, instance timeline, swimlanes, dot)"
    )
    show.add_argument("--log", required=True)
    show.add_argument(
        "--view",
        choices=("table", "instance", "swimlanes", "dot"),
        default="table",
    )
    show.add_argument("--wid", type=int, default=None,
                      help="instance id (view=instance)")
    show.add_argument("--pattern", default=None,
                      help="highlight this pattern's incidents (view=instance)")
    show.add_argument("--limit", type=int, default=25,
                      help="rows to print (view=table)")
    show.add_argument("--attrs", action="store_true",
                      help="include attribute maps (view=table)")

    convert = commands.add_parser("convert", help="transcode a log file")
    convert.add_argument("--src", dest="source", required=True)
    convert.add_argument("--dst", dest="target", required=True)

    serve = commands.add_parser(
        "serve", help="run the HTTP query daemon (see docs/SERVICE.md)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port; 0 binds an ephemeral port")
    serve.add_argument(
        "--catalog",
        help="catalog source: a .json/.toml config or a directory of log files",
    )
    serve.add_argument(
        "--store", action="append", default=[], metavar="NAME=PATH",
        help="add one named log file to the catalog (repeatable)",
    )
    serve.add_argument("--max-concurrency", type=int, default=8,
                       help="queries evaluating at once")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="requests allowed to wait for a slot")
    serve.add_argument("--queue-timeout-ms", type=float, default=10_000.0,
                       help="longest a request waits in the queue")
    serve.add_argument("--deadline-ms-ceiling", type=float, default=30_000.0,
                       help="per-request wall-clock budget ceiling")
    serve.add_argument("--max-pairs-ceiling", type=int, default=50_000_000,
                       help="per-request pairs-examined budget ceiling")
    serve.add_argument("--cache-bytes", type=int, default=None,
                       help="byte budget of the shared query cache")
    serve.add_argument("--journal", default=None, metavar="PATH",
                       help="append query lifecycle events to this JSONL file")
    serve.add_argument("--access-log", action="store_true",
                       help="emit one structured JSON access-log line per "
                       "request on the repro.service.access logger")

    return parser


def _cmd_lint(args: argparse.Namespace) -> int:
    # Exit codes (documented in docs/QUERY_LANGUAGE.md §6): 0 clean or
    # warnings/info only, 1 error-severity diagnostics, 2 usage/input
    # error (syntax, unreadable log), 3 internal linter failure — so a
    # pipeline can tell "the query is bad" from "the linter is broken".
    parsed = parse_with_spans(args.pattern)
    linter = Linter.for_context(
        log=_load_log(args.log) if args.log else None,
        spec=_MODELS[args.model]() if args.model else None,
        cost_threshold=args.cost_threshold,
    )
    try:
        diagnostics = linter.lint(parsed)
        if args.format == "json":
            print(json.dumps([d.to_dict() for d in diagnostics], indent=2))
        else:
            print(format_diagnostics(diagnostics, parsed.text))
    except ReproError:
        raise  # usage/input error: main() maps it to exit code 2
    except Exception as exc:  # noqa: BLE001 - the distinct-code contract
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    return 1 if any(d.severity == Severity.ERROR for d in diagnostics) else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import PatternProver, default_prover, verify_rules

    chosen = sum(
        1 for flag in (args.rules, args.equivalent, args.contains) if flag
    )
    if chosen != 1:
        raise ReproError(
            "choose exactly one of --rules, --equivalent P Q, --contains P Q"
        )
    prover = (
        PatternProver(max_states=args.max_states)
        if args.max_states is not None
        else default_prover()
    )
    try:
        if args.rules:
            report = verify_rules(samples=args.samples, prover=prover)
            print(report.format())
            return 0 if report.ok else 1
        if args.equivalent:
            p, q = (parse(text) for text in args.equivalent)
            counterexample = prover.witness(p, q)
            if counterexample is None:
                print("equivalent")
                return 0
            print("not equivalent")
            print(counterexample.format())
            return 1
        p, q = (parse(text) for text in args.contains)
        refutation = prover.containment_witness(p, q)
        if refutation is None:
            print("contained: every incident of P is an incident of Q")
            return 0
        print("not contained")
        print(refutation.format())
        return 1
    except ReproError:
        raise  # includes AnalysisError: budget/unsupported → exit code 2
    except Exception as exc:  # noqa: BLE001 - mirror lint's contract
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def _cmd_query(args: argparse.Namespace) -> int:
    log = _load_log(args.log)
    parsed = parse_with_spans(args.pattern)
    if not args.no_lint:
        # pre-flight warning pass: report, never block evaluation
        diagnostics = Linter.for_log(log).lint(parsed)
        for diagnostic in diagnostics:
            print(diagnostic.format(parsed.text), file=sys.stderr)
    options = _engine_options(args)
    tracer, registry, journal = options.tracer, options.metrics, options.journal
    query = Query(parsed.pattern, options)
    if args.explain:
        print(query.explain(log))
        print()

    try:
        # warm-up repeats (timed on stderr); the final run produces the output
        runs = max(1, args.repeat)
        for attempt in range(1, runs):
            started = time.perf_counter()
            query.run(log)
            elapsed_ms = (time.perf_counter() - started) * 1e3
            layer = query.last_cache_layer or "none"
            print(
                f"run {attempt}/{runs}: {elapsed_ms:.2f} ms  (cache: {layer})",
                file=sys.stderr,
            )

        started = time.perf_counter()
        if args.mode == "exists":
            print("yes" if query.exists(log) else "no")
        elif args.mode == "count":
            print(query.count(log))
        elif args.mode == "instances":
            print(" ".join(map(str, query.matching_instances(log))))
        else:
            incidents = query.run(log)
            print(f"{len(incidents)} incident(s)")
            for i, incident in enumerate(incidents):
                if i >= args.limit:
                    print(f"... ({len(incidents) - args.limit} more)")
                    break
                members = ", ".join(
                    f"l{r.lsn}:{r.activity}@{r.is_lsn}" for r in incident
                )
                print(f"  wid={incident.wid}  {{{members}}}")
        if runs > 1:
            elapsed_ms = (time.perf_counter() - started) * 1e3
            layer = query.last_cache_layer or "none"
            print(
                f"run {runs}/{runs}: {elapsed_ms:.2f} ms  (cache: {layer})",
                file=sys.stderr,
            )
    finally:
        # the journal owns its stream: close even on a governor kill so
        # the terminal `killed` event is flushed to disk
        if journal is not None:
            journal.close()
    if query.cache is not None:
        print(f"cache: served by {query.last_cache_layer or 'none (cold)'}")
    if tracer is not None:
        print()
        print("trace:")
        if tracer.last_root is None:
            print("  (no span tree recorded for this mode/engine path)")
        else:
            print(render_trace(tracer.last_root))
            stats = query.engine.last_stats
            if stats is not None:
                print(
                    f"pairs examined: {int(tracer.last_root.total('pairs'))} "
                    f"traced / {stats.pairs_examined} counted"
                )
    if registry is not None:
        print()
        print("metrics:")
        if args.metrics_format == "prom":
            print(registry.to_prometheus(), end="")
        else:
            print(json.dumps(metrics_to_dict(registry), indent=2, ensure_ascii=False))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import profile_query

    log = _load_log(args.log)
    report = profile_query(log, args.pattern, _engine_options(args))
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, ensure_ascii=False))
    else:
        print(report.format())
    if args.flamegraph:
        from repro.obs.flamegraph import flamegraph_html

        title = f"{report.pattern_text}  (engine={report.engine})"
        Path(args.flamegraph).write_text(
            flamegraph_html(report.trace, title=title), encoding="utf-8"
        )
        print(f"flamegraph written to {args.flamegraph}", file=sys.stderr)
    if args.folded:
        from repro.obs.flamegraph import folded_stacks

        Path(args.folded).write_text(folded_stacks(report.trace), encoding="utf-8")
        print(f"folded stacks written to {args.folded}", file=sys.stderr)
    return 0


def _read_query_file(path: str) -> list[str]:
    """Patterns from a query file: one per line, ``#`` comments, blank
    lines ignored."""
    text = sys.stdin.read() if path == "-" else Path(path).read_text("utf-8")
    patterns = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            patterns.append(line)
    return patterns


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.exec.batch import evaluate_batch

    patterns = list(args.patterns)
    if args.queries:
        patterns.extend(_read_query_file(args.queries))
    if not patterns:
        raise ReproError("no patterns given (positional or --queries FILE)")
    log = _load_log(args.log)
    if not args.no_lint:
        # pre-flight pass on stderr (stdout carries only results): per-
        # query diagnostics plus proved QW501 cross-query subsumption
        from repro.core.lint import lint_batch

        for text, diagnostics in zip(patterns, lint_batch(patterns, log=log)):
            for diagnostic in diagnostics:
                print(f"{text}: {diagnostic.format()}", file=sys.stderr)
    options = _engine_options(args)
    try:
        result = evaluate_batch(log, patterns, options, analyze=not args.no_analyze)
    finally:
        if options.journal is not None:
            options.journal.close()
    for text, incidents in zip(patterns, result.results):
        print(f"{len(incidents):6d}  {text}")
    summary = (
        f"--- {len(patterns)} query(ies), {result.stats.pairs_examined} pairs "
        f"examined, {result.shared_hits} shared subpattern hit(s), "
        f"{result.subsumed} subsumed"
    )
    if args.cache:
        summary += f", {result.cache_hits} cached result(s)"
    print(summary + " ---")
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    from repro.obs.export import SchemaError
    from repro.obs.journal import filter_events, read_journal, slow_queries

    try:
        events = read_journal(args.journal, validate=not args.no_validate)
    except FileNotFoundError:
        raise ReproError(f"no journal at {args.journal!r}") from None
    except SchemaError as exc:
        raise ReproError(f"{args.journal}: {exc}") from None
    selected = filter_events(
        events,
        query_id=args.query_id,
        kinds=args.kind,
        pattern=args.pattern,
    )
    if args.slow_ms is not None:
        selected = slow_queries(selected, threshold_ms=args.slow_ms)
    if args.tail is not None and args.tail >= 0:
        selected = selected[len(selected) - args.tail:]
    if args.format == "json":
        print(json.dumps(selected, indent=2, ensure_ascii=False))
        return 0
    for event in selected:
        extra = ""
        kind = event.get("event")
        if kind == "submit":
            extra = f"op={event.get('op')} pattern={event.get('pattern')!r}"
        elif kind == "shard":  # journals written before the fan-out was deleted
            extra = (
                f"shards={event.get('shards')} backend={event.get('backend')} "
                f"jobs={event.get('jobs')}"
            )
        elif kind in ("finish", "killed"):
            extra = (
                f"wall={event.get('wall_ms', 0):.2f}ms "
                f"pairs={event.get('pairs')} pattern={event.get('pattern')!r}"
            )
            if kind == "killed":
                extra = f"reason={event.get('reason')} " + extra
        print(f"{event.get('seq', '?'):>5}  {event.get('query_id')}  "
              f"{str(kind):8s} {extra}")
    print(f"--- {len(selected)} of {len(events)} event(s) ---")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.export import SchemaError
    from repro.obs.journal import read_journal, top_patterns

    try:
        events = read_journal(args.journal, validate=False)
    except FileNotFoundError:
        raise ReproError(f"no journal at {args.journal!r}") from None
    except SchemaError as exc:
        raise ReproError(f"{args.journal}: {exc}") from None
    rows = top_patterns(events, by=args.by, limit=args.limit)
    if args.format == "json":
        print(json.dumps(rows, indent=2, ensure_ascii=False))
        return 0
    header = (
        f"{'runs':>5} {'killed':>6} {'wall_ms':>10} {'cpu_ms':>10} "
        f"{'pairs':>10} {'peak_bytes':>11}  pattern"
    )
    print(header)
    for row in rows:
        print(
            f"{row['runs']:>5} {row['killed']:>6} {row['wall_ms']:>10.2f} "
            f"{row['cpu_ms']:>10.2f} {row['pairs']:>10} "
            f"{row['peak_alloc_bytes']:>11}  {row['pattern']}"
        )
    print(f"--- {len(rows)} pattern(s), ranked by {args.by} ---")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    print(summarize(_load_log(args.log)).format())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    log = _load_log(args.log, validate=False)
    issues = validation_report(log.records)
    if not issues:
        print("log is well-formed (Definition 2)")
        return 0
    for issue in issues:
        print(str(issue))
    if args.repair:
        repaired, dropped = repair_log(log.records)
        _save_log(repaired, args.repair)
        print(
            f"repaired log written to {args.repair} "
            f"({len(dropped)} record(s) dropped)"
        )
        return 0
    return 1


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.model == "synthetic":
        log = generate_log(
            SyntheticLogConfig(instances=args.instances, seed=args.seed)
        )
    else:
        engine = WorkflowEngine(_MODELS[args.model]())
        log = engine.run(
            SimulationConfig(
                instances=args.instances,
                seed=args.seed,
                arrival_stagger=args.stagger,
            )
        )
    _save_log(log, args.out)
    if args.out != "-":
        print(f"wrote {len(log)} records / {len(log.wids)} instances to {args.out}")
    return 0


def _cmd_anomalies(args: argparse.Namespace) -> int:
    log = _load_log(args.log)
    report = _RULESETS[args.rules]().run(log)
    print(report.format())
    return 1 if report else 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.analytics.monitor import LiveMonitor

    log = _load_log(args.log)
    monitor = LiveMonitor(_RULESETS[args.rules]())
    for record in log:
        for alert in monitor.observe(record):
            if not args.quiet:
                print(alert.format())
    offending = monitor.offending_instances()
    print(f"--- {len(monitor.alerts)} alert(s) over {len(log)} records ---")
    for name, wids in sorted(offending.items()):
        shown = ", ".join(map(str, wids[:10]))
        print(f"  {name}: instances {shown}"
              + (f" (+{len(wids) - 10} more)" if len(wids) > 10 else ""))
    return 1 if monitor.alerts else 0


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.logstore.render import (
        dfg_to_dot,
        render_instance,
        render_log_table,
        render_swimlanes,
    )

    log = _load_log(args.log)
    if args.view == "table":
        print(render_log_table(log, limit=args.limit,
                               with_attributes=args.attrs))
    elif args.view == "swimlanes":
        print(render_swimlanes(log))
    elif args.view == "dot":
        print(dfg_to_dot(log), end="")
    else:
        wid = args.wid if args.wid is not None else log.wids[0]
        incidents = ()
        if args.pattern:
            incidents = Query(parse(args.pattern)).run(log)
        print(f"instance {wid}:")
        print(render_instance(log, wid, incidents=incidents))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    _save_log(_load_log(args.source), args.target)
    if args.target != "-":
        print(f"converted {args.source} -> {args.target}")
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.obs.export import SchemaError
    from repro.obs.journal import read_journal
    from repro.obs.live import SloEngine, SloPolicy, WindowedAggregator

    try:
        events = read_journal(args.journal, validate=False)
    except FileNotFoundError:
        raise ReproError(f"no journal at {args.journal!r}") from None
    except SchemaError as exc:
        raise ReproError(f"{args.journal}: {exc}") from None

    # the ring must span every window we are asked to answer
    span = max(args.window, args.slow_window, args.fast_window, args.bucket)
    aggregator = WindowedAggregator(bucket_s=args.bucket, window_s=span)
    ingested = aggregator.replay(events)
    if ingested == 0:
        raise ReproError(
            f"{args.journal}: no terminal (finish/killed) events to replay"
        )
    # report "as of" the newest terminal event, not wall-clock now — a
    # replay of last week's journal should see last week's traffic
    last_ts = max(
        float(event["ts_unix"])
        for event in events
        if event.get("event") in ("finish", "killed")
        and isinstance(event.get("ts_unix"), (int, float))
    )
    policy = SloPolicy.default(
        availability_target=args.availability_target,
        latency_target=args.latency_target,
        latency_threshold_s=args.latency_threshold_ms / 1000.0,
        fast_window_s=args.fast_window,
        slow_window_s=args.slow_window,
        burn_threshold=args.burn_threshold,
    )
    stats = aggregator.window(args.window, now=last_ts).report(top=args.top)
    slo = SloEngine(policy, aggregator).report(now=last_ts)
    if args.format == "json":
        print(
            json.dumps(
                {"replayed": ingested, "stats": stats, "slo": slo},
                indent=2,
                ensure_ascii=False,
            )
        )
        return 0

    latency = stats["latency"]
    print(
        f"replayed {ingested} terminal event(s); trailing {args.window:g}s "
        f"window as of the newest event:"
    )
    print(
        f"  requests {stats['requests']}  errors {stats['errors']}  "
        f"killed {stats['killed']}  error_ratio {stats['error_ratio']:.4f}"
    )
    print(
        f"  latency p50 {latency['p50_s'] * 1000:.1f}ms  "
        f"p95 {latency['p95_s'] * 1000:.1f}ms  "
        f"p99 {latency['p99_s'] * 1000:.1f}ms"
    )
    for title, rows_key in (("route", "routes"), ("store", "stores"),
                            ("pattern", "patterns")):
        rows = stats[rows_key]
        if not rows:
            continue
        print(f"  by {title}:")
        for row in rows:
            print(
                f"    {row['count']:>6}  err {row['errors']:>4}  "
                f"p95 {row['p95_s'] * 1000:>8.1f}ms  {row['key']}"
            )
    print(
        f"slo (burn threshold {slo['burn_threshold']:g}x, fast "
        f"{slo['fast_window_s']:g}s / slow {slo['slow_window_s']:g}s):"
    )
    for row in slo["objectives"]:
        state = "BREACH" if row["breach"] else "ok"
        print(
            f"  {row['name']:<14} target {row['target']:.4f}  "
            f"burn fast {row['burn_fast']:>8.2f}x  "
            f"slow {row['burn_slow']:>8.2f}x  "
            f"budget left {row['budget_remaining'] * 100:>6.1f}%  {state}"
        )
    if slo["breaching"]:
        print(f"--- breaching: {', '.join(slo['breaching'])} ---")
        return 1
    print("--- all objectives within budget ---")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.journal import QueryJournal
    from repro.service import QueryService, ServiceConfig, StoreCatalog
    from repro.service import serve as serve_daemon

    if not args.catalog and not args.store:
        raise ReproError("serve needs --catalog and/or at least one --store")

    registry = MetricsRegistry()
    if args.catalog:
        source = Path(args.catalog)
        if source.is_dir():
            catalog = StoreCatalog.from_directory(source, metrics=registry)
        else:
            catalog = StoreCatalog.from_config(source, metrics=registry)
    else:
        catalog = StoreCatalog(metrics=registry)
    for entry in args.store:
        name, separator, path = entry.partition("=")
        if not separator or not name or not path:
            raise ReproError(f"--store expects NAME=PATH, got {entry!r}")
        catalog.add_file(name, path)

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        queue_depth=args.queue_depth,
        queue_timeout_ms=args.queue_timeout_ms,
        deadline_ms_ceiling=args.deadline_ms_ceiling,
        max_pairs_ceiling=args.max_pairs_ceiling,
        cache_bytes=args.cache_bytes,
        access_log=args.access_log,
    )
    if args.access_log:
        # access lines ride the repro.* logging hierarchy; make sure they
        # reach stderr even without -v
        logging.getLogger("repro.service.access").setLevel(logging.INFO)
        if args.verbose == 0:
            handler = logging.StreamHandler(sys.stderr)
            handler.setFormatter(logging.Formatter("%(message)s"))
            logging.getLogger("repro.service.access").addHandler(handler)
    journal = (
        QueryJournal(args.journal, metrics=registry, memory=False)
        if args.journal
        else None
    )
    service = QueryService(catalog, config, metrics=registry, journal=journal)
    # announce on stdout so scripts (and the CI smoke job) can scrape the
    # bound address even when --port 0 picked an ephemeral port
    return serve_daemon(
        service, announce=lambda url: print(f"listening on {url}", flush=True)
    )


_HANDLERS = {
    "query": _cmd_query,
    "profile": _cmd_profile,
    "batch": _cmd_batch,
    "events": _cmd_events,
    "top": _cmd_top,
    "slo": _cmd_slo,
    "lint": _cmd_lint,
    "analyze": _cmd_analyze,
    "stats": _cmd_stats,
    "validate": _cmd_validate,
    "generate": _cmd_generate,
    "anomalies": _cmd_anomalies,
    "monitor": _cmd_monitor,
    "show": _cmd_show,
    "convert": _cmd_convert,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    enable_verbose(args.verbose)
    try:
        return _HANDLERS[args.command](args)
    except QueryGovernorError as exc:
        # the resource governor killed the run: dedicated exit code so
        # pipelines can tell "over budget" from "bad input" (code 2)
        print(f"killed: {exc}", file=sys.stderr)
        return 4
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`)
        return 0


if __name__ == "__main__":
    sys.exit(main())
