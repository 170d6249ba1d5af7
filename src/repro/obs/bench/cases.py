"""The standard benchmark cases: the ad-hoc ``benchmarks/bench_*.py``
scenarios as named, parameterised registry entries.

Every workload is built from a fixed seed (workflow simulation) or a
fixed literal trace shape, so two runs of the same case measure the
same work — the precondition for history and baseline comparison.  Case
names are hierarchical: ``<scenario>.<variant>``, where the scenario
matches the originating bench module:

* ``operators.*``    — Lemma 1 per-operator pairwise evaluation;
* ``scaling.*``      — Section 3.2 index vs scan behaviour;
* ``kernel.*``       — what the join kernel's result costs before anyone
  iterates it (``spans_only`` also fails if an ``Incident`` is built);
* ``optimizer.*``    — Theorems 2-5 plan quality and planning overhead;
* ``batch.*``        — shared-scan multi-query evaluation, including the
  subsumption-planned variant (PR 6);
* ``analysis.*``     — containment-prover compile + decide cost;
* ``incremental.*``  — streaming maintenance vs batch re-evaluation;
* ``cache.*``        — cold vs warm runs through the query cache;
* ``journal.*``      — lifecycle journal off / events-only / with the
  tracemalloc peak-allocation probe (PR 7);
* ``service.*``      — the HTTP daemon driven in-process through
  ``QueryService.dispatch``: warm-cache query latency and saturation
  shedding under a full worker pool (PR 8);
* ``reply.*``        — what a fat ``mode: incidents`` reply costs once
  its result is cached (``rows_json`` also fails if the body is not the
  one the row dicts give, or if a row dict is built);
* ``live.*``         — what a running store costs: the windowed telemetry
  hot path, and the first cached run after an append batch
  (``delta_append`` also fails if the columns are rebuilt or more than
  the appended instance is joined).

The ``smoke`` suite is the cheap CI subset (sub-second per case on any
host); ``full`` adds the larger sweeps.  Import cost: this module pulls
in the whole evaluation stack, so the registry loads it lazily via
:func:`repro.obs.bench.registry.default_registry`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.eval.incremental import IncrementalEvaluator
from repro.core.eval.naive import (
    choice_eval,
    consecutive_eval,
    parallel_eval,
    sequential_eval,
)
from repro.core.errors import ReproError
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.incident import Incident
from repro.core.model import Log
from repro.core.optimizer import Optimizer
from repro.core.parser import parse
from repro.obs.bench.registry import BenchRegistry

__all__ = ["register_standard_cases", "operand_sets", "clinic_log", "skewed_log"]

_OPERATORS: dict[str, Callable[..., Any]] = {
    "consecutive": consecutive_eval,
    "sequential": sequential_eval,
    "choice": choice_eval,
    "parallel": parallel_eval,
}


def operand_sets(n: int) -> tuple[list[Incident], list[Incident]]:
    """Two atomic incident lists of size ``n`` over one instance — As
    then Bs, so pairwise operators produce their full quadratic output
    (the Lemma 1 workload of ``benchmarks/bench_operators.py``)."""
    log = Log.from_traces([["A"] * n + ["B"] * n])
    a = [Incident([r]) for r in log.with_activity("A")]
    b = [Incident([r]) for r in log.with_activity("B")]
    return a, b


def _calls(owner: type, name: str, body: Callable[[], Any]) -> int:
    """How many times one call of ``body`` enters ``owner.name``."""
    entered = 0
    method = getattr(owner, name)

    def counting(*args: Any, **kwargs: Any) -> Any:
        nonlocal entered
        entered += 1
        return method(*args, **kwargs)

    setattr(owner, name, counting)
    try:
        body()
    finally:
        setattr(owner, name, method)
    return entered


def clinic_log(instances: int, seed: int = 1) -> Log:
    """A simulated clinic-referral log (the shared realistic workload)."""
    from repro.workflow.engine import SimulationConfig, WorkflowEngine
    from repro.workflow.models import clinic_referral_workflow

    engine = WorkflowEngine(clinic_referral_workflow())
    return engine.run(SimulationConfig(instances=instances, seed=seed))


def skewed_log(instances: int = 60, hot: int = 20) -> Log:
    """One rare activity ahead of a hot burst — the optimizer's best
    case (``benchmarks/bench_optimizer.py``)."""
    traces = {}
    for wid in range(1, instances + 1):
        traces[wid] = (["R"] if wid == 1 else []) + ["H"] * hot + ["M"] * 4
    return Log.from_traces(traces)


def register_standard_cases(registry: BenchRegistry) -> None:
    """Populate ``registry`` with the standard scenario cases."""

    # -- operators (Lemma 1) ----------------------------------------------

    for op_name in sorted(_OPERATORS):
        evaluate = _OPERATORS[op_name]

        def _operator_setup(n: int, _evaluate=evaluate) -> Callable[[], Any]:
            inc1, inc2 = operand_sets(n)
            return lambda: _evaluate(inc1, inc2)

        registry.case(
            f"operators.{op_name}",
            suites=("smoke", "full"),
            description=f"Lemma 1 pairwise {op_name} evaluation, n1=n2=n",
            n=128,
        )(_operator_setup)

    # -- scaling (Section 3.2) --------------------------------------------

    @registry.case(
        "scaling.atomic_indexed",
        suites=("smoke", "full"),
        description="atomic query through the per-activity index",
        instances=100,
    )
    def _atomic_indexed(instances: int) -> Callable[[], Any]:
        log = clinic_log(instances, seed=3)
        engine = VectorizedEngine()
        pattern = parse("UpdateRefer")
        return lambda: engine.evaluate(log, pattern)

    @registry.case(
        "scaling.negated_scan",
        suites=("full",),
        description="negated atom forcing a full scan",
        instances=100,
    )
    def _negated_scan(instances: int) -> Callable[[], Any]:
        log = clinic_log(instances, seed=3)
        engine = VectorizedEngine()
        pattern = parse("!UpdateRefer")
        return lambda: engine.evaluate(log, pattern)

    @registry.case(
        "scaling.chain",
        suites=("smoke", "full"),
        description="three-activity sequential chain vs instance count",
        instances=100,
    )
    def _chain(instances: int) -> Callable[[], Any]:
        log = clinic_log(instances, seed=3)
        engine = VectorizedEngine()
        pattern = parse("GetRefer -> UpdateRefer -> GetReimburse")
        return lambda: engine.evaluate(log, pattern)

    @registry.case(
        "kernel.spans_only",
        suites=("smoke", "full"),
        description="the scaling.chain query read the way count / exists / "
        "instances replies read it: evaluate + len + wids, no Incident built",
        instances=100,
    )
    def _spans_only(instances: int) -> Callable[[], Any]:
        log = clinic_log(instances, seed=3)
        engine = VectorizedEngine()
        pattern = parse("GetRefer -> UpdateRefer -> GetReimburse")

        def body() -> tuple[int, tuple[int, ...]]:
            result = engine.evaluate(log, pattern)
            return len(result), result.wids()

        # the machine-independent half of the case: fails the run, whatever
        # the timings, if root materialisation creeps back
        built = _calls(Incident, "__init__", body)
        if built:
            raise ReproError(f"kernel.spans_only: {built} Incident object(s) built")
        return body

    # -- columnar (PR 10) --------------------------------------------------

    @registry.case(
        "columnar.build",
        suites=("smoke", "full"),
        description="ColumnarLog.from_log: intern + column fill over the "
        "scaling reference log",
        instances=100,
    )
    def _columnar_build(instances: int) -> Callable[[], Any]:
        from repro.columnar import ColumnarLog

        log = clinic_log(instances, seed=3)
        return lambda: ColumnarLog.from_log(log)

    @registry.case(
        "sqlite.pushdown",
        suites=("smoke", "full"),
        description="the scaling.chain query compiled to SQL against a "
        "pre-warmed in-memory sqlite warehouse",
        instances=100,
    )
    def _sqlite_pushdown(instances: int) -> Callable[[], Any]:
        from repro.columnar.sqlite import SqliteEngine

        columnar = clinic_log(instances, seed=3).columnar()
        engine = SqliteEngine()
        pattern = parse("GetRefer -> UpdateRefer -> GetReimburse")
        engine.evaluate(columnar, pattern)  # warm the warehouse load
        return lambda: engine.evaluate(columnar, pattern)

    # -- optimizer (Theorems 2-5) -----------------------------------------

    @registry.case(
        "optimizer.pathological_association",
        suites=("full",),
        description="rare-activity chain in the right-deep association",
        instances=60,
        hot=20,
    )
    def _pathological(instances: int, hot: int) -> Callable[[], Any]:
        log = skewed_log(instances, hot)
        engine = VectorizedEngine()
        pattern = parse("R -> (H -> H)")
        return lambda: engine.evaluate(log, pattern)

    @registry.case(
        "optimizer.optimized_association",
        suites=("smoke", "full"),
        description="the same chain under the DP-chosen plan",
        instances=60,
        hot=20,
    )
    def _optimized(instances: int, hot: int) -> Callable[[], Any]:
        log = skewed_log(instances, hot)
        engine = VectorizedEngine()
        plan = Optimizer.for_log(log).optimize(parse("R -> (H -> H)"))
        return lambda: engine.evaluate(log, plan.optimized)

    @registry.case(
        "optimizer.planning_overhead",
        suites=("smoke", "full"),
        description="cost of planning itself (must stay negligible)",
        instances=60,
        hot=20,
    )
    def _planning(instances: int, hot: int) -> Callable[[], Any]:
        log = skewed_log(instances, hot)
        optimizer = Optimizer.for_log(log)
        pattern = parse("R -> (H -> H)")
        return lambda: optimizer.optimize(pattern)

    # -- batch (PR 3) -----------------------------------------------------

    @registry.case(
        "batch.shared_scan",
        suites=("smoke", "full"),
        description="three overlapping chains in one shared-scan pass",
        instances=120,
    )
    def _batch(instances: int) -> Callable[[], Any]:
        from repro.exec.batch import evaluate_batch

        log = clinic_log(instances, seed=42)
        patterns = [
            parse("GetRefer -> CheckIn"),
            parse("GetRefer -> CheckIn -> SeeDoctor"),
            parse("GetRefer -> CheckIn -> UpdateRefer"),
        ]
        return lambda: evaluate_batch(log, patterns, optimize=False)

    @registry.case(
        "batch.subsumed",
        suites=("smoke", "full"),
        description="a containment chain answered by one scan + proved "
        "derivation instead of three scans",
        instances=120,
    )
    def _batch_subsumed(instances: int) -> Callable[[], Any]:
        from repro.analysis import plan_subsumption
        from repro.exec.batch import evaluate_batch

        log = clinic_log(instances, seed=42)
        patterns = [
            parse("GetRefer ; CheckIn"),
            parse("GetRefer -> CheckIn"),
            parse("(GetRefer -> CheckIn) | (CheckIn -> GetRefer)"),
        ]
        plan_subsumption(patterns)  # warm the shared prover's DFA memo
        return lambda: evaluate_batch(log, patterns, optimize=False)

    # -- analysis (containment prover) ------------------------------------

    @registry.case(
        "analysis.containment",
        suites=("smoke", "full"),
        description="compile + decide p ⊑ q on a fresh prover (no memo)",
    )
    def _analysis_containment() -> Callable[[], Any]:
        from repro.analysis import PatternProver

        p = parse("GetRefer ; CheckIn ; SeeDoctor")
        q = parse("GetRefer -> (CheckIn | SeeDoctor) -> SeeDoctor")

        def run() -> Any:
            prover = PatternProver()
            return prover.contains(p, q), prover.contains(q, p)

        return run

    # -- cache ------------------------------------------------------------

    @registry.case(
        "cache.cold",
        suites=("smoke", "full"),
        description="uncached chain evaluation — the warm-run reference",
        instances=120,
    )
    def _cache_cold(instances: int) -> Callable[[], Any]:
        from repro.core.query import Query

        log = clinic_log(instances, seed=42)
        query = Query(parse("GetRefer -> CheckIn -> SeeDoctor"))
        return lambda: query.run(log)

    @registry.case(
        "cache.warm_result",
        suites=("smoke", "full"),
        description="the same chain served from the result cache",
        instances=120,
    )
    def _cache_warm_result(instances: int) -> Callable[[], Any]:
        from repro.cache import QueryCache
        from repro.core.options import EngineOptions
        from repro.core.query import Query

        log = clinic_log(instances, seed=42)
        query = Query(
            parse("GetRefer -> CheckIn -> SeeDoctor"),
            EngineOptions(cache=QueryCache()),
        )
        query.run(log)  # prime: every measured run is a cache hit
        return lambda: query.run(log)

    # -- journal (query-lifecycle telemetry) ------------------------------

    @registry.case(
        "journal.off",
        suites=("smoke", "full"),
        description="journal disabled — the overhead reference run",
        instances=120,
    )
    def _journal_off(instances: int) -> Callable[[], Any]:
        from repro.core.options import EngineOptions
        from repro.core.query import Query

        log = clinic_log(instances, seed=42)
        query = Query(
            parse("GetRefer -> CheckIn -> SeeDoctor"),
            EngineOptions(optimize=False),
        )
        return lambda: query.run(log)

    @registry.case(
        "journal.events",
        suites=("smoke", "full"),
        description="in-memory journal, event emission only (memory=False)",
        instances=120,
    )
    def _journal_events(instances: int) -> Callable[[], Any]:
        from repro.core.options import EngineOptions
        from repro.core.query import Query
        from repro.obs.journal import QueryJournal

        log = clinic_log(instances, seed=42)
        query = Query(
            parse("GetRefer -> CheckIn -> SeeDoctor"),
            EngineOptions(optimize=False, journal=QueryJournal(memory=False)),
        )
        return lambda: query.run(log)

    @registry.case(
        "journal.traced",
        suites=("full",),
        description="journal with the tracemalloc peak-allocation probe",
        instances=120,
    )
    def _journal_traced(instances: int) -> Callable[[], Any]:
        from repro.core.options import EngineOptions
        from repro.core.query import Query
        from repro.obs.journal import QueryJournal

        log = clinic_log(instances, seed=42)
        query = Query(
            parse("GetRefer -> CheckIn -> SeeDoctor"),
            EngineOptions(optimize=False, journal=QueryJournal()),
        )
        return lambda: query.run(log)

    # -- incremental (streaming) ------------------------------------------

    @registry.case(
        "incremental.stream",
        suites=("smoke", "full"),
        description="maintain incL(p) record by record over a full log",
        instances=60,
    )
    def _incremental(instances: int) -> Callable[[], Any]:
        log = clinic_log(instances, seed=11)
        pattern = parse("UpdateRefer -> GetReimburse")

        def run() -> Any:
            evaluator = IncrementalEvaluator(pattern)
            for record in log:
                evaluator.append(record)
            return evaluator.incidents()

        return run

    @registry.case(
        "live.delta_append",
        suites=("smoke", "full"),
        description="append one 10-record instance, snapshot, first cached "
        "run of the chain: the epoch is extended, only the new instance joined",
        instances=120,
    )
    def _live_delta_append(instances: int) -> Callable[[], Any]:
        from repro.cache import QueryCache
        from repro.core.model import END, START
        from repro.core.options import EngineOptions
        from repro.core.query import Query
        from repro.logstore import LogStore

        store = LogStore.from_log(clinic_log(instances, seed=42))
        query = Query(
            parse("GetRefer -> CheckIn -> SeeDoctor"),
            EngineOptions(cache=QueryCache()),
        )
        query.run(store.snapshot())
        batch = (
            START, "GetRefer", "CheckIn", "SeeDoctor", "PayTreatment",
            "TakeTreatment", "UpdateRefer", "GetReimburse", "CompleteRefer", END,
        )  # fmt: skip

        def run() -> Any:
            wid = len(store) + 1  # above every wid there is
            store.append_batch([(wid, activity, None, None) for activity in batch])
            return query.run(store.snapshot())

        # machine-independent: the columns were extended, not rebuilt (the
        # first window's leaf spans are the previous epoch's very list),
        # and one join ran per binary node for the one instance appended to
        columnar = store.snapshot().columnar()
        leaf = columnar.act_id_of("GetRefer")
        before = columnar.leaf_spans(leaf)[0]
        run()
        stats = query.engine.last_stats
        if (
            store.snapshot().columnar().leaf_spans(leaf)[0] is not before
            or query.last_cache_layer != "delta"
            or stats.operator_evals != 2
        ):
            raise ReproError(
                f"live.delta_append: served by {query.last_cache_layer!r} with "
                f"{stats.operator_evals} operator evaluation(s) (expected 'delta' "
                "with 2), or the whole log's columns were rebuilt"
            )
        return run

    # -- service (the HTTP daemon, driven in-process) ---------------------

    @registry.case(
        "service.query_warm",
        suites=("smoke", "full"),
        description="POST /v1/query served from the warm result layer "
        "(full dispatch: schema, clamp, admission, journal-free)",
        instances=120,
    )
    def _service_query_warm(instances: int) -> Callable[[], Any]:
        import json

        from repro.service import QueryService, ServiceConfig, StoreCatalog

        catalog = StoreCatalog()
        catalog.add_log("clinic", clinic_log(instances, seed=42))
        service = QueryService(catalog, ServiceConfig())
        body = json.dumps(
            {"log": "clinic", "pattern": "GetRefer -> CheckIn -> SeeDoctor"}
        ).encode()
        service.dispatch("POST", "/v1/query", body)  # prime the result layer

        def run() -> Any:
            response = service.dispatch("POST", "/v1/query", body)
            assert response.status == 200
            return response

        return run

    @registry.case(
        "reply.rows_json",
        suites=("smoke", "full"),
        description="POST /v1/query mode incidents from the warm result "
        "layer: the rows go from the spans and the columns to JSON text",
        instances=120,
    )
    def _reply_rows_json(instances: int) -> Callable[[], Any]:
        import json

        from repro.core.incident import IncidentSet
        from repro.service import QueryService, StoreCatalog

        log = clinic_log(instances, seed=42)
        catalog = StoreCatalog()
        catalog.add_log("clinic", log)
        service = QueryService(catalog)
        pattern = "SeeDoctor & PayTreatment"
        request = json.dumps({"log": "clinic", "pattern": pattern}).encode()

        def run() -> bytes:
            return service.dispatch("POST", "/v1/query", request).body()

        run()  # prime the result layer
        # machine-independent: the cached reply builds no row dict, and
        # its body is the one the row dicts encode to
        body = run()
        rows = VectorizedEngine().evaluate(log, parse(pattern)).to_rows()
        expected = json.dumps({**json.loads(body), "incidents": rows}, sort_keys=True)
        entered = _calls(IncidentSet, "to_rows", run)
        if entered or body != expected.encode() + b"\n":
            raise ReproError(
                f"reply.rows_json: to_rows entered {entered} time(s) (expected 0), "
                "or the body is not the one its row dicts encode to"
            )
        return run

    @registry.case(
        "live.window",
        suites=("smoke", "full"),
        description="windowed telemetry hot path: observe_request into the "
        "ring + merge a trailing 5-minute WindowSnapshot",
        observations=2_000,
    )
    def _live_window(observations: int) -> Callable[[], Any]:
        from repro.obs.live import WindowedAggregator

        # deterministic synthetic traffic over a 10-minute span so the
        # window merge walks many buckets with mixed attribution keys
        routes = ("/v1/query", "/v1/batch", "/v1/explain")
        stores = ("clinic", "orders", "loans")
        outcomes = [
            (
                routes[i % 3],
                stores[i % 3],
                f"A -> B{i % 7}",
                200 if i % 17 else 408,
                0.001 + (i % 50) / 1000.0,
                600.0 + i * (600.0 / observations),
            )
            for i in range(observations)
        ]

        def run() -> Any:
            aggregator = WindowedAggregator(bucket_s=10.0, window_s=900.0)
            for route, store, pattern, status, duration, ts in outcomes:
                aggregator.observe_request(
                    route,
                    status,
                    duration,
                    store=store,
                    pattern=pattern,
                    pairs=100,
                    killed=status == 408,
                    ts=ts,
                )
            snapshot = aggregator.window(300.0, now=1200.0)
            assert snapshot.total.count > 0
            return snapshot.total.latency.quantile(0.95)

        return run

    @registry.case(
        "service.saturation",
        suites=("smoke", "full"),
        description="16 concurrent uncached dispatches against a 2-slot "
        "pool — admitted work completes, overflow sheds with 429",
        instances=40,
        clients=16,
    )
    def _service_saturation(instances: int, clients: int) -> Callable[[], Any]:
        import json
        from concurrent.futures import ThreadPoolExecutor

        from repro.service import QueryService, ServiceConfig, StoreCatalog

        catalog = StoreCatalog()
        catalog.add_log("clinic", clinic_log(instances, seed=42))
        service = QueryService(
            catalog,
            ServiceConfig(
                max_concurrency=2, queue_depth=2, queue_timeout_ms=50.0
            ),
        )
        body = json.dumps(
            {
                "log": "clinic",
                "pattern": "GetRefer -> CheckIn -> SeeDoctor",
                "options": {"cache": False},
            }
        ).encode()
        pool = ThreadPoolExecutor(max_workers=clients)

        def run() -> Any:
            statuses = list(
                pool.map(
                    lambda _: service.dispatch("POST", "/v1/query", body).status,
                    range(clients),
                )
            )
            assert set(statuses) <= {200, 429}
            return statuses

        return run
