"""Experiment S — what the system around the join costs.

The other scripts time the paper's claims; these time the layers a
request crosses on the way to and from the join kernel, each on a fixed
seeded workload:

* ``kernel``   — a three-activity chain read the way ``count`` /
  ``exists`` / ``instances`` replies read it (``len`` + ``wids()``);
* ``columnar`` / ``sqlite`` — building the columns, and the same chain
  through the SQL baseline (:class:`~repro.baselines.sql.SqlBaseline`)
  against its pre-warmed in-memory warehouse;
* ``batch``    — three overlapping chains in one pass, a containment
  chain (every query scanned: strict containment earns no skip), an
  equivalent pair only the prover shows equal (different normal forms,
  so both are scanned), and the six ``cold_join`` patterns, which share
  nothing;
* ``analysis`` — compile + decide ``p ⊑ q`` on a fresh prover;
* ``cache``    — the chain uncached and served from the result cache
  (``test_warm_cache_beats_cold`` asserts the order on this host);
* ``live``     — append one instance, snapshot, and the first cached run
  after it (served by ``"delta"``: only the new instance is joined);
* ``service`` / ``reply`` — ``POST /v1/query`` through
  ``QueryService.dispatch``: a warm reply, a warm fat ``mode: incidents``
  reply encoded to bytes, and 16 concurrent uncached requests against a
  2-slot pool (overflow sheds with 429).
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from benchmarks.conftest import best_of
from benchmarks.e2e.workloads import POOL
from repro.analysis import PatternProver
from repro.baselines.sql import SqlBaseline
from repro.cache import QueryCache
from repro.columnar import ColumnarLog
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.model import END, START
from repro.core.options import EngineOptions
from repro.core.parser import parse
from repro.core.query import Query
from repro.exec.batch import evaluate_batch
from repro.logstore import LogStore
from repro.service import QueryService, ServiceConfig, StoreCatalog
from tests.support.workloads import clinic_log

#: the ``bench_scaling`` reference chain, on its 100-instance log
CHAIN = "GetRefer -> UpdateRefer -> GetReimburse"
#: the chain the cache, live and service scenarios run
VISIT = "GetRefer -> CheckIn -> SeeDoctor"


@pytest.fixture(scope="module")
def scaling_log():
    return clinic_log(100, seed=3)


@pytest.fixture(scope="module")
def log():
    return clinic_log(120, seed=42)


def test_kernel_spans_only(benchmark, scaling_log):
    engine = VectorizedEngine()
    pattern = parse(CHAIN)

    def run() -> tuple[int, tuple[int, ...]]:
        result = engine.evaluate(scaling_log, pattern)
        return len(result), result.wids()

    benchmark.group = "S-kernel"
    count, wids = benchmark(run)
    assert count >= len(wids) > 0


def test_columnar_build(benchmark, scaling_log):
    benchmark.group = "S-columnar"
    assert len(benchmark(ColumnarLog.from_log, scaling_log)) == len(scaling_log)


def test_sqlite_pushdown(benchmark, scaling_log):
    columnar = scaling_log.columnar()
    engine = SqlBaseline()
    pattern = parse(CHAIN)
    expected = engine.evaluate(columnar, pattern)  # warm the warehouse load
    benchmark.group = "S-columnar"
    assert benchmark(engine.evaluate, columnar, pattern) == expected


BATCHES = {
    "shared_scan": (
        "GetRefer -> CheckIn",
        "GetRefer -> CheckIn -> SeeDoctor",
        "GetRefer -> CheckIn -> UpdateRefer",
    ),
    "subsumed": (
        "GetRefer ; CheckIn",
        "GetRefer -> CheckIn",
        "(GetRefer -> CheckIn) | (CheckIn -> GetRefer)",
    ),
    # the prover-only case: equivalent (Definition 5), but the normal
    # forms differ, so the batch scans both
    "aliased": (
        "SeeDoctor & PayTreatment",
        "(SeeDoctor -> PayTreatment) | (PayTreatment -> SeeDoctor)",
    ),
    # the six ``cold_join`` patterns: no subpattern recurs, 0 shared hits
    "disjoint": POOL,
}


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_batch(benchmark, log, batch):
    patterns = [parse(text) for text in BATCHES[batch]]
    benchmark.group = "S-batch"
    result = benchmark(evaluate_batch, log, patterns, EngineOptions(optimize=False))
    assert len(result.results) == len(patterns)
    assert (result.shared_hits == 0) == (batch in ("aliased", "disjoint"))


def test_analysis_containment(benchmark):
    p = parse("GetRefer ; CheckIn ; SeeDoctor")
    q = parse("GetRefer -> (CheckIn | SeeDoctor) -> SeeDoctor")

    def run() -> tuple[bool, bool]:
        prover = PatternProver()
        return prover.contains(p, q), prover.contains(q, p)

    benchmark.group = "S-analysis"
    assert benchmark(run) == (True, False)


def _cache_queries(log) -> dict[str, Query]:
    """The chain uncached, and the chain primed in the result cache (every
    run of it is a hit)."""
    cold = Query(parse(VISIT))
    warm = Query(parse(VISIT), EngineOptions(cache=QueryCache()))
    warm.run(log)
    return {"cold": cold, "warm_result": warm}


@pytest.mark.parametrize("variant", ["cold", "warm_result"])
def test_cache(benchmark, log, variant):
    query = _cache_queries(log)[variant]
    benchmark.group = "S-cache"
    assert len(benchmark(query.run, log)) > 0


def test_warm_cache_beats_cold(log):
    """Both variants run on this host back to back, so the order holds
    whatever the host."""
    queries = _cache_queries(log)
    best = best_of({name: (lambda q=q: q.run(log)) for name, q in queries.items()})
    ratio = best["warm_result"] / best["cold"]
    assert ratio < 1.0, f"a warm run costs {ratio:.2f}x a cold one"


def test_live_delta_append(benchmark, log):
    """Each round appends one 10-record instance above every wid there
    is, so the rounds are fixed: the store grows by ten records a round."""
    store = LogStore.from_log(log)
    query = Query(parse(VISIT), EngineOptions(cache=QueryCache()))
    query.run(store.snapshot())
    batch = (
        START, "GetRefer", "CheckIn", "SeeDoctor", "PayTreatment",
        "TakeTreatment", "UpdateRefer", "GetReimburse", "CompleteRefer", END,
    )  # fmt: skip

    def run():
        wid = len(store) + 1
        store.append_batch([(wid, activity, None, None) for activity in batch])
        return query.run(store.snapshot())

    benchmark.group = "S-live"
    benchmark.pedantic(run, rounds=10, warmup_rounds=1)
    assert query.last_cache_layer == "delta"


def _service(log, config: ServiceConfig | None = None) -> QueryService:
    catalog = StoreCatalog()
    catalog.add_log("clinic", log)
    return QueryService(catalog, config or ServiceConfig())


def _query(**body) -> bytes:
    return json.dumps({"log": "clinic", **body}).encode()


def test_service_query_warm(benchmark, log):
    """``POST /v1/query`` served from the warm result layer: schema,
    clamp, admission and telemetry around a cache hit."""
    service = _service(log)
    body = _query(pattern=VISIT)
    service.dispatch("POST", "/v1/query", body)  # prime the result layer
    benchmark.group = "S-service"
    assert benchmark(service.dispatch, "POST", "/v1/query", body).status == 200


def test_reply_rows_json(benchmark, log):
    """A warm fat ``mode: incidents`` reply encoded to bytes: its rows go
    from the spans and the columns to JSON text."""
    service = _service(log)
    body = _query(pattern="SeeDoctor & PayTreatment")

    def run() -> bytes:
        return service.dispatch("POST", "/v1/query", body).body()

    run()  # prime the result layer
    benchmark.group = "S-service"
    assert b'"cache_layer": "result"' in benchmark(run)


def test_service_saturation(benchmark):
    clients = 16
    service = _service(
        clinic_log(40, seed=42),
        ServiceConfig(max_concurrency=2, queue_depth=2, queue_timeout_ms=50.0),
    )
    body = _query(pattern=VISIT, options={"cache": False})

    def dispatch(_: int) -> int:
        return service.dispatch("POST", "/v1/query", body).status

    benchmark.group = "S-service"
    with ThreadPoolExecutor(max_workers=clients) as pool:
        statuses = benchmark(lambda: list(pool.map(dispatch, range(clients))))
    assert set(statuses) <= {200, 429} and 200 in statuses
