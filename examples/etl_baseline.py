"""The traditional ETL/OLAP route vs direct log querying (Figure 1 vs 2).

Loads a workflow log into a relational warehouse (SQLite) the way an ETL
pipeline would, answers the same incident queries via generated self-join
SQL, and contrasts with the direct incident-pattern engines:

* results agree on the pure temporal fragment (we assert it);
* the generated SQL for even small patterns is unwieldy — printed here so
  you can judge;
* the warehouse *cannot* answer attribute-conditioned queries at all,
  because ETL fixed the projection up front — exactly the inflexibility
  the paper's introduction criticises.

Run:  python examples/etl_baseline.py
"""

import time

from repro import Query
from repro.baselines.sql import SqlBaseline, compile_to_sql
from repro.core.errors import EvaluationError
from repro.core.parser import parse
from repro.workflow import SimulationConfig, WorkflowEngine
from repro.workflow.models import clinic_referral_workflow

QUERIES = [
    "UpdateRefer -> GetReimburse",
    "SeeDoctor ; PayTreatment",
    "GetRefer -> (CompleteRefer | TerminateRefer)",
    "(SeeDoctor ; PayTreatment) -> GetReimburse",
]


def main() -> None:
    log = WorkflowEngine(clinic_referral_workflow()).run(
        SimulationConfig(instances=150, seed=77)
    )
    print(f"log: {len(log)} records, {len(log.wids)} instances")

    baseline = SqlBaseline()
    started = time.perf_counter()
    warehouse = baseline.warehouse(log)
    etl_seconds = time.perf_counter() - started
    print(f"ETL (load into SQLite warehouse): {etl_seconds * 1000:.1f} ms")

    for text in QUERIES:
        pattern = parse(text)
        print(f"\nquery: {text}")
        for branch in compile_to_sql(pattern, warehouse.columnar):
            print(f"  SQL> {branch}")

        started = time.perf_counter()
        via_sql = baseline.evaluate(log, pattern)
        sql_ms = (time.perf_counter() - started) * 1000

        direct = Query(pattern)
        started = time.perf_counter()
        via_engine = direct.run(log)
        engine_ms = (time.perf_counter() - started) * 1000

        assert via_sql == via_engine, "baselines must agree"
        print(f"  incidents: {len(via_sql)}  "
              f"(sql {sql_ms:.1f} ms, incident engine {engine_ms:.1f} ms)")

    # the punchline: attribute conditions need data ETL never extracted
    print("\nattribute-conditioned query: "
          "GetRefer[out.balance >= 5000] -> GetReimburse")
    rich = parse("GetRefer[out.balance >= 5000] -> GetReimburse")
    try:
        baseline.evaluate(log, rich)
    except EvaluationError as exc:
        print(f"  warehouse: FAILS — {exc}")
    count = Query(rich).count(log)
    print(f"  incident engine over the raw log: {count} incidents")
    warehouse.close()


if __name__ == "__main__":
    main()
