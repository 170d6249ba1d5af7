"""Experiment B1 — incident engines vs the ETL/SQL warehouse vs a CEP
automaton (the comparison the paper's conclusion asks for).

Four systems answer the same queries over the same simulated clinic log:

* ``naive``     — the paper's published Algorithm 1/2;
* ``kernel``    — this library's columnar join kernel
  (:class:`~repro.core.eval.vectorized.VectorizedEngine`);
* ``sql``       — Figure 1's route: SQLite warehouse + generated
  self-joins, timed both ways: warehouse pre-loaded, so ETL cost is
  excluded (the steady-state best case for the baseline), and with the
  load in every call (``test_sql_evaluation_with_its_load``: a fresh
  warehouse per question, the ad-hoc case of the paper's Figure 1);
* ``automaton`` — a CEP-style chain matcher (⊙/⊳/⊗ fragment only).

Query classes: a selective sequential query, a consecutive query, a
choice query, a parallel query (automaton unsupported — the
expressiveness gap), and existence-only queries where the automaton's
single-pass NFA is expected to win.
"""

from __future__ import annotations

import pytest

from repro.baselines.automaton import AutomatonBaseline, supports
from repro.baselines.sql import SqlBaseline
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.parser import parse
from tests.support.workloads import clinic_log

ENGINES = {
    "naive": NaiveEngine,
    "kernel": VectorizedEngine,
    "sql": SqlBaseline,
    "automaton": AutomatonBaseline,
}

QUERIES = {
    "sequential": "UpdateRefer -> GetReimburse",
    "consecutive": "SeeDoctor ; PayTreatment",
    "choice": "GetRefer -> (CompleteRefer | TerminateRefer)",
    "parallel": "SeeDoctor & (PayTreatment -> GetReimburse)",
}


@pytest.fixture(scope="module")
def clinic():
    return clinic_log(150, seed=1)


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_full_evaluation(benchmark, clinic, engine_name, query_name):
    pattern = parse(QUERIES[query_name])
    benchmark.group = f"B1-eval-{query_name}"
    if engine_name == "automaton" and not supports(pattern):
        pytest.skip("parallel operator is outside the CEP fragment")
    engine = ENGINES[engine_name]()
    if engine_name == "sql":
        engine.evaluate(clinic, pattern)  # pre-load warehouse
    benchmark(engine.evaluate, clinic, pattern)


@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_sql_evaluation_with_its_load(benchmark, clinic, query_name):
    pattern = parse(QUERIES[query_name])
    benchmark.group = f"B1-eval-{query_name}"
    benchmark(lambda: SqlBaseline().evaluate(clinic, pattern))


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_existence_only(benchmark, clinic, engine_name):
    pattern = parse("GetRefer -> UpdateRefer -> GetReimburse")
    benchmark.group = "B1-exists"
    engine = ENGINES[engine_name]()
    if engine_name == "sql":
        engine.evaluate(clinic, pattern)  # pre-load warehouse
    benchmark(engine.exists, clinic, pattern)


def test_all_systems_agree(clinic):
    """Correctness gate for the whole comparison."""
    for text in QUERIES.values():
        pattern = parse(text)
        expected = VectorizedEngine().evaluate(clinic, pattern)
        assert NaiveEngine().evaluate(clinic, pattern) == expected
        assert SqlBaseline().evaluate(clinic, pattern) == expected
        if supports(pattern):
            assert AutomatonBaseline().evaluate(
                clinic, pattern
            ) == expected
