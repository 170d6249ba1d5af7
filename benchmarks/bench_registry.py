"""Registry adapter — the declarative bench cases under pytest-benchmark.

The named cases of :mod:`repro.obs.bench.cases` are the *recorded* perf
surface (``repro-logs bench run`` / ``BENCH_history.jsonl`` / the
committed baselines); this module exposes the same cases to the ad-hoc
``pytest benchmarks/ --benchmark-only`` workflow so both paths measure
identical workloads.  Setup runs outside the timed region in both
harnesses.

``test_smoke_suite_document_validates`` is the plain-pytest sanity pass:
one repetition of every smoke case, assembled and checked against the
``repro.obs.bench/v1`` schema — it catches a case whose setup broke
before CI's bench-smoke job does.
"""

from __future__ import annotations

import pytest

from repro.obs.bench import default_registry, run_suite
from repro.obs.export import validate_bench

_REGISTRY = default_registry()
_SMOKE = [case.name for case in _REGISTRY.select(suite="smoke")]
_FULL_ONLY = [
    case.name for case in _REGISTRY.select(suite="full") if case.name not in _SMOKE
]


@pytest.mark.parametrize("name", _SMOKE)
def test_registry_case(benchmark, name):
    case = _REGISTRY.get(name)
    body = case.build()
    benchmark.group = f"registry-{name.split('.')[0]}"
    benchmark(body)


@pytest.mark.parametrize("name", _FULL_ONLY)
@pytest.mark.benchmark(warmup=False)
def test_registry_case_full(benchmark, name):
    """Full-suite extras (the larger sweeps) — heavier, same adapter."""
    case = _REGISTRY.get(name)
    body = case.build()
    benchmark.group = f"registry-{name.split('.')[0]}"
    benchmark.pedantic(body, rounds=3, iterations=1)


def test_smoke_suite_document_validates():
    cases = _REGISTRY.select(suite="smoke")
    document = run_suite(cases, suite="smoke", warmup=0, repeats=1)
    validate_bench(document)
    assert {c["name"] for c in document["cases"]} == set(_SMOKE)
