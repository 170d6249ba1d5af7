"""Socket-to-last-byte benchmark of the query daemon (see README.md here).

Run ``python -m benchmarks.e2e run`` for the full report and
``python -m benchmarks.e2e compare A.json B.json`` to compare two result
files; ``benchmarks/e2e/run.py`` is the one-workload entry point that
``BENCHMARK.json`` names.
"""
