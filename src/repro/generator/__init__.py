"""Synthetic workload generation for tests and the benchmark harness."""

from repro.generator.distributions import Distribution, UniformInt
from repro.generator.synthetic import (
    SyntheticLogConfig,
    generate_log,
    planted_pattern_log,
    worst_case_log,
)

__all__ = [
    "Distribution",
    "UniformInt",
    "SyntheticLogConfig",
    "generate_log",
    "worst_case_log",
    "planted_pattern_log",
]
