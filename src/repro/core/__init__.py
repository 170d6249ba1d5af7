"""Core of the reproduction: the paper's formal model, pattern algebra,
semantics, parser, evaluation engines, algebraic laws and optimizer."""

from repro.core.errors import (
    BudgetExceededError,
    EvaluationError,
    LogValidationError,
    OptimizerError,
    PatternSyntaxError,
    ReproError,
)
from repro.core.check import assignment, is_incident
from repro.core.incident import Incident, IncidentSet, reference_incidents
from repro.core.lint import Diagnostic, Linter, Severity, lint_pattern
from repro.core.model import END, START, Log, LogRecord
from repro.core.parser import ParseResult, SourceSpan, parse, parse_with_spans
from repro.core.pattern import (
    Atomic,
    Choice,
    Consecutive,
    Parallel,
    Pattern,
    Sequential,
    act,
    choice,
    consecutive,
    neg,
    parallel,
    sequential,
)
from repro.core.options import EngineOptions
from repro.core.query import ENGINES, Query

__all__ = [
    "EngineOptions",
    "ReproError",
    "LogValidationError",
    "PatternSyntaxError",
    "EvaluationError",
    "BudgetExceededError",
    "OptimizerError",
    "Incident",
    "IncidentSet",
    "reference_incidents",
    "is_incident",
    "assignment",
    "Log",
    "LogRecord",
    "START",
    "END",
    "parse",
    "parse_with_spans",
    "ParseResult",
    "SourceSpan",
    "Diagnostic",
    "Linter",
    "Severity",
    "lint_pattern",
    "Pattern",
    "Atomic",
    "Consecutive",
    "Sequential",
    "Choice",
    "Parallel",
    "act",
    "neg",
    "consecutive",
    "sequential",
    "choice",
    "parallel",
    "Query",
    "ENGINES",
]
