"""repro — incident-pattern queries over workflow logs.

A complete, production-oriented implementation of the query language of
Tang, Mackey & Su, *Querying Workflow Logs*: a formal log model, the
four-operator incident-pattern algebra (consecutive ⊙, sequential ⊳,
choice ⊗, parallel ⊕), two evaluation engines, a cost-based optimizer
built on the paper's algebraic laws, a workflow-execution simulator that
generates logs, log storage/serialization, ETL/SQL and CEP/automaton
baselines, and an analytics layer.

Quickstart
----------
>>> from repro import Log, Query
>>> log = Log.from_traces([
...     ["GetRefer", "CheckIn", "UpdateRefer", "SeeDoctor", "GetReimburse"],
...     ["GetRefer", "CheckIn", "SeeDoctor"],
... ], interleave=True)
>>> Query("UpdateRefer -> GetReimburse").count(log)
1
"""

from repro.obs.log import install_null_handler as _install_null_handler

# library default: the `repro.*` logging hierarchy stays silent unless the
# application (or the CLI's -v flag) configures a handler
_install_null_handler()

from repro.core import (  # noqa: E402
    END,
    assignment,
    is_incident,
    ENGINES,
    START,
    Atomic,
    BudgetExceededError,
    Choice,
    Consecutive,
    Diagnostic,
    EngineOptions,
    EvaluationError,
    Incident,
    IncidentSet,
    Linter,
    Log,
    LogRecord,
    LogValidationError,
    OptimizerError,
    Parallel,
    Pattern,
    PatternSyntaxError,
    Query,
    ReproError,
    Sequential,
    Severity,
    parallel,
    parse,
    parse_with_spans,
    reference_incidents,
)
from repro.analysis import (  # noqa: E402
    AnalysisError,
    PatternProver,
    verify_rules,
)
from repro.cache import CachePolicy, QueryCache  # noqa: E402
from repro.columnar import ColumnarLog, as_columnar  # noqa: E402
from repro.logstore.store import LogStore  # noqa: E402

__version__ = "1.0.0"

#: The blessed public surface: build applications against these names.
__all__ = [
    "__version__",
    "EngineOptions",
    "ColumnarLog",
    "as_columnar",
    "CachePolicy",
    "QueryCache",
    "LogStore",
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
    "Diagnostic",
    "Linter",
    "Severity",
    "Pattern",
    "Atomic",
    "Consecutive",
    "Sequential",
    "Choice",
    "Parallel",
    "parallel",
    "Query",
    "ENGINES",
    "AnalysisError",
    "PatternProver",
    "verify_rules",
]
