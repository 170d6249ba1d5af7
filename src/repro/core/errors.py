"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Sub-hierarchies
mirror the subsystems: log well-formedness (:class:`LogValidationError`),
query-text parsing (:class:`PatternSyntaxError`), evaluation
(:class:`EvaluationError`), and the optimizer (:class:`OptimizerError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class LogValidationError(ReproError):
    """A log (or log record) violates the well-formedness conditions of
    Definition 2 in the paper.

    Attributes
    ----------
    condition:
        Which numbered condition of Definition 2 was violated (1-4), or
        ``0`` for structural problems outside the definition (e.g. a
        duplicated log sequence number type error).
    lsn:
        The log sequence number of the offending record, when known.
    """

    def __init__(self, message: str, *, condition: int = 0, lsn: int | None = None):
        super().__init__(message)
        self.condition = condition
        self.lsn = lsn


class PatternSyntaxError(ReproError):
    """The textual query could not be parsed into an incident pattern.

    Attributes
    ----------
    text:
        The full query text.
    position:
        0-based character offset at which the error was detected, or
        ``None`` when the error is not tied to a position (e.g. an
        unexpected end of input).
    """

    def __init__(self, message: str, *, text: str = "", position: int | None = None):
        if position is not None and text:
            pointer = " " * position + "^"
            message = f"{message}\n  {text}\n  {pointer}"
        super().__init__(message)
        self.text = text
        self.position = position


class EvaluationError(ReproError):
    """Evaluating a pattern against a log failed."""


class BudgetExceededError(EvaluationError):
    """An evaluation exceeded a user-supplied resource budget.

    Incident sets can be exponential in the pattern size (Theorem 1), so
    engines accept an optional cap on the number of incidents materialised;
    exceeding it raises this error rather than exhausting memory.
    """

    def __init__(self, message: str, *, limit: int):
        super().__init__(message)
        self.limit = limit


def _rebuild_error(cls: type, message: str, attrs: dict) -> Exception:
    """Reconstruct a governor error from pickled state.

    The governor errors carry keyword-only attributes (partial stats,
    budget values); a plain ``Exception.__reduce__`` would re-invoke the
    constructor with positional args only and fail, so ``copy`` and
    ``pickle`` of a raised error would too.
    """
    err = cls.__new__(cls)
    Exception.__init__(err, message)
    err.__dict__.update(attrs)
    return err


class QueryGovernorError(EvaluationError):
    """A resource governor stopped a query before completion.

    Base of the typed budget errors raised at the cooperative engine
    checkpoints (see ``docs/OBSERVABILITY.md``).  Attributes:

    partial_stats:
        Detached :class:`~repro.core.eval.base.EvaluationStats` snapshot
        taken at the checkpoint that tripped — what the query had cost
        when it was killed — or ``None`` when the failing code path keeps
        no pairwise stats (the counting DP charges abstract work units).
    """

    def __init__(self, message: str, *, partial_stats: object | None = None):
        super().__init__(message)
        self.partial_stats = partial_stats

    def __reduce__(self):
        return (_rebuild_error, (type(self), self.args[0], self.__dict__.copy()))


class QueryBudgetExceeded(QueryGovernorError):
    """A query examined more pairs than its ``max_pairs`` budget allows.

    Attributes
    ----------
    limit:
        The configured ``max_pairs`` budget.
    examined:
        Pairs (or equivalent work units) examined when the budget tripped.
    """

    def __init__(
        self,
        message: str,
        *,
        limit: int,
        examined: int,
        partial_stats: object | None = None,
    ):
        super().__init__(message, partial_stats=partial_stats)
        self.limit = limit
        self.examined = examined


class QueryTimeout(QueryGovernorError):
    """A query ran past its ``deadline_ms`` wall-clock budget.

    Attributes
    ----------
    deadline_ms:
        The configured budget in milliseconds (None when the governor was
        built from an absolute deadline only).
    elapsed_ms:
        Wall time elapsed when the deadline check tripped.
    """

    def __init__(
        self,
        message: str,
        *,
        deadline_ms: float | None = None,
        elapsed_ms: float | None = None,
        partial_stats: object | None = None,
    ):
        super().__init__(message, partial_stats=partial_stats)
        self.deadline_ms = deadline_ms
        self.elapsed_ms = elapsed_ms


class QueryCancelled(QueryGovernorError):
    """A query was cancelled cooperatively: another thread set its
    :class:`~repro.core.governor.CancelToken` (the admin kill)."""


class OptimizerError(ReproError):
    """The query optimizer produced or detected an inconsistent plan."""


class AnalysisError(ReproError):
    """Base class of the :mod:`repro.analysis` decision-procedure errors."""


class UnsupportedPatternError(AnalysisError):
    """The pattern falls outside the decidable fragment the prover
    compiles to automata (e.g. an attribute-guarded atom, whose predicate
    language is not regular over activity names)."""


class AnalysisBudgetError(AnalysisError):
    """An automaton construction exceeded the prover's state budget.

    The decision procedures are complete but worst-case exponential in
    pattern size (subset construction, shuffle products); the budget
    turns that into a clean refusal instead of unbounded memory use.
    """

    def __init__(self, message: str, *, limit: int):
        super().__init__(message)
        self.limit = limit


class WorkflowDefinitionError(ReproError):
    """A workflow specification is structurally invalid (unknown node,
    unreachable activity, gateway fan-in/out mismatch, ...)."""


class WorkflowRuntimeError(ReproError):
    """A workflow instance failed during simulated execution."""


class LogStoreError(ReproError):
    """A log store operation failed (I/O, format, or index consistency)."""
