"""CEP-style automaton baseline.

Complex-event-processing systems (ZStream, SASE, Cayuga — see the paper's
Related Work) match *sequence* patterns over event streams with automata.
This baseline covers the corresponding fragment of the incident algebra —
patterns built from atoms, ``⊙``, ``⊳`` and ``⊗`` (no ``⊕``) — with:

* :class:`ChainMatcher` — compiles the pattern into a set of *chains*
  (one per ⊗-branch; each chain is a list of (atom, gap) steps via
  :func:`repro.core.algebra.flatten_chain`) and enumerates all incidents
  by recursive pointer descent over per-activity position lists
  (output-sensitive);

* :class:`AutomatonBaseline` — an Engine facade, raising
  :class:`~repro.core.errors.EvaluationError` for patterns containing
  ``⊕`` (exactly the expressiveness gap the benchmark B1 exposes).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Sequence

from repro.core.algebra import flatten_chain
from repro.core.errors import EvaluationError
from repro.core.eval.base import Engine, EvaluationStats
from repro.core.incident import Incident, IncidentSet
from repro.core.model import Log, LogRecord
from repro.core.pattern import (
    Atomic,
    Choice,
    Consecutive,
    Parallel,
    Pattern,
    Sequential,
)

__all__ = ["ChainMatcher", "AutomatonBaseline", "supports"]


def supports(pattern: Pattern) -> bool:
    """Whether the automaton baseline can evaluate ``pattern`` (the
    ⊙/⊳/⊗ fragment; no ⊕, no windowed ⊳ — chain compilation keeps only
    the adjacent/after distinction)."""
    for node in pattern.walk():
        if isinstance(node, Parallel):
            return False
        if isinstance(node, Sequential) and type(node) is not Sequential:
            return False
    return True


#: One step of a compiled chain: the atom to match and how it attaches to
#: the previous step ("start" for the first, "adjacent" for ⊙, "after"
#: for ⊳).
_Step = tuple[Atomic, str]


def _compile_chains(pattern: Pattern) -> list[list[_Step]]:
    """Expand ⊗ and flatten ⊙/⊳ chains into step lists."""
    if isinstance(pattern, Choice):
        return _compile_chains(pattern.left) + _compile_chains(pattern.right)
    if isinstance(pattern, Atomic):
        return [[(pattern, "start")]]
    if isinstance(pattern, Parallel):
        raise EvaluationError(
            "the automaton baseline does not support the parallel operator"
        )
    assert isinstance(pattern, (Consecutive, Sequential))
    items, gaps = flatten_chain(pattern)
    chains: list[list[_Step]] = [[]]
    for index, item in enumerate(items):
        attach = "start" if index == 0 else (
            "adjacent" if isinstance(gaps[index - 1], Consecutive) else "after"
        )
        # each item is an atom or a choice of chains; splice its chains in
        # with the gap operator's attachment on the first step
        item_chains = _compile_chains(item)
        extended: list[list[_Step]] = []
        for prefix in chains:
            for sub_chain in item_chains:
                spliced = list(prefix)
                for position, (atom, sub_attach) in enumerate(sub_chain):
                    spliced.append(
                        (atom, attach if position == 0 else sub_attach)
                    )
                extended.append(spliced)
        chains = extended
    return chains


class ChainMatcher:
    """Compiled matcher for one pattern in the ⊙/⊳/⊗ fragment."""

    def __init__(self, pattern: Pattern):
        if not supports(pattern):
            raise EvaluationError(
                "the automaton baseline does not support the parallel operator"
            )
        self.pattern = pattern
        self.chains = _compile_chains(pattern)

    def matches_in_trace(self, trace: Sequence[LogRecord]) -> Iterator[Incident]:
        """Yield every incident in one instance trace (may repeat record
        sets across ⊗ branches; callers deduplicate)."""
        by_activity: dict[str, list[int]] = {}
        for index, record in enumerate(trace):
            by_activity.setdefault(record.activity, []).append(index)

        def candidates(atom: Atomic, start: int) -> Iterator[int]:
            if atom.negated:
                for index in range(start, len(trace)):
                    if atom.matches(trace[index]):
                        yield index
            else:
                positions = by_activity.get(atom.name, [])
                for index in positions[bisect_left(positions, start):]:
                    if atom.matches(trace[index]):
                        yield index

        def descend(chain: list[_Step], step: int, position: int,
                    chosen: list[int]) -> Iterator[Incident]:
            if step == len(chain):
                yield Incident([trace[i] for i in chosen])
                return
            atom, attach = chain[step]
            if attach == "adjacent":
                if position < len(trace) and atom.matches(trace[position]):
                    chosen.append(position)
                    yield from descend(chain, step + 1, position + 1, chosen)
                    chosen.pop()
                return
            for index in candidates(atom, position):
                chosen.append(index)
                yield from descend(chain, step + 1, index + 1, chosen)
                chosen.pop()

        for chain in self.chains:
            yield from descend(chain, 0, 0, [])

    # -- log-level API -------------------------------------------------------

    def evaluate(self, log: Log) -> IncidentSet:
        incidents: list[Incident] = []
        for wid in log.wids:
            incidents.extend(self.matches_in_trace(log.instance(wid)))
        return IncidentSet(incidents)


class AutomatonBaseline(Engine):
    """Engine facade over :class:`ChainMatcher` (compiles per pattern)."""

    name = "automaton"

    def evaluate(self, log: Log, pattern: Pattern) -> IncidentSet:
        self.last_stats = EvaluationStats()
        result = ChainMatcher(pattern).evaluate(log)
        self._check_budget(len(result))
        return result
