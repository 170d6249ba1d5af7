"""Block-structured workflow specifications.

A workflow is described by a tree of control-flow *blocks* — the
structured fragment of BPMN that also motivates the paper's four pattern
operators:

* :class:`Step` — execute one activity (→ atomic patterns);
* :class:`Sequence` — blocks one after another (→ ⊙ / ⊳);
* :class:`Xor` — exclusive gateway: exactly one branch runs (→ ⊗);
* :class:`Par` — parallel gateway: all branches run, interleaved (→ ⊕);
* :class:`Loop` — structured loop with a continuation probability;
* :class:`Maybe` — optional block.

Activities are declared once per workflow as :class:`ActivityDef` with the
attributes they read/write and an *effect* function computing the written
values from the instance's current attribute state — this is what
populates the ``αin``/``αout`` maps of the log records (Definition 1).
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator, Mapping, Sequence as Seq
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import WorkflowDefinitionError
from repro.core.model import END, START

__all__ = [
    "Effect",
    "ActivityDef",
    "Block",
    "Step",
    "Sequence",
    "Xor",
    "Par",
    "Loop",
    "Maybe",
    "WorkflowSpec",
]

#: An effect computes the attribute values an activity writes, given the
#: instance's current attribute state and the simulation RNG.
Effect = Callable[[Mapping[str, Any], random.Random], Mapping[str, Any]]


def _no_effect(state: Mapping[str, Any], rng: random.Random) -> Mapping[str, Any]:
    return {}


@dataclass(frozen=True)
class ActivityDef:
    """Declaration of one workflow activity.

    Parameters
    ----------
    name:
        The activity name recorded in log records.
    reads:
        Attribute names the activity reads; their current values populate
        the record's ``αin`` map.
    writes:
        Attribute names the activity may write.  The effect's returned map
        must stay within this set.
    effect:
        Computes the written values from the current state.  Defaults to
        writing nothing.
    """

    name: str
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    effect: Effect = _no_effect

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkflowDefinitionError("activity name must be nonempty")
        if self.name in (START, END):
            raise WorkflowDefinitionError(
                f"{self.name} is a reserved sentinel activity name"
            )


class Block:
    """Base class of control-flow blocks.

    A block *unfolds*, under an RNG, into a lazy sequence of activity
    names; the engine interleaves unfoldings of many instances into one
    log.  ``unfold`` resolves gateways (Xor choice, Loop continuation,
    Par interleaving) at unfold time, so each call is one simulated run of
    the block.
    """

    def unfold(self, rng: random.Random) -> Iterator[str]:
        """Yield the activity names of one randomly resolved run."""
        raise NotImplementedError

    def activities(self) -> frozenset[str]:
        """All activity names that can occur in some run of the block."""
        raise NotImplementedError


@dataclass(frozen=True)
class Step(Block):
    """Execute one activity."""

    activity: str

    def unfold(self, rng: random.Random) -> Iterator[str]:
        yield self.activity

    def activities(self) -> frozenset[str]:
        return frozenset((self.activity,))


@dataclass(frozen=True)
class Sequence(Block):
    """Run blocks one after another."""

    blocks: tuple[Block, ...]

    def __init__(self, *blocks: Block | str):
        object.__setattr__(self, "blocks", tuple(_coerce(b) for b in blocks))
        if not self.blocks:
            raise WorkflowDefinitionError("Sequence needs at least one block")

    def unfold(self, rng: random.Random) -> Iterator[str]:
        for block in self.blocks:
            yield from block.unfold(rng)

    def activities(self) -> frozenset[str]:
        return frozenset().union(*(b.activities() for b in self.blocks))


@dataclass(frozen=True)
class Xor(Block):
    """Exclusive (XOR) gateway: exactly one branch runs.

    ``weights`` are relative branch probabilities (uniform by default).
    """

    branches: tuple[Block, ...]
    weights: tuple[float, ...]

    def __init__(self, *branches: Block | str, weights: Seq[float] | None = None):
        blocks = tuple(_coerce(b) for b in branches)
        if len(blocks) < 2:
            raise WorkflowDefinitionError("Xor needs at least two branches")
        if weights is None:
            weights = tuple(1.0 for _ in blocks)
        else:
            weights = tuple(float(w) for w in weights)
        if len(weights) != len(blocks):
            raise WorkflowDefinitionError("one weight per Xor branch required")
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise WorkflowDefinitionError("Xor weights must be nonnegative, sum > 0")
        object.__setattr__(self, "branches", blocks)
        object.__setattr__(self, "weights", weights)

    def unfold(self, rng: random.Random) -> Iterator[str]:
        branch = rng.choices(self.branches, weights=self.weights, k=1)[0]
        yield from branch.unfold(rng)

    def activities(self) -> frozenset[str]:
        return frozenset().union(*(b.activities() for b in self.branches))


@dataclass(frozen=True)
class Par(Block):
    """Parallel (AND) gateway: all branches run, randomly interleaved.

    The interleaving preserves each branch's internal order — exactly the
    "shuffle" the paper's ⊕ operator matches.
    """

    branches: tuple[Block, ...]

    def __init__(self, *branches: Block | str):
        blocks = tuple(_coerce(b) for b in branches)
        if len(blocks) < 2:
            raise WorkflowDefinitionError("Par needs at least two branches")
        object.__setattr__(self, "branches", blocks)

    def unfold(self, rng: random.Random) -> Iterator[str]:
        queues = [list(b.unfold(rng)) for b in self.branches]
        cursors = [0] * len(queues)
        live = [i for i, q in enumerate(queues) if q]
        while live:
            i = rng.choice(live)
            yield queues[i][cursors[i]]
            cursors[i] += 1
            if cursors[i] >= len(queues[i]):
                live.remove(i)

    def activities(self) -> frozenset[str]:
        return frozenset().union(*(b.activities() for b in self.branches))


@dataclass(frozen=True)
class Loop(Block):
    """Structured loop: run ``body``, then repeat with probability
    ``again`` up to ``max_iterations`` total runs."""

    body: Block
    again: float = 0.5
    max_iterations: int = 10

    def __init__(self, body: Block | str, again: float = 0.5, max_iterations: int = 10):
        if not 0.0 <= again < 1.0:
            raise WorkflowDefinitionError("Loop continuation must be in [0, 1)")
        if max_iterations < 1:
            raise WorkflowDefinitionError("Loop needs at least one iteration")
        object.__setattr__(self, "body", _coerce(body))
        object.__setattr__(self, "again", again)
        object.__setattr__(self, "max_iterations", max_iterations)

    def unfold(self, rng: random.Random) -> Iterator[str]:
        for iteration in range(self.max_iterations):
            yield from self.body.unfold(rng)
            if rng.random() >= self.again:
                break

    def activities(self) -> frozenset[str]:
        return self.body.activities()


@dataclass(frozen=True)
class Maybe(Block):
    """Optional block: runs with probability ``prob``."""

    block: Block
    prob: float = 0.5

    def __init__(self, block: Block | str, prob: float = 0.5):
        if not 0.0 <= prob <= 1.0:
            raise WorkflowDefinitionError("Maybe probability must be in [0, 1]")
        object.__setattr__(self, "block", _coerce(block))
        object.__setattr__(self, "prob", prob)

    def unfold(self, rng: random.Random) -> Iterator[str]:
        if rng.random() < self.prob:
            yield from self.block.unfold(rng)

    def activities(self) -> frozenset[str]:
        return self.block.activities()


def _coerce(block: Block | str) -> Block:
    """Allow bare activity names wherever a block is expected."""
    if isinstance(block, Block):
        return block
    if isinstance(block, str):
        return Step(block)
    raise WorkflowDefinitionError(f"cannot use {block!r} as a workflow block")


@dataclass(frozen=True)
class WorkflowSpec:
    """A complete workflow model.

    Parameters
    ----------
    name:
        Model name (metadata only).
    root:
        The top-level control-flow block.
    activities:
        Declarations for (at least) every activity the root block can
        reach.  Undeclared activities get an empty declaration (no
        reads/writes) when ``strict`` is False.
    initial_attrs:
        Factory producing each new instance's initial attribute state.
    """

    name: str
    root: Block
    activities: Mapping[str, ActivityDef] = field(default_factory=dict)
    initial_attrs: Callable[[], dict[str, Any]] = dict
    strict: bool = True

    def __post_init__(self) -> None:
        declared = set(self.activities)
        for activity_def in self.activities.values():
            if not isinstance(activity_def, ActivityDef):
                raise WorkflowDefinitionError(
                    f"activity declarations must be ActivityDef, got "
                    f"{type(activity_def).__name__}"
                )
        reachable = self.root.activities()
        missing = reachable - declared
        if missing and self.strict:
            raise WorkflowDefinitionError(
                f"workflow {self.name!r}: activities used in control flow but "
                f"not declared: {sorted(missing)}"
            )

    @classmethod
    def from_definitions(
        cls,
        name: str,
        root: Block,
        definitions: Seq[ActivityDef],
        *,
        initial_attrs: Callable[[], dict[str, Any]] = dict,
    ) -> "WorkflowSpec":
        """Convenience constructor from a list of :class:`ActivityDef`."""
        return cls(
            name=name,
            root=root,
            activities={d.name: d for d in definitions},
            initial_attrs=initial_attrs,
        )

    def definition(self, activity: str) -> ActivityDef:
        """The declaration for ``activity`` (empty declaration when not
        declared and ``strict`` is off)."""
        try:
            return self.activities[activity]
        except KeyError:
            if self.strict:
                raise WorkflowDefinitionError(
                    f"undeclared activity {activity!r} in workflow {self.name!r}"
                ) from None
            return ActivityDef(activity)
