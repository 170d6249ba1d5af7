"""Synthetic log generators.

Three families, each targeting a benchmark need:

* :func:`generate_log` — general random logs with controllable instance
  count, instance-length distribution and alphabet (``repro-logs
  generate --model synthetic``);
* :func:`worst_case_log` — the single-instance, single-activity log of
  Theorem 1's worst case, where ``(((t ⊕ t) ⊕ t) … ⊕ t)`` explodes;
* :func:`planted_pattern_log` — logs with a *planted* activity sequence
  occurring at a controlled rate, so benchmarks can dial the incident-set
  sizes ``n1, n2`` of an operator's operands independently of log size.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.model import Log
from repro.generator.distributions import Distribution, UniformInt

__all__ = [
    "SyntheticLogConfig",
    "generate_log",
    "worst_case_log",
    "planted_pattern_log",
    "default_alphabet",
]


def default_alphabet(size: int) -> tuple[str, ...]:
    """Activity names ``A00 .. A{size-1}``."""
    if size < 1:
        raise ValueError("alphabet size must be >= 1")
    width = max(2, len(str(size - 1)))
    return tuple(f"A{i:0{width}d}" for i in range(size))


@dataclass(frozen=True)
class SyntheticLogConfig:
    """Parameters of a synthetic log.

    Attributes
    ----------
    instances:
        Number of workflow instances.
    length:
        Distribution of per-instance event counts (sentinels excluded).
    alphabet:
        Activity names to draw from, uniformly.
    interleave:
        Round-robin interleave instance records in the global order
        (True, the realistic shape) or lay instances back to back.
    seed:
        RNG seed; generation is deterministic given the config.
    """

    instances: int = 10
    length: Distribution = field(default_factory=lambda: UniformInt(5, 15))
    alphabet: tuple[str, ...] = field(default_factory=lambda: default_alphabet(8))
    interleave: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.instances < 1:
            raise ValueError("need at least one instance")
        if not self.alphabet:
            raise ValueError("alphabet must be nonempty")


def generate_log(config: SyntheticLogConfig) -> Log:
    """Generate a log per ``config``."""
    rng = random.Random(config.seed)
    traces: dict[int, list[str]] = {}
    for wid in range(1, config.instances + 1):
        n_events = config.length.sample(rng)
        traces[wid] = [rng.choice(config.alphabet) for __ in range(n_events)]
    return Log.from_traces(traces, interleave=config.interleave)


def worst_case_log(m: int, activity: str = "t") -> Log:
    """Theorem 1's worst-case log: one instance whose ``m`` events all
    carry the same activity name, so ``incL(activity)`` has size ``m`` and
    a chain of ``k`` ⊕ operators over it produces ``O(m^k)`` incidents."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return Log.from_traces({1: [activity] * m})


def planted_pattern_log(
    instances: int,
    length: int,
    planted: Sequence[str],
    *,
    plant_rate: float = 0.5,
    noise_alphabet_size: int = 8,
    gap: int = 1,
    seed: int = 0,
) -> Log:
    """Logs with a controlled number of planted activity sequences.

    Each instance hosts, with probability ``plant_rate``, one occurrence of
    the ``planted`` activity sequence with ``gap - 1`` noise events between
    consecutive planted activities (``gap=1`` → consecutive, exercising
    ⊙; larger gaps exercise ⊳); the rest of the instance is noise drawn
    from a disjoint alphabet.  Guarantees: a planted instance contains the
    sequence; a non-planted instance contains none of the planted activity
    names.
    """
    if not planted:
        raise ValueError("planted sequence must be nonempty")
    if gap < 1:
        raise ValueError("gap must be >= 1")
    needed = len(planted) * gap
    if length < needed:
        raise ValueError(
            f"length {length} too short for planted sequence needing {needed}"
        )
    rng = random.Random(seed)
    noise = tuple(f"N{i:02d}" for i in range(noise_alphabet_size))
    overlap = set(noise) & set(planted)
    if overlap:
        raise ValueError(f"noise alphabet collides with planted names: {overlap}")

    traces: dict[int, list[str]] = {}
    for wid in range(1, instances + 1):
        events = [rng.choice(noise) for __ in range(length)]
        if rng.random() < plant_rate:
            start = rng.randint(0, length - needed)
            position = start
            for name in planted:
                events[position] = name
                position += gap
        traces[wid] = events
    return Log.from_traces(traces, interleave=True)
