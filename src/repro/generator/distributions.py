"""Sampling distributions for workload generation.

Configurations express "instance length ~ Uniform(5, 15)" declaratively;
these classes make such settings serialisable and reusable across
generators.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

__all__ = ["Distribution", "UniformInt"]


class Distribution(ABC):
    """A distribution over nonnegative integers."""

    @abstractmethod
    def sample(self, rng: random.Random) -> int:
        """Draw one value."""


@dataclass(frozen=True)
class UniformInt(Distribution):
    """Uniform over ``[low, high]`` inclusive."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError("need 0 <= low <= high")

    def sample(self, rng: random.Random) -> int:
        return rng.randint(self.low, self.high)
