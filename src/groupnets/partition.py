"""Heavy-tailed subgroup-size sampling under an exact fixed-sum constraint.

A truncated discrete power law assigns probability proportional to
``1/x**exponent`` to every integer size in its support.  A greedy
incremental procedure then draws sizes until a population budget ``n``
is exhausted, discarding draws that overshoot the remaining budget and
distributing the final sub-minimum remainder one unit at a time over
elements that still sit below the support maximum.  The result is a
sequence of integer sizes summing to ``n`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "PowerLawSpec",
    "SizeSequence",
    "SaturationError",
    "power_law_pmf",
    "fixed_sum_realizations",
    "sample_group_sizes",
    "MIN_POPULATION",
]

# the smallest group of the default size law, so the smallest population
MIN_POPULATION = 3

_DRAW_BATCH = 64


class SaturationError(RuntimeError):
    """Remainder cannot be distributed: every element is at the support maximum."""


@dataclass(frozen=True)
class PowerLawSpec:
    """Truncated power-law size distribution over ``{support_min..support_max}``.

    ``exponent`` must be at least 2 so the mean is well defined on an
    unbounded support; ``support_min`` must be at least 2.
    """

    support_max: int
    exponent: float = 3.0
    support_min: int = MIN_POPULATION

    def __post_init__(self) -> None:
        if self.exponent < 2:
            raise ValueError(f"exponent must be >= 2, got {self.exponent}")
        if self.support_min < 2:
            raise ValueError(f"support_min must be >= 2, got {self.support_min}")
        if self.support_min > self.support_max:
            raise ValueError(
                f"empty support: support_min={self.support_min} > support_max={self.support_max}"
            )


@dataclass(frozen=True)
class SizeSequence:
    """Integer sizes with their proportions of a fixed total.

    Invariants: ``sum(sizes) == total`` exactly and
    ``proportions[i] == sizes[i] / total``.
    """

    sizes: tuple[int, ...]
    proportions: tuple[float, ...]
    total: int

    def __post_init__(self) -> None:
        if sum(self.sizes) != self.total:
            raise ValueError(f"sizes sum to {sum(self.sizes)}, expected {self.total}")
        if len(self.sizes) != len(self.proportions):
            raise ValueError("sizes and proportions length mismatch")
        if abs(sum(self.proportions) - 1.0) > 1e-12:
            raise ValueError("proportions do not sum to 1")

    @classmethod
    def from_sizes(cls, sizes, total: int) -> "SizeSequence":
        sizes = tuple(int(s) for s in sizes)
        return cls(sizes, tuple(s / total for s in sizes), total)

    def __len__(self) -> int:
        return len(self.sizes)


def power_law_pmf(spec: PowerLawSpec) -> dict[int, float]:
    """Probability table over the spec's support, with mass proportional to 1/x**exponent.

    Normalization is a direct sum over the support; the values sum to 1
    within 1e-12.
    """
    values = np.arange(spec.support_min, spec.support_max + 1, dtype=np.int64)
    weights = values.astype(np.float64) ** (-spec.exponent)
    probs = weights / weights.sum()
    return {int(v): float(p) for v, p in zip(values, probs)}


def fixed_sum_realizations(
    pmf: Mapping[int, float], n: int, rng: np.random.Generator
) -> SizeSequence:
    """Draw realizations from ``pmf`` greedily so that they sum to ``n`` exactly.

    Values are drawn while the remaining budget is at least the support
    minimum; draws exceeding the budget are discarded.  The final
    remainder (strictly below the support minimum) is distributed by
    repeatedly incrementing a uniformly chosen element that is strictly
    below the support maximum.

    Raises
    ------
    ValueError
        If ``n`` is below the support minimum or the table is invalid.
    SaturationError
        If a nonzero remainder is left but every element already equals
        the support maximum.
    """
    if not pmf:
        raise ValueError("empty probability table")
    keys = np.array(sorted(pmf), dtype=np.int64)
    probs = np.array([pmf[int(k)] for k in keys], dtype=np.float64)
    if np.any(probs < 0):
        raise ValueError("negative probability in table")
    total_mass = probs.sum()
    if total_mass <= 0:
        raise ValueError("probability table has no mass")
    x_min = int(keys[0])
    x_max = int(keys[-1])
    if n < x_min:
        raise ValueError(f"n={n} is below the support minimum {x_min}")

    cum = np.cumsum(probs / total_mass)
    cum[-1] = 1.0
    positive_min = int(keys[probs > 0][0])

    sizes: list[int] = []
    budget = n
    while budget >= x_min:
        if positive_min > budget:
            raise ValueError("no admissible value fits the remaining budget")
        batch = keys[np.searchsorted(cum, rng.random(_DRAW_BATCH), side="right")]
        for draw in batch.tolist():
            if draw <= budget:
                sizes.append(draw)
                budget -= draw
                if budget < x_min:
                    break

    for _ in range(budget):
        eligible = [i for i, s in enumerate(sizes) if s < x_max]
        if not eligible:
            raise SaturationError(
                f"cannot distribute remainder: all {len(sizes)} elements at maximum {x_max}"
            )
        sizes[eligible[int(rng.integers(len(eligible)))]] += 1

    return SizeSequence.from_sizes(sizes, n)


def sample_group_sizes(
    n: int,
    rng: np.random.Generator,
    spec: PowerLawSpec | None = None,
) -> SizeSequence:
    """Sample subgroup sizes for a population of ``n`` individuals.

    With the default spec the sizes follow a ``1/x**3`` law over
    ``{3..n}``, adjusted to sum to ``n`` exactly.
    """
    if spec is None:
        if n < MIN_POPULATION:
            raise ValueError(
                f"population must have at least {MIN_POPULATION} individuals, got {n}"
            )
        spec = PowerLawSpec(support_max=n)
    if n < spec.support_min:
        raise ValueError(f"n={n} is below the support minimum {spec.support_min}")
    return fixed_sum_realizations(power_law_pmf(spec), n, rng)
