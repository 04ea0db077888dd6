"""Negative-candidate pools: Random / Probabilistic / Static (Section 4.1).

The framework's sampling-cost win comes from drawing candidates **once per
(relation, side)** — ``2|R|`` draws in total — instead of once per query.
:func:`build_pools` performs exactly those draws for the three strategies
the paper compares:

* ``random`` — uniform over the full entity set (the OGB-style baseline);
* ``static`` — uniform *inside* the thresholded candidate set, capped at
  the set size (``n_s,r = min(n_s, |set|)`` as in Theorem 1);
* ``probabilistic`` — weighted by the recommender's score column, so
  harder (more credible) negatives are over-represented.

Each side's pools form one :class:`~repro.kg.graph.KeyedCSR` keyed by
relation (an empty pool is a missing key), the form the store and the
parallel engine's shared memory hold as they are.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.kg.graph import SIDES, KeyedCSR, KnowledgeGraph, Side, keyed_by_relation
from repro.core.candidates import CandidateSets
from repro.recommenders.base import FittedRecommender

Strategy = Literal["random", "probabilistic", "static"]

STRATEGIES: tuple[Strategy, ...] = ("random", "probabilistic", "static")


def resolve_sample_size(
    num_entities: int,
    num_samples: int | None = None,
    sample_fraction: float | None = None,
) -> int:
    """Turn a count or fraction into a concrete per-pool sample size."""
    if (num_samples is None) == (sample_fraction is None):
        raise ValueError("specify exactly one of num_samples / sample_fraction")
    if num_samples is not None:
        if num_samples <= 0:
            raise ValueError(f"num_samples must be positive, got {num_samples}")
        return min(num_samples, num_entities)
    assert sample_fraction is not None
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError(f"sample_fraction must be in (0, 1], got {sample_fraction}")
    return max(1, int(round(sample_fraction * num_entities)))


@dataclass
class NegativePools:
    """The ``2|R|`` sampled candidate pools of one evaluation run, one
    :class:`KeyedCSR` of sorted entity ids per side, keyed by relation."""

    strategy: Strategy
    pools: dict[Side, KeyedCSR]
    num_entities: int
    sample_size: int
    build_seconds: float = 0.0

    def pool(self, relation: int, side: Side) -> np.ndarray:
        """The sampled entities for one (relation, side)."""
        return self.pools[side].segment(relation)

    def total_sampled(self) -> int:
        """Total entities drawn — the Table 3 sampling-cost quantity."""
        return sum(int(self.pools[side].values.size) for side in SIDES)

    def __repr__(self) -> str:
        return (
            f"NegativePools({self.strategy!r}, n_s={self.sample_size}, "
            f"total={self.total_sampled()})"
        )


def _draw_random(
    num_entities: int, sample_size: int, rng: np.random.Generator
) -> np.ndarray:
    return rng.choice(num_entities, size=sample_size, replace=False)


def _draw_static(
    candidates: np.ndarray, sample_size: int, rng: np.random.Generator
) -> np.ndarray:
    if candidates.size == 0:
        return candidates
    take = min(sample_size, candidates.size)
    return rng.choice(candidates, size=take, replace=False)


def _draw_probabilistic(
    probabilities: np.ndarray, sample_size: int, rng: np.random.Generator
) -> np.ndarray:
    support = int(np.count_nonzero(probabilities))
    take = min(sample_size, support)
    if take == 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(probabilities.shape[0], size=take, replace=False, p=probabilities)


def build_pools(
    graph: KnowledgeGraph,
    strategy: Strategy,
    rng: np.random.Generator,
    num_samples: int | None = None,
    sample_fraction: float | None = None,
    fitted: FittedRecommender | None = None,
    candidates: CandidateSets | None = None,
) -> NegativePools:
    """Draw the per-(relation, side) pools for one strategy.

    ``probabilistic`` needs ``fitted`` (the recommender's score matrix);
    ``static`` needs ``candidates`` (the thresholded sets).  ``random``
    needs neither.
    """
    if strategy not in STRATEGIES:
        raise KeyError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == "probabilistic" and fitted is None:
        raise ValueError("probabilistic sampling requires a fitted recommender")
    if strategy == "static" and candidates is None:
        raise ValueError("static sampling requires candidate sets")
    sample_size = resolve_sample_size(
        graph.num_entities, num_samples=num_samples, sample_fraction=sample_fraction
    )
    start = time.perf_counter()
    pools: dict[Side, dict[int, np.ndarray]] = {side: {} for side in SIDES}
    for side in SIDES:
        for relation in range(graph.num_relations):
            if strategy == "random":
                pool = _draw_random(graph.num_entities, sample_size, rng)
            elif strategy == "static":
                assert candidates is not None
                pool = _draw_static(
                    candidates.candidates(relation, side), sample_size, rng
                )
            else:
                assert fitted is not None
                pool = _draw_probabilistic(
                    fitted.column_probabilities(relation, side), sample_size, rng
                )
            pools[side][relation] = pool
    return NegativePools(
        strategy=strategy,
        pools={side: keyed_by_relation(pools[side], graph.num_entities) for side in SIDES},
        num_entities=graph.num_entities,
        sample_size=sample_size,
        build_seconds=time.perf_counter() - start,
    )
