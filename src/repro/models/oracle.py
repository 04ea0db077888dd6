"""A synthetic scorer with controllable accuracy — no training required.

The estimator experiments need models whose *true* ranking metrics span a
wide range; training seven KGE models to different quality levels is slow.
:class:`OracleModel` produces scores directly from the graph structure:

* every entity gets i.i.d. Gaussian noise per query, derived from a
  counter-based hash so any subset of candidates can be scored in O(k)
  without materialising the full score vector;
* entities observed on the query's relation-side in training (the
  *hard-negative* pool) get a popularity-weighted ``domain_bonus`` — real
  KGC models rank popular type-compatible entities highest (the "France"
  effect), and that structure is what lets score-guided sampling catch
  almost all competitors early;
* the query's known true answers are re-drawn at the top-competitor level
  plus ``skill``.

Raising ``skill`` moves the true answer above more of the popular
competitors, sweeping the model smoothly from chance-level to
near-perfect MRR.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from repro.autodiff.engine import Tensor
from repro.kg.graph import KnowledgeGraph, Side
from repro.models.base import Array, HashScorer, check_ids
from repro.models.random_model import _mix

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MULT = np.uint64(0xBF58476D1CE4E5B9)
_OFFSET = np.uint64(0x632BE59BD9B4E019)


def _hash_uniform(keys: np.ndarray, seed: "int | np.ndarray") -> np.ndarray:
    """Deterministic uniform(0, 1) numbers from integer keys (vectorised).

    ``seed`` may be a scalar or an array broadcastable against ``keys``
    (one seed per row scores a whole query batch at once).  SplitMix64-
    style mixing; overflow wrap-around is the point of the construction,
    so the overflow warnings are silenced locally.
    """
    with np.errstate(over="ignore"):
        seed_bits = (
            np.uint64(seed & 0x7FFFFFFFFFFFFFFF)
            if isinstance(seed, (int, np.integer))
            else (np.asarray(seed).astype(np.uint64) & np.uint64(0x7FFFFFFFFFFFFFFF))
        )
        state = (keys.astype(np.uint64) + seed_bits) * _GOLDEN
        state ^= state >> np.uint64(30)
        state = (state + _OFFSET) * _MULT
        state ^= state >> np.uint64(27)
        state *= _MULT
        state ^= state >> np.uint64(31)
    # 53-bit mantissa -> uniform in (0, 1), clamped away from the edges.
    uniform = (state >> np.uint64(11)).astype(np.float64) * (2.0**-53)
    return np.clip(uniform, 1e-12, 1.0 - 1e-12)


def _hash_normal(keys: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic standard-normal numbers from integer keys."""
    return ndtri(_hash_uniform(keys, seed))


class OracleModel(HashScorer):
    """Graph-aware synthetic scorer with a ``skill`` dial.

    Parameters
    ----------
    graph:
        The graph whose filter index and observed domains/ranges define the
        hard-negative pools and true answers.
    skill:
        Mean bonus of true answers over the top of the hard-negative pool.
        ``0`` is chance level among the popular competitors; ``4+`` is
        near-perfect.
    domain_bonus:
        Gap between the hard-negative pool and the easy-negative mass.
    """

    name = "oracle"

    def __init__(
        self,
        graph: KnowledgeGraph,
        skill: float = 2.0,
        domain_bonus: float = 4.0,
        seed: int = 0,
    ):
        self.graph = graph
        self.skill = float(skill)
        self.domain_bonus = float(domain_bonus)
        self._pool_bonus: dict[tuple[int, Side], np.ndarray] = {}
        self._degree_counts: dict[Side, np.ndarray] = {}
        super().__init__(graph.num_entities, graph.num_relations, dim=1, seed=seed)

    def _build_parameters(self, rng: np.random.Generator) -> None:
        self._add_parameter("unused", np.zeros(1))

    # ------------------------------------------------------------------
    def _popularity_bonus(self, relation: int, side: Side) -> np.ndarray:
        """Per-entity pool bonus for one relation-side (cached, |E| floats).

        Pool entities get ``domain_bonus * (0.5 + popularity)`` with
        popularity their observed count normalised by the column maximum;
        everything else gets 0.
        """
        key = (relation, side)
        cached = self._pool_bonus.get(key)
        if cached is not None:
            return cached
        counts = self._degree_counts.get(side)
        if counts is None:
            counts = self.graph.degree_counts(side).astype(np.float64)
            self._degree_counts[side] = counts
        column = counts[:, relation]
        peak = column.max()
        bonus = np.zeros(self.num_entities)
        if peak > 0:
            pool = column > 0
            bonus[pool] = self.domain_bonus * (0.5 + column[pool] / peak)
        self._pool_bonus[key] = bonus
        return bonus

    def _query_seed(self, anchor: int, relation: int, side: Side, salt: int) -> int:
        side_bit = 0 if side == "head" else 1
        return _mix(self.seed, salt, anchor, relation, side_bit)

    # ------------------------------------------------------------------
    def score_triples(self, heads: Array, relations: Array, tails: Array) -> Tensor:
        heads = check_ids(heads, self.num_entities, "head")
        relations = check_ids(relations, self.num_relations, "relation")
        tails = check_ids(tails, self.num_entities, "tail")
        return Tensor(self.score_triples_numpy(heads, relations, tails))

    def _score_batch(
        self, anchors: Array, relation: int, side: Side, candidates: Array | None
    ) -> Array:
        """O(b * k) hash-derived scores of ``candidates`` for each anchor."""
        if candidates is None:
            candidates = np.arange(self.num_entities, dtype=np.int64)
        noise_seeds = np.asarray(
            [self._query_seed(int(a), relation, side, salt=7_919) for a in anchors]
        )[:, None]
        scores = ndtri(_hash_uniform(candidates[None, :], noise_seeds))
        scores += self._popularity_bonus(relation, side)[candidates][None, :]
        for i, anchor in enumerate(anchors):
            truths = self.graph.true_answers(int(anchor), relation, side)
            if truths.size == 0:
                continue
            is_truth = np.isin(candidates, truths)
            if is_truth.any():
                truth_seed = self._query_seed(int(anchor), relation, side, salt=104_729)
                scores[i, is_truth] = (
                    _hash_normal(candidates[is_truth], truth_seed)
                    + 1.5 * self.domain_bonus
                    + self.skill
                )
        return scores
