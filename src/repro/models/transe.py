"""TransE (Bordes et al., 2013): translation scoring ``-||h + r - t||``."""

from __future__ import annotations

import numpy as np

from repro.autodiff.engine import Tensor, abs_, gather, neg, sqrt, square, sub, sum_
from repro.kg.graph import HEAD, Side
from repro.models.base import Array, KGEModel, RowGrad, check_ids, xavier_uniform


class TransE(KGEModel):
    """TransE with L1 (default) or L2 distance.

    The score of ``(h, r, t)`` is ``-||e_h + w_r - e_t||_p``; higher is
    better, consistent with every other model in the library.
    """

    name = "transe"
    extra_init_fields = ("norm",)

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int = 32,
        seed: int = 0,
        dtype: str = "float64",
        norm: int = 1,
    ):
        if norm not in (1, 2):
            raise ValueError(f"TransE norm must be 1 or 2, got {norm}")
        self.norm = norm
        super().__init__(num_entities, num_relations, dim=dim, seed=seed, dtype=dtype)

    def _build_parameters(self, rng: np.random.Generator) -> None:
        self.entity = self._add_parameter(
            "entity", xavier_uniform(rng, (self.num_entities, self.dim))
        )
        self.relation = self._add_parameter(
            "relation", xavier_uniform(rng, (self.num_relations, self.dim))
        )

    # ------------------------------------------------------------------
    def score_triples(self, heads: Array, relations: Array, tails: Array) -> Tensor:
        h = gather(self.entity, check_ids(heads, self.num_entities, "head"))
        r = gather(self.relation, check_ids(relations, self.num_relations, "relation"))
        t = gather(self.entity, check_ids(tails, self.num_entities, "tail"))
        diff = sub(h + r, t)
        if self.norm == 1:
            return neg(sum_(abs_(diff), axis=-1))
        return neg(sqrt(sum_(square(diff), axis=-1)))

    def query_vectors(self, anchors: Array, relation: int | Array, side: Side) -> Array:
        # The best candidate sits at q: t = h + r on the tail side, h = t - r
        # on the head side.
        r = self.relation.data[relation]
        anchor_emb = self.entity.data[anchors]
        return anchor_emb - r if side == HEAD else anchor_emb + r

    def query_vectors_vjp(
        self, anchors: Array, relations: Array, side: Side, d_queries: Array
    ) -> list[RowGrad]:
        d_relation = -d_queries if side == HEAD else d_queries
        return [("entity", anchors, d_queries), ("relation", relations, d_relation)]

    def score_rows(self, queries: Array, candidates: Array | None = None) -> Array:
        diff = queries[:, None, :] - self._entity_rows(candidates)
        if self.norm == 1:
            return -np.abs(diff).sum(axis=2)
        return -np.sqrt((diff**2).sum(axis=2) + 1e-12)

    def score_rows_vjp(
        self, queries: Array, candidates: Array, d_scores: Array
    ) -> tuple[Array, list[RowGrad]]:
        # score = -||q - c||: d score / d q = -direction, d score / d c = +direction.
        diff = queries[:, None, :] - self._entity_rows(candidates)
        if self.norm == 1:
            direction = np.sign(diff)
        else:
            direction = diff / np.sqrt((diff**2).sum(axis=2, keepdims=True) + 1e-12)
        g = d_scores[..., None] * direction
        return -g.sum(axis=1), [("entity", candidates, g)]
