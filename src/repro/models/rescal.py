"""RESCAL (Nickel et al., 2011): full bilinear scoring ``h^T W_r t``."""

from __future__ import annotations

import numpy as np

from repro.autodiff.engine import Tensor, einsum, gather, sum_, mul
from repro.kg.graph import HEAD, Side
from repro.models.base import Array, KGEModel, RowGrad, check_ids, xavier_uniform


class RESCAL(KGEModel):
    """RESCAL with a full ``dim x dim`` matrix per relation.

    Quadratic parameter growth in ``dim`` makes RESCAL the heaviest
    factorisation model here; it is included because the paper trains it on
    five datasets and its KP correlations are notably unstable (Table 7).
    """

    name = "rescal"

    def _build_parameters(self, rng: np.random.Generator) -> None:
        self.entity = self._add_parameter(
            "entity", xavier_uniform(rng, (self.num_entities, self.dim))
        )
        self.relation = self._add_parameter(
            "relation", xavier_uniform(rng, (self.num_relations, self.dim, self.dim))
        )

    def score_triples(self, heads: Array, relations: Array, tails: Array) -> Tensor:
        h = gather(self.entity, check_ids(heads, self.num_entities, "head"))
        w = gather(self.relation, check_ids(relations, self.num_relations, "relation"))
        t = gather(self.entity, check_ids(tails, self.num_entities, "tail"))
        hw = einsum("bi,bij->bj", h, w)
        return sum_(mul(hw, t), axis=-1)

    def query_vectors(self, anchors: Array, relation: int | Array, side: Side) -> Array:
        if np.ndim(relation):
            return self._query_vectors_by_relation(anchors, relation, side)
        w = self.relation.data[relation]
        anchor_emb = self.entity.data[anchors]
        # score(h) = h . (W_r t); score(t) = (h W_r) . t
        return anchor_emb @ w.T if side == HEAD else anchor_emb @ w

    def query_vectors_vjp(
        self, anchors: Array, relations: Array, side: Side, d_queries: Array
    ) -> list[RowGrad]:
        w = self.relation.data[relations]  # (b, dim, dim)
        a = self.entity.data[anchors]
        if side == HEAD:  # q = W a: d a = W^T g, d W = g a^T
            return [
                ("entity", anchors, np.einsum("bij,bi->bj", w, d_queries)),
                ("relation", relations, d_queries[:, :, None] * a[:, None, :]),
            ]
        # q = a W: d a = W g, d W = a g^T
        return [
            ("entity", anchors, np.einsum("bij,bj->bi", w, d_queries)),
            ("relation", relations, a[:, :, None] * d_queries[:, None, :]),
        ]
