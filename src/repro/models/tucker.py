"""TuckER (Balazevic et al., 2019): Tucker decomposition scoring.

``score(h, r, t) = W x_1 e_h x_2 w_r x_3 e_t`` with a shared core tensor
``W`` of shape ``(d_e, d_r, d_e)``.  We use ``d_r = d_e = dim`` to keep the
configuration surface small.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.engine import Tensor, einsum, gather, mul, sum_
from repro.kg.graph import HEAD, Side
from repro.models.base import Array, KGEModel, check_ids, xavier_uniform


class TuckER(KGEModel):
    """TuckER with a ``dim x dim x dim`` core tensor."""

    name = "tucker"

    def _build_parameters(self, rng: np.random.Generator) -> None:
        self.entity = self._add_parameter(
            "entity", xavier_uniform(rng, (self.num_entities, self.dim))
        )
        self.relation = self._add_parameter(
            "relation", xavier_uniform(rng, (self.num_relations, self.dim))
        )
        # The core starts near-diagonal so the model begins DistMult-like
        # and learns interactions from there; pure random cores train
        # noticeably slower at these small dims.
        core = 0.1 * rng.standard_normal((self.dim, self.dim, self.dim))
        idx = np.arange(self.dim)
        core[idx, idx, idx] += 1.0
        self.core = self._add_parameter("core", core)

    def score_triples(self, heads: Array, relations: Array, tails: Array) -> Tensor:
        h = gather(self.entity, check_ids(heads, self.num_entities, "head"))
        r = gather(self.relation, check_ids(relations, self.num_relations, "relation"))
        t = gather(self.entity, check_ids(tails, self.num_entities, "tail"))
        hw = einsum("bi,ijk->bjk", h, self.core)
        hrw = einsum("bjk,bj->bk", hw, r)
        return sum_(mul(hrw, t), axis=-1)

    def query_vectors(self, anchors: Array, relation: int | Array, side: Side) -> Array:
        if np.ndim(relation):
            return self._query_vectors_by_relation(anchors, relation, side)
        w = self.core.data
        r = self.relation.data[relation]
        anchor_emb = self.entity.data[anchors]
        if side == HEAD:
            # score(h) = h . (W x_2 r x_3 t)
            return np.einsum("ijk,j,bk->bi", w, r, anchor_emb)
        # score(t) = (W x_1 h x_2 r) . t
        return np.einsum("ijk,bi,j->bk", w, anchor_emb, r)
