"""RESCAL (Nickel et al., 2011): full bilinear scoring ``h^T W_r t``."""

from __future__ import annotations

import numpy as np

from repro.autodiff.engine import Tensor, einsum, gather, sum_, mul
from repro.kg.graph import HEAD, Side
from repro.models.base import Array, KGEModel, check_ids, xavier_uniform


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

    def query_vectors(self, anchors: Array, relation: int, side: Side) -> Array:
        w = self.relation.data[relation]
        anchor_emb = self.entity.data[anchors]
        # score(h) = h . (W_r t); score(t) = (h W_r) . t
        return anchor_emb @ w.T if side == HEAD else anchor_emb @ w
