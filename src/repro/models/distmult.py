"""DistMult (Yang et al., 2014): bilinear-diagonal scoring ``<h, r, t>``."""

from __future__ import annotations

import numpy as np

from repro.autodiff.engine import Tensor, gather, mul, sum_
from repro.kg.graph import Side
from repro.models.base import Array, KGEModel, RowGrad, check_ids, xavier_uniform


class DistMult(KGEModel):
    """DistMult: ``score(h, r, t) = sum_d e_h[d] * w_r[d] * e_t[d]``.

    The relation matrix is diagonal, which makes the model symmetric in
    head/tail — a known expressiveness limit that shows up in its ranking
    metrics but is irrelevant to the evaluation framework itself.
    """

    name = "distmult"

    def _build_parameters(self, rng: np.random.Generator) -> None:
        self.entity = self._add_parameter(
            "entity", xavier_uniform(rng, (self.num_entities, self.dim))
        )
        self.relation = self._add_parameter(
            "relation", xavier_uniform(rng, (self.num_relations, self.dim))
        )

    def score_triples(self, heads: Array, relations: Array, tails: Array) -> Tensor:
        h = gather(self.entity, check_ids(heads, self.num_entities, "head"))
        r = gather(self.relation, check_ids(relations, self.num_relations, "relation"))
        t = gather(self.entity, check_ids(tails, self.num_entities, "tail"))
        return sum_(mul(mul(h, r), t), axis=-1)

    def query_vectors(self, anchors: Array, relation: int | Array, side: Side) -> Array:
        del side  # DistMult is head/tail symmetric
        return self.entity.data[anchors] * self.relation.data[relation]

    def query_vectors_vjp(
        self, anchors: Array, relations: Array, side: Side, d_queries: Array
    ) -> list[RowGrad]:
        del side
        return [
            ("entity", anchors, d_queries * self.relation.data[relations]),
            ("relation", relations, d_queries * self.entity.data[anchors]),
        ]
