"""ComplEx (Trouillon et al., 2016): ``Re(<h, r, conj(t)>)`` over C^d.

Complex embeddings are stored as ``2 * dim`` reals per row, the first half
real parts and the second half imaginary parts.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.engine import Tensor, gather, mul, sub, sum_
from repro.kg.graph import HEAD, Side
from repro.models.base import Array, KGEModel, RowGrad, check_ids, xavier_uniform


def _split(data: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    return data[..., :dim], data[..., dim:]


class ComplEx(KGEModel):
    """ComplEx with ``dim`` complex coordinates (``2 * dim`` parameters).

    ``score(h, r, t) = Re(sum_d h_d * r_d * conj(t_d))`` which expands to::

        hr_re . t_re + hr_im . t_im
        where hr_re = h_re*r_re - h_im*r_im and hr_im = h_re*r_im + h_im*r_re

    The asymmetry under conjugation is what lets ComplEx model ordered
    relations DistMult cannot.
    """

    name = "complex"

    def _build_parameters(self, rng: np.random.Generator) -> None:
        self.entity = self._add_parameter(
            "entity", xavier_uniform(rng, (self.num_entities, 2 * self.dim))
        )
        self.relation = self._add_parameter(
            "relation", xavier_uniform(rng, (self.num_relations, 2 * self.dim))
        )

    def _gather_split(self, table: Tensor, ids: Array) -> tuple[Tensor, Tensor]:
        from repro.autodiff.engine import gather_cols

        rows = gather(table, ids)
        # rows is (b, 2*dim); split via slicing on a reshape-free path.
        re = gather_cols(rows, np.arange(self.dim)) if rows.ndim == 2 else rows
        im = gather_cols(rows, np.arange(self.dim, 2 * self.dim))
        return re, im

    def score_triples(self, heads: Array, relations: Array, tails: Array) -> Tensor:
        h_re, h_im = self._gather_split(self.entity, check_ids(heads, self.num_entities, "head"))
        r_re, r_im = self._gather_split(
            self.relation, check_ids(relations, self.num_relations, "relation")
        )
        t_re, t_im = self._gather_split(self.entity, check_ids(tails, self.num_entities, "tail"))
        hr_re = sub(mul(h_re, r_re), mul(h_im, r_im))
        hr_im = mul(h_re, r_im) + mul(h_im, r_re)
        return sum_(mul(hr_re, t_re) + mul(hr_im, t_im), axis=-1)

    def query_vectors(self, anchors: Array, relation: int | Array, side: Side) -> Array:
        # Returned as [q_re | q_im] so the product is one full-width GEMM
        # against the contiguous (N, 2*dim) entity table.
        r_re, r_im = _split(self.relation.data[relation], self.dim)
        a_re, a_im = _split(self.entity.data[anchors], self.dim)
        if side == HEAD:
            # score(h) = h_re.(r_re*t_re + r_im*t_im) + h_im.(r_re*t_im - r_im*t_re)
            q_re = r_re * a_re + r_im * a_im
            q_im = r_re * a_im - r_im * a_re
        else:
            # score(t) = t_re.(h_re*r_re - h_im*r_im) + t_im.(h_re*r_im + h_im*r_re)
            q_re = a_re * r_re - a_im * r_im
            q_im = a_re * r_im + a_im * r_re
        return np.concatenate([q_re, q_im], axis=1)

    def query_vectors_vjp(
        self, anchors: Array, relations: Array, side: Side, d_queries: Array
    ) -> list[RowGrad]:
        # q = a * w with w = r (tail) or conj(r) (head), so d a = g * conj(w)
        # and d w = g * conj(a); w's imaginary part carries the side's sign.
        sign = -1.0 if side == HEAD else 1.0
        r_re, r_im = _split(self.relation.data[relations], self.dim)
        a_re, a_im = _split(self.entity.data[anchors], self.dim)
        g_re, g_im = _split(d_queries, self.dim)
        w_im = sign * r_im
        d_anchor = np.concatenate([g_re * r_re + g_im * w_im, g_im * r_re - g_re * w_im], axis=1)
        d_relation = np.concatenate(
            [g_re * a_re + g_im * a_im, sign * (g_im * a_re - g_re * a_im)], axis=1
        )
        return [("entity", anchors, d_anchor), ("relation", relations, d_relation)]
