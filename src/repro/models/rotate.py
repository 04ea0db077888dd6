"""RotatE (Sun et al., 2019): relations as rotations in the complex plane.

Entities are complex vectors (``2 * dim`` reals); relations are ``dim``
phases.  ``score(h, r, t) = -sum_d |h_d * e^{i theta_d} - t_d|`` — the
negative L1 norm of complex moduli, so higher is better.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.engine import (
    Tensor,
    cos,
    gather,
    gather_cols,
    mul,
    neg,
    sin,
    sqrt,
    square,
    sub,
    sum_,
)
from repro.kg.graph import HEAD, Side
from repro.models.base import Array, KGEModel, RowGrad, check_ids, xavier_uniform


class RotatE(KGEModel):
    """RotatE with phase-parameterised unit-modulus relation embeddings."""

    name = "rotate"

    def _build_parameters(self, rng: np.random.Generator) -> None:
        self.entity = self._add_parameter(
            "entity", xavier_uniform(rng, (self.num_entities, 2 * self.dim))
        )
        self.phase = self._add_parameter(
            "phase", rng.uniform(-np.pi, np.pi, size=(self.num_relations, self.dim))
        )

    def _gather_complex(self, ids: Array) -> tuple[Tensor, Tensor]:
        rows = gather(self.entity, ids)
        re = gather_cols(rows, np.arange(self.dim))
        im = gather_cols(rows, np.arange(self.dim, 2 * self.dim))
        return re, im

    def score_triples(self, heads: Array, relations: Array, tails: Array) -> Tensor:
        h_re, h_im = self._gather_complex(check_ids(heads, self.num_entities, "head"))
        t_re, t_im = self._gather_complex(check_ids(tails, self.num_entities, "tail"))
        theta = gather(self.phase, check_ids(relations, self.num_relations, "relation"))
        r_re, r_im = cos(theta), sin(theta)
        rot_re = sub(mul(h_re, r_re), mul(h_im, r_im))
        rot_im = mul(h_re, r_im) + mul(h_im, r_re)
        d_re = sub(rot_re, t_re)
        d_im = sub(rot_im, t_im)
        modulus = sqrt(square(d_re) + square(d_im))
        return neg(sum_(modulus, axis=-1))

    def _rotation(self, relation: int | Array, side: Side) -> tuple[Array, Array]:
        # |h*r - t| = |h - t*conj(r)| for unit-modulus r, so the head side
        # rotates the anchor back instead of rotating every candidate.
        theta = self.phase.data[relation]
        return np.cos(theta), (-np.sin(theta) if side == HEAD else np.sin(theta))

    def query_vectors(self, anchors: Array, relation: int | Array, side: Side) -> Array:
        r_re, r_im = self._rotation(relation, side)
        anchor_emb = self.entity.data[anchors]
        a_re, a_im = anchor_emb[:, : self.dim], anchor_emb[:, self.dim :]
        return np.concatenate([a_re * r_re - a_im * r_im, a_re * r_im + a_im * r_re], axis=1)

    def query_vectors_vjp(
        self, anchors: Array, relations: Array, side: Side, d_queries: Array
    ) -> list[RowGrad]:
        # q = a * w: d a = g * conj(w); w = e^{+-i theta}, so d q / d theta
        # is +-i * q and d theta = +-(g_im q_re - g_re q_im).
        d = self.dim
        w_re, w_im = self._rotation(relations, side)
        q = self.query_vectors(anchors, relations, side)
        g_re, g_im = d_queries[:, :d], d_queries[:, d:]
        d_anchor = np.concatenate([g_re * w_re + g_im * w_im, g_im * w_re - g_re * w_im], axis=1)
        d_phase = g_im * q[:, :d] - g_re * q[:, d:]
        return [
            ("entity", anchors, d_anchor),
            ("phase", relations, -d_phase if side == HEAD else d_phase),
        ]

    def score_rows(self, queries: Array, candidates: Array | None = None) -> Array:
        rows = self._entity_rows(candidates)
        d_re = queries[:, None, : self.dim] - rows[..., : self.dim]
        d_im = queries[:, None, self.dim :] - rows[..., self.dim :]
        return -np.sqrt(d_re**2 + d_im**2 + 1e-12).sum(axis=2)

    def score_rows_vjp(
        self, queries: Array, candidates: Array, d_scores: Array
    ) -> tuple[Array, list[RowGrad]]:
        # score = -sum |q - c| over complex coordinates: each modulus pulls
        # -delta / |delta| back onto q and +delta / |delta| onto c.
        rows = self._entity_rows(candidates)
        d_re = queries[:, None, : self.dim] - rows[..., : self.dim]
        d_im = queries[:, None, self.dim :] - rows[..., self.dim :]
        g = d_scores[..., None] / np.sqrt(d_re**2 + d_im**2 + 1e-12)
        d_rows = np.concatenate([g * d_re, g * d_im], axis=2)
        return -d_rows.sum(axis=1), [("entity", candidates, d_rows)]
