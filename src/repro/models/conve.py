"""ConvE (Dettmers et al., 2018): 2-D convolution over stacked embeddings.

The head and relation embeddings are reshaped into two stacked 2-D maps,
convolved with ``num_filters`` learned ``k x k`` kernels (valid padding),
passed through ReLU, projected back to entity space and scored against the
tail embedding plus a per-entity bias.

Two implementation notes:

* The convolution is expressed as im2col (a constant-index
  :func:`~repro.autodiff.engine.gather_cols`) followed by an einsum with
  the filter bank, which is exact and keeps the autodiff operator set tiny.
* Like LibKGE's ConvE, the model uses **reciprocal relations**: the
  relation table holds ``2 * |R|`` rows and a head query ``(?, r, t)`` is
  scored as the tail query ``(t, r + |R|, ?)``.  The trainer augments
  batches with inverse triples when it sees :attr:`inverse_offset`.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.engine import (
    Tensor,
    concat,
    einsum,
    gather,
    gather_cols,
    mul,
    relu,
    reshape,
    sum_,
)
from repro.kg.graph import HEAD, Side
from repro.models.base import Array, KGEModel, check_ids, xavier_uniform


def _im2col_indices(height: int, width: int, kernel: int) -> np.ndarray:
    """``(P, kernel*kernel)`` flat indices of valid conv patches."""
    out_h = height - kernel + 1
    out_w = width - kernel + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel {kernel} too large for {height}x{width} input"
        )
    patches = np.empty((out_h * out_w, kernel * kernel), dtype=np.int64)
    position = 0
    for oy in range(out_h):
        for ox in range(out_w):
            offsets = [
                (oy + dy) * width + (ox + dx)
                for dy in range(kernel)
                for dx in range(kernel)
            ]
            patches[position] = offsets
            position += 1
    return patches


def _auto_height(dim: int, kernel: int) -> int:
    """The squarest embedding height whose stacked image fits the kernel.

    The image is ``(2 * height) x (dim / height)``; both sides must be at
    least ``kernel`` for a valid convolution to exist.
    """
    best = None
    for height in range(1, dim + 1):
        if dim % height:
            continue
        width = dim // height
        if 2 * height < kernel or width < kernel:
            continue
        squareness = abs(2 * height - width)
        if best is None or squareness < best[0]:
            best = (squareness, height)
    if best is None:
        raise ValueError(f"no embedding height fits kernel {kernel} for dim={dim}")
    return best[1]


class ConvE(KGEModel):
    """ConvE with im2col convolution and reciprocal relations.

    Parameters
    ----------
    embedding_height:
        Number of rows each embedding reshapes into; ``dim`` must be
        divisible by it.  The stacked input image is
        ``(2 * embedding_height) x (dim / embedding_height)``.  When
        omitted, the squarest height whose image fits the kernel is
        chosen automatically.
    num_filters, kernel_size:
        Convolution bank shape.
    """

    name = "conve"
    extra_init_fields = ("embedding_height", "num_filters", "kernel_size")

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int = 32,
        seed: int = 0,
        dtype: str = "float64",
        embedding_height: int | None = None,
        num_filters: int = 8,
        kernel_size: int = 3,
    ):
        if embedding_height is None:
            embedding_height = _auto_height(dim, kernel_size)
        if dim % embedding_height != 0:
            raise ValueError(f"dim={dim} not divisible by embedding_height={embedding_height}")
        self.embedding_height = embedding_height
        self.embedding_width = dim // embedding_height
        self.num_filters = num_filters
        self.kernel_size = kernel_size
        self.image_height = 2 * embedding_height
        self.image_width = self.embedding_width
        self._patches = _im2col_indices(self.image_height, self.image_width, kernel_size)
        super().__init__(num_entities, num_relations, dim=dim, seed=seed, dtype=dtype)

    @property
    def inverse_offset(self) -> int:
        """Relation-id offset of the reciprocal direction."""
        return self.num_relations

    def _build_parameters(self, rng: np.random.Generator) -> None:
        self.entity = self._add_parameter(
            "entity", xavier_uniform(rng, (self.num_entities, self.dim))
        )
        self.relation = self._add_parameter(
            "relation", xavier_uniform(rng, (2 * self.num_relations, self.dim))
        )
        self.filters = self._add_parameter(
            "filters",
            xavier_uniform(rng, (self.num_filters, self.kernel_size**2)),
        )
        hidden = self._patches.shape[0] * self.num_filters
        self.fc = self._add_parameter("fc", xavier_uniform(rng, (hidden, self.dim)))
        self.bias = self._add_parameter("bias", np.zeros(self.num_entities))

    # ------------------------------------------------------------------
    # Shared forward pass
    # ------------------------------------------------------------------
    def _features(self, head_ids: Array, relation_ids: Array) -> Tensor:
        """Differentiable ``(b, dim)`` feature vectors for (head, relation)."""
        h = gather(self.entity, head_ids)
        r = gather(self.relation, relation_ids)
        image = concat([h, r], axis=-1)  # (b, 2*dim) == flattened stacked image
        patches = gather_cols(image, self._patches)  # (b, P, k*k)
        conv = relu(einsum("bpk,fk->bpf", patches, self.filters))
        flat = reshape(conv, (conv.shape[0], self.fc.data.shape[0]))
        return relu(einsum("bm,md->bd", flat, self.fc))

    # ------------------------------------------------------------------
    def score_triples(self, heads: Array, relations: Array, tails: Array) -> Tensor:
        head_ids = check_ids(heads, self.num_entities, "head")
        relation_ids = check_ids(relations, 2 * self.num_relations, "relation")
        tail_ids = check_ids(tails, self.num_entities, "tail")
        features = self._features(head_ids, relation_ids)
        t = gather(self.entity, tail_ids)
        b = gather(self.bias, tail_ids)
        return sum_(mul(features, t), axis=-1) + b

    def query_vectors(self, anchors: Array, relation: int | Array, side: Side) -> Array:
        if np.ndim(relation):
            return self._query_vectors_by_relation(anchors, relation, side)
        relation_id = relation + self.inverse_offset if side == HEAD else relation
        relation_rows = np.broadcast_to(
            self.relation.data[relation_id], (anchors.shape[0], self.dim)
        )
        images = np.concatenate([self.entity.data[anchors], relation_rows], axis=1)
        patches = images[:, self._patches]  # (b, P, k*k)
        conv = np.maximum(patches @ self.filters.data.T, 0.0)  # (b, P, F)
        flat = conv.reshape(anchors.shape[0], self.fc.data.shape[0])
        return np.maximum(flat @ self.fc.data, 0.0)  # (b, dim)

    def score_rows(self, queries: Array, candidates: Array | None = None) -> Array:
        bias = self.bias.data if candidates is None else self.bias.data[candidates]
        return super().score_rows(queries, candidates) + bias
