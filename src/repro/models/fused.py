"""Fused training: the inference forward plus hand-written backwards.

The pure-Python autodiff engine is a correctness substrate, not a training
engine: it builds a graph node per op and materialises *dense* gradients
for full embedding tables on every batch.  A model whose class supplies
the backward of its inference pieces trains here instead, in one
vectorized numpy pass per batch that touches only the embedding rows the
batch uses:

* **forward** — the batch is split by corrupted side; per side, one
  :meth:`~repro.models.base.KGEModel.query_vectors` call over the
  uncorrupted anchors (an ``(b,)`` relation array) and one
  :meth:`~repro.models.base.KGEModel.score_rows` call scoring
  ``[truth | corruptions]`` as a ``(b, 1 + k)`` per-row candidate product;
* **loss** — the fused loss gradient (below) turns the positive and
  negative scores into score gradients;
* **backward** — :meth:`~repro.models.base.KGEModel.score_rows_vjp` (one
  per score family) and :meth:`~repro.models.base.KGEModel.query_vectors_vjp`
  (one per model) turn them into ``(param, rows, grads)`` contributions for
  :meth:`repro.models.optim.Optimizer.step_rows`.

:func:`trains_fused` decides the path from the model's class alone; every
other model trains through ``score_triples`` and :mod:`repro.autodiff`,
which is also the gradient oracle: :func:`autodiff_gradients` replays a
batch through the engine and :func:`fused_gradients` densifies the fused
row gradients, so tests and ``benchmarks/bench_training.py`` assert the two
agree to ~1e-9 in float64.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.kg.graph import HEAD, TAIL
from repro.models.base import Array, KGEModel, check_ids

#: Fused loss gradient: (positive (b,), negative (b, k), margin) ->
#: (loss value, d loss / d positive, d loss / d negative).
LossGrad = Callable[[Array, Array, float], tuple[float, Array, Array]]

_FUSED_LOSSES: dict[str, LossGrad] = {}


def register_fused_loss(name: str):
    """Registry decorator keyed by the :mod:`repro.models.losses` name."""

    def wrap(fn: LossGrad) -> LossGrad:
        _FUSED_LOSSES[name] = fn
        return fn

    return wrap


def available_fused_losses() -> list[str]:
    """Names with a fused gradient implementation, sorted."""
    return sorted(_FUSED_LOSSES)


def get_fused_loss(name: str) -> LossGrad | None:
    """The fused gradient for ``name``, or None (caller falls back)."""
    return _FUSED_LOSSES.get(name)


# Each loss mirrors one in repro.models.losses, replicating the autodiff
# ops exactly (same relu mask convention, same clipped sigmoid, same stable
# softplus), so float64 gradients agree with the engine to accumulation-
# order rounding (~1e-16 relative).
def _sigmoid(x: Array) -> Array:
    # Clipped exactly like repro.autodiff.engine.sigmoid / softplus.
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _softplus(x: Array) -> Array:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


@register_fused_loss("margin")
def margin_grad(positive: Array, negative: Array, margin: float = 1.0):
    """``mean(relu(margin - pos + neg))`` and its score gradients."""
    slack = (negative - positive[:, None]) + margin
    mask = slack > 0.0
    n = slack.size
    loss = float(np.where(mask, slack, 0.0).sum() / n)
    d_neg = mask.astype(positive.dtype) / n
    d_pos = -d_neg.sum(axis=1)
    return loss, d_pos, d_neg


@register_fused_loss("bce")
def bce_grad(positive: Array, negative: Array, margin: float = 0.0):
    """Binary cross-entropy with logits (per-block means, as in losses)."""
    del margin
    loss = float(_softplus(-positive).mean() + _softplus(negative).mean())
    d_pos = -_sigmoid(-positive) / positive.shape[0]
    d_neg = _sigmoid(negative) / negative.size
    return loss, d_pos, d_neg


@register_fused_loss("softplus")
def softplus_grad(positive: Array, negative: Array, margin: float = 0.0):
    """Logistic loss of Trouillon et al. — same blocks as ``bce``."""
    return bce_grad(positive, negative)


def _owner(cls: type, name: str) -> type:
    return next(klass for klass in cls.__mro__ if name in vars(klass))


def trains_fused(model: KGEModel) -> bool:
    """Whether ``model`` trains on its inference forward (else autodiff).

    True when the class defining its ``query_vectors`` also defines
    ``query_vectors_vjp``, the class defining its ``score_rows`` also
    defines ``score_rows_vjp``, and ``score_triples`` is not overridden
    below both — a subclass that changes the score without its backward
    trains through autodiff instead of silently using the parent's.
    """
    cls = type(model)
    query, rows, triples = (
        _owner(cls, name) for name in ("query_vectors", "score_rows", "score_triples")
    )
    return (
        query is not KGEModel
        and _owner(cls, "query_vectors_vjp") is query
        and _owner(cls, "score_rows_vjp") is rows
        and (issubclass(query, triples) or issubclass(rows, triples))
    )


def fused_step(
    model: KGEModel,
    loss_grad: LossGrad,
    heads: Array,
    relations: Array,
    tails: Array,
    corrupted: Array,
    corrupt_head: Array,
    margin: float = 1.0,
) -> tuple[float, dict[str, tuple[Array, Array]]]:
    """One fused forward+backward pass over a batch and its corruptions.

    ``corrupted[i]`` holds the replacement entities of triple ``i`` and
    ``corrupt_head[i]`` says which side they replace.  Returns ``(loss
    value, {param name: (rows, grads)})``; duplicate rows are the
    optimizer's to accumulate.
    """
    heads = check_ids(heads, model.num_entities, "head")
    tails = check_ids(tails, model.num_entities, "tail")
    relations = check_ids(relations, model.num_relations, "relation")
    corrupted = check_ids(corrupted, model.num_entities, "corrupted entity")
    corrupt_head = np.asarray(corrupt_head, dtype=bool)
    scores = np.empty((corrupted.shape[0], 1 + corrupted.shape[1]), dtype=model.np_dtype)
    forwards = []
    for side, rows in ((HEAD, np.flatnonzero(corrupt_head)), (TAIL, np.flatnonzero(~corrupt_head))):
        if not rows.size:
            continue
        anchors, truths = (tails[rows], heads[rows]) if side == HEAD else (heads[rows], tails[rows])
        candidates = np.concatenate([truths[:, None], corrupted[rows]], axis=1)
        queries = model.query_vectors(anchors, relations[rows], side)
        scores[rows] = model.score_rows(queries, candidates)
        forwards.append((side, rows, anchors, candidates, queries))

    loss, d_pos, d_neg = loss_grad(scores[:, 0], scores[:, 1:], margin)
    d_scores = np.concatenate([d_pos[:, None], d_neg], axis=1).astype(scores.dtype, copy=False)
    shapes = {name: p.data.shape[1:] for name, p in model.parameters.items()}
    merged: dict[str, tuple[list[Array], list[Array]]] = {}
    for side, rows, anchors, candidates, queries in forwards:
        d_queries, contributions = model.score_rows_vjp(queries, candidates, d_scores[rows])
        contributions += model.query_vectors_vjp(anchors, relations[rows], side, d_queries)
        for name, ids, grads in contributions:
            ids_list, grads_list = merged.setdefault(name, ([], []))
            ids_list.append(ids.reshape(-1))
            grads_list.append(grads.reshape(ids.size, *shapes[name]))
    return loss, {
        name: (np.concatenate(ids_list), np.concatenate(grads_list))
        for name, (ids_list, grads_list) in merged.items()
    }


# ----------------------------------------------------------------------
# Equivalence helpers (used by tests and benchmarks/bench_training.py)
# ----------------------------------------------------------------------
def fused_gradients(
    model: KGEModel,
    loss_name: str,
    heads: Array,
    relations: Array,
    tails: Array,
    corrupted: Array,
    corrupt_head: Array,
    margin: float = 1.0,
) -> tuple[float, dict[str, Array]]:
    """:func:`fused_step`'s loss and gradients, densified per parameter."""
    if not trains_fused(model):
        raise KeyError(f"{type(model).__name__} does not train fused")
    loss_grad = get_fused_loss(loss_name)
    if loss_grad is None:
        raise KeyError(f"no fused gradient for loss {loss_name!r}")
    loss, row_grads = fused_step(
        model, loss_grad, heads, relations, tails, corrupted, corrupt_head, margin=margin
    )
    dense = {name: np.zeros_like(p.data) for name, p in model.parameters.items()}
    for name, (rows, grads) in row_grads.items():
        np.add.at(dense[name], rows, grads)
    return loss, dense


def expand_corruptions(
    heads: Array, relations: Array, tails: Array, corrupted: Array, corrupt_head: Array
) -> tuple[Array, Array, Array]:
    """Materialise ``(neg_heads, neg_relations, neg_tails)`` triples."""
    k = corrupted.shape[1]
    neg_heads = np.where(corrupt_head[:, None], corrupted, heads[:, None])
    neg_tails = np.where(corrupt_head[:, None], tails[:, None], corrupted)
    neg_relations = np.repeat(relations[:, None], k, axis=1)
    return neg_heads, neg_relations, neg_tails


def autodiff_gradients(
    model: KGEModel,
    loss_name: str,
    heads: Array,
    relations: Array,
    tails: Array,
    corrupted: Array,
    corrupt_head: Array,
    margin: float = 1.0,
) -> tuple[float, dict[str, Array]]:
    """The reference gradients: the trainer's autodiff path, verbatim."""
    from repro.autodiff.engine import reshape
    from repro.models.losses import get_loss

    b, k = corrupted.shape
    neg_heads, neg_relations, neg_tails = expand_corruptions(
        heads, relations, tails, corrupted, corrupt_head
    )
    model.zero_grad()
    positive = model.score_triples(heads, relations, tails)
    negative_flat = model.score_triples(
        neg_heads.reshape(-1), neg_relations.reshape(-1), neg_tails.reshape(-1)
    )
    negative = reshape(negative_flat, (b, k))
    loss = get_loss(loss_name)(positive, negative, margin=margin)
    loss.backward()
    grads = {
        name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
        for name, p in model.parameters.items()
    }
    model.zero_grad()
    return float(loss.data), grads
