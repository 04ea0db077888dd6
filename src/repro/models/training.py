"""Negative-sampling trainer for KGE models.

The trainer implements the standard KGC training loop: minibatch the
training triples, corrupt each triple into ``num_negatives`` negatives
(half head-corrupted, half tail-corrupted), compute one of the losses in
:mod:`repro.models.losses`, and take an optimizer step.  Epoch-end
callbacks receive the model and can run (full or estimated) evaluation —
that hook is how every "per-epoch correlation" experiment in the paper is
driven.

Two negative samplers are provided:

* :class:`UniformNegativeSampler` — the standard corruption scheme;
* :class:`RecommenderNegativeSampler` — corrupts with entities drawn from
  relation-recommender probabilities, the paper's Section 7 future-work
  item (harder negatives during *training*, not just evaluation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.autodiff.engine import reshape
from repro.kg.graph import KeyedCSR, KnowledgeGraph, build_keyed_csr, id_dtype
from repro.obs import get_tracer
from repro.models.base import KGEModel
from repro.models.fused import LossGrad, fused_step, get_fused_loss, trains_fused
from repro.models.losses import get_loss, loss_value
from repro.models.optim import build_optimizer


class NegativeSampler(Protocol):
    """Produces corrupted entity ids for a batch of training triples."""

    def corrupt(
        self,
        relations: np.ndarray,
        num_negatives: int,
        corrupt_head: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """``(b, num_negatives)`` replacement entity ids.

        ``corrupt_head`` is a boolean ``(b,)`` mask: True rows replace the
        head, False rows replace the tail.  Samplers may condition on the
        relation and side (the recommender sampler does).
        """
        ...


def triple_keys(heads: np.ndarray, relations: np.ndarray, num_entities: int) -> np.ndarray:
    """The int64 key ``relation * |E| + head`` under which a known-triple
    index (:func:`known_triple_index`) stores each triple's tail.

    Collision-free for heads below ``num_entities``; a relation no known
    triple has is a missing key, so it needs no mask.
    """
    return np.asarray(relations, dtype=np.int64) * num_entities + heads


def known_triple_index(triples: np.ndarray, num_entities: int) -> KeyedCSR:
    """An ``(n, 3)`` triple set as one :class:`~repro.kg.graph.KeyedCSR`:
    one vectorised ``contains(triple_keys(h, r), t)`` per batch, for both
    false-negative filters (the trainer's default one-redraw filter and
    :meth:`UniformNegativeSampler.resample_collisions`)."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    return build_keyed_csr(
        triple_keys(triples[:, 0], triples[:, 1], num_entities),
        triples[:, 2],
        id_dtype(num_entities),
    )


class UniformNegativeSampler:
    """Uniform corruption over the full entity vocabulary.

    ``filter_positives=True`` opts into bounded-round false-negative
    rejection: corruptions that collide with a known true triple are
    redrawn (uniformly, in bounded rounds) until the batch is collision
    free.  ``known_triples`` accepts a :class:`~repro.kg.graph.
    KnowledgeGraph` (all splits) or an ``(n, 3)`` integer array /
    iterable of ``(h, r, t)`` triples.  The trainer calls
    :meth:`resample_collisions` in place of its own one-redraw filter
    whenever the sampler was built this way.
    """

    def __init__(
        self,
        num_entities: int,
        known_triples=None,
        filter_positives: bool = False,
        max_rounds: int = 16,
    ):
        if num_entities <= 0:
            raise ValueError("need a positive entity count")
        if filter_positives and known_triples is None:
            raise ValueError("filter_positives=True requires known_triples")
        self.num_entities = num_entities
        self.filter_positives = filter_positives
        self.max_rounds = max_rounds
        self._known: KeyedCSR | None = None
        if known_triples is not None:
            triples = (
                known_triples.all_triples.array
                if isinstance(known_triples, KnowledgeGraph)
                else np.asarray(list(known_triples), dtype=np.int64)
            )
            self._known = known_triple_index(triples, num_entities)

    def corrupt(
        self,
        relations: np.ndarray,
        num_negatives: int,
        corrupt_head: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        del corrupt_head  # uniform sampling ignores the side
        return rng.integers(
            self.num_entities, size=(relations.shape[0], num_negatives)
        )

    def resample_collisions(
        self,
        neg_heads: np.ndarray,
        neg_relations: np.ndarray,
        neg_tails: np.ndarray,
        corrupt_head: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        """Redraw (in place) corruptions that form known true triples.

        Returns the number of collisions remaining after ``max_rounds``
        (0 in practice: each round redraws uniformly, so survivors decay
        geometrically with the true-triple density).
        """
        if self._known is None:
            raise ValueError("sampler was built without known_triples")
        head_slots = np.broadcast_to(corrupt_head[:, None], neg_heads.shape)
        for _ in range(self.max_rounds):
            keys = triple_keys(neg_heads, neg_relations, self.num_entities)
            colliding = self._known.contains(keys, neg_tails)
            if not colliding.any():
                return 0
            redraw_heads = colliding & head_slots
            redraw_tails = colliding & ~head_slots
            if redraw_heads.any():
                neg_heads[redraw_heads] = rng.integers(
                    self.num_entities, size=int(redraw_heads.sum())
                )
            if redraw_tails.any():
                neg_tails[redraw_tails] = rng.integers(
                    self.num_entities, size=int(redraw_tails.sum())
                )
        keys = triple_keys(neg_heads, neg_relations, self.num_entities)
        return int(self._known.contains(keys, neg_tails).sum())


class RecommenderNegativeSampler:
    """Corruption guided by relation-recommender scores (paper Section 7).

    For a triple of relation ``r``, head corruptions come from the domain
    column of the score matrix and tail corruptions from its range column,
    so negatives are concentrated on *credible* (hard) entities.  Two
    guidance modes:

    * ``"proportional"`` — sampling probability proportional to the score
      (the paper's probabilistic evaluation strategy transplanted to
      training).  Aggressive: over-trains against popular entities;
    * ``"support"`` — uniform within the non-zero-score candidate set,
      the type-constrained corruption of Krompass et al. (2015) that the
      paper cites as the established variant.

    A uniform-mixing floor keeps every entity reachable in both modes.
    """

    def __init__(
        self,
        scores,
        num_relations: int,
        uniform_mix: float = 0.1,
        mode: str = "support",
    ):
        # ``scores`` is anything exposing column_probabilities(relation, side)
        # — in practice a fitted recommender from repro.recommenders.
        if not 0.0 <= uniform_mix <= 1.0:
            raise ValueError(f"uniform_mix must be in [0, 1], got {uniform_mix}")
        if mode not in ("proportional", "support"):
            raise ValueError(f"mode must be 'proportional' or 'support', got {mode!r}")
        self.scores = scores
        self.num_relations = num_relations
        self.uniform_mix = uniform_mix
        self.mode = mode
        self._cache: dict[tuple[int, str], np.ndarray] = {}

    def _probabilities(self, relation: int, side: str) -> np.ndarray:
        key = (relation, side)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        probs = self.scores.column_probabilities(relation, side)
        if self.mode == "support":
            support = (probs > 0).astype(np.float64)
            total = support.sum()
            probs = support / total if total else np.full_like(probs, 1.0 / probs.shape[0])
        uniform = np.full_like(probs, 1.0 / probs.shape[0])
        mixed = (1.0 - self.uniform_mix) * probs + self.uniform_mix * uniform
        mixed = mixed / mixed.sum()
        self._cache[key] = mixed
        return mixed

    def corrupt(
        self,
        relations: np.ndarray,
        num_negatives: int,
        corrupt_head: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        out = np.empty((relations.shape[0], num_negatives), dtype=np.int64)
        for i, (relation, is_head) in enumerate(zip(relations, corrupt_head)):
            side = "head" if is_head else "tail"
            probs = self._probabilities(int(relation), side)
            out[i] = rng.choice(probs.shape[0], size=num_negatives, p=probs)
        return out


@dataclass
class TrainingConfig:
    """All trainer knobs in one place.

    ``filter_false_negatives`` redraws corruptions that accidentally form
    a known training triple.  Uniform corruption rarely collides, but
    recommender-guided corruption concentrates on credible entities and
    would otherwise push *true* triples down — the classic hard-negative
    false-negative trap.

    There is no training-path knob: a model trains through
    :mod:`repro.models.fused` exactly when
    :func:`~repro.models.fused.trains_fused` holds for it (and the loss
    has a fused gradient), and through the autodiff engine otherwise.
    """

    epochs: int = 20
    batch_size: int = 512
    num_negatives: int = 8
    lr: float = 0.05
    loss: str = "margin"
    margin: float = 1.0
    optimizer: str = "adam"
    weight_decay: float = 0.0
    filter_false_negatives: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size <= 0 or self.num_negatives <= 0:
            raise ValueError("batch_size and num_negatives must be positive")
        # Fail at construction, not mid-fit: a typo'd loss or optimizer
        # name would otherwise surface only after the dataset is loaded
        # and the first batch assembled.
        from repro.models.losses import available_losses
        from repro.models.optim import OPTIMIZERS

        if self.loss not in available_losses():
            raise ValueError(
                f"unknown loss {self.loss!r}; available: "
                f"{', '.join(available_losses())}"
            )
        if self.optimizer.lower() not in OPTIMIZERS:
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}; available: "
                f"{', '.join(OPTIMIZERS)}"
            )


@dataclass
class EpochRecord:
    """Loss and timing of one epoch."""

    epoch: int
    loss: float
    seconds: float


@dataclass
class TrainingHistory:
    """Per-epoch records plus whatever callbacks attached."""

    records: list[EpochRecord] = field(default_factory=list)
    extras: dict[str, list] = field(default_factory=dict)

    @property
    def losses(self) -> list[float]:
        return [r.loss for r in self.records]

    def attach(self, key: str, value) -> None:
        """Append a callback-produced value under ``key``."""
        self.extras.setdefault(key, []).append(value)


EpochCallback = Callable[[int, KGEModel, TrainingHistory], None]


class Trainer:
    """Minibatch negative-sampling trainer."""

    def __init__(
        self,
        config: TrainingConfig | None = None,
        sampler: NegativeSampler | None = None,
    ):
        self.config = config or TrainingConfig()
        self.sampler = sampler

    def _batches(self, n: int, rng: np.random.Generator):
        order = rng.permutation(n)
        for start in range(0, n, self.config.batch_size):
            yield order[start : start + self.config.batch_size]

    def _augment_inverse(
        self, triples: np.ndarray, inverse_offset: int
    ) -> np.ndarray:
        """Add reciprocal triples ``(t, r + offset, h)`` for ConvE-style models."""
        inverse = np.stack(
            [triples[:, 2], triples[:, 1] + inverse_offset, triples[:, 0]], axis=1
        )
        return np.concatenate([triples, inverse], axis=0)

    def fit(
        self,
        model: KGEModel,
        graph: KnowledgeGraph,
        callbacks: list[EpochCallback] | None = None,
    ) -> TrainingHistory:
        """Train ``model`` on ``graph.train`` and return the history."""
        config = self.config
        rng = np.random.default_rng(config.seed)
        sampler = self.sampler or UniformNegativeSampler(graph.num_entities)
        loss_fn = get_loss(config.loss)
        optimizer = build_optimizer(
            config.optimizer,
            model.parameter_list(),
            lr=config.lr,
            weight_decay=config.weight_decay,
        )
        triples = graph.train.array.astype(np.int64, copy=False)
        inverse_offset = getattr(model, "inverse_offset", None)
        if inverse_offset is not None:
            triples = self._augment_inverse(triples, inverse_offset)
        known_triples = (
            known_triple_index(triples, graph.num_entities)
            if config.filter_false_negatives
            and not getattr(sampler, "filter_positives", False)
            else None
        )
        fused = get_fused_loss(config.loss) if trains_fused(model) else None

        history = TrainingHistory()
        callbacks = callbacks or []
        tracer = get_tracer()
        model.train_mode(True)
        with tracer.span("train.fit"):
            for epoch in range(config.epochs):
                start = time.perf_counter()
                epoch_loss = 0.0
                num_batches = 0
                with tracer.span("train.epoch"):
                    for batch_idx in self._batches(triples.shape[0], rng):
                        batch = triples[batch_idx]
                        loss = self._step(
                            model, batch, sampler, loss_fn, optimizer, rng,
                            known_triples, fused,
                        )
                        epoch_loss += loss
                        num_batches += 1
                    tracer.add("batches", num_batches)
                    tracer.add("triples", triples.shape[0])
                    tracer.add("loss", epoch_loss)
                mean_loss = epoch_loss / max(num_batches, 1)
                history.records.append(
                    EpochRecord(
                        epoch=epoch, loss=mean_loss, seconds=time.perf_counter() - start
                    )
                )
                model.train_mode(False)
                with tracer.span("train.callbacks"):
                    for callback in callbacks:
                        callback(epoch, model, history)
                model.train_mode(True)
        model.train_mode(False)
        return history

    def _filter_false_negatives(
        self,
        neg_heads: np.ndarray,
        neg_relations: np.ndarray,
        neg_tails: np.ndarray,
        corrupt_head: np.ndarray,
        known_triples: KeyedCSR,
        rng: np.random.Generator,
        num_entities: int,
    ) -> None:
        """Redraw corruptions that collide with known true triples.

        The corrupted side of each colliding negative, in row-major order,
        is replaced with one scalar uniform redraw (in place); a second
        collision is left alone — vanishingly rare and harmless.
        """
        keys = triple_keys(neg_heads, neg_relations, num_entities)
        colliding = known_triples.contains(keys, neg_tails)
        for i, j in zip(*np.nonzero(colliding)):
            replacement = int(rng.integers(num_entities))
            if corrupt_head[i]:
                neg_heads[i, j] = replacement
            else:
                neg_tails[i, j] = replacement

    def _step(
        self,
        model: KGEModel,
        batch: np.ndarray,
        sampler: NegativeSampler,
        loss_fn,
        optimizer,
        rng: np.random.Generator,
        known_triples: KeyedCSR | None = None,
        fused: LossGrad | None = None,
    ) -> float:
        config = self.config
        heads, relations, tails = batch[:, 0], batch[:, 1], batch[:, 2]
        b = batch.shape[0]
        corrupt_head = rng.random(b) < 0.5
        replacements = sampler.corrupt(relations, config.num_negatives, corrupt_head, rng)

        neg_heads = np.repeat(heads[:, None], config.num_negatives, axis=1)
        neg_tails = np.repeat(tails[:, None], config.num_negatives, axis=1)
        neg_heads[corrupt_head] = replacements[corrupt_head]
        neg_tails[~corrupt_head] = replacements[~corrupt_head]
        neg_relations = np.repeat(relations[:, None], config.num_negatives, axis=1)
        if getattr(sampler, "filter_positives", False):
            sampler.resample_collisions(
                neg_heads, neg_relations, neg_tails, corrupt_head, rng
            )
        elif known_triples is not None:
            self._filter_false_negatives(
                neg_heads,
                neg_relations,
                neg_tails,
                corrupt_head,
                known_triples,
                rng,
                model.num_entities,
            )

        if fused is not None:
            # The post-filtering corrupted side, back in (b, k) form.
            corrupted = np.where(corrupt_head[:, None], neg_heads, neg_tails)
            loss, row_grads = fused_step(
                model,
                fused,
                heads,
                relations,
                tails,
                corrupted,
                corrupt_head,
                margin=config.margin,
            )
            parameters = model.parameters
            optimizer.step_rows(
                [
                    (parameters[name], rows, grads)
                    for name, (rows, grads) in row_grads.items()
                ]
            )
            return loss_value(loss)

        positive = model.score_triples(heads, relations, tails)
        negative_flat = model.score_triples(
            neg_heads.reshape(-1), neg_relations.reshape(-1), neg_tails.reshape(-1)
        )
        negative = reshape(negative_flat, (b, config.num_negatives))
        loss = loss_fn(positive, negative, margin=config.margin)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return loss_value(loss)
