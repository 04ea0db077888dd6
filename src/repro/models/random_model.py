"""An untrained scorer producing deterministic pseudo-random scores.

Useful as a sanity floor: every estimator should report chance-level
metrics on it, and any estimator that reports *better* than chance on a
random scorer is leaking information.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.engine import Tensor
from repro.kg.graph import Side
from repro.models.base import Array, HashScorer, check_ids


_MASK64 = (1 << 64) - 1


def _mix(*values: int) -> int:
    """SplitMix64-style integer hash of several ids into one seed."""
    state = 0x9E3779B97F4A7C15
    for value in values:
        state ^= (value + 0x632BE59BD9B4E019) & _MASK64
        state = (state * 0xBF58476D1CE4E5B9) & _MASK64
        state ^= state >> 27
    return state & 0x7FFFFFFFFFFFFFFF


class RandomModel(HashScorer):
    """Scores are a deterministic hash of ``(anchor, relation, side, entity)``.

    Consistency is the only contract: the same query always yields the same
    full score vector, so sampled and full evaluation see the same model.
    """

    name = "random"

    def _build_parameters(self, rng: np.random.Generator) -> None:
        # No trainable parameters; keep a scalar so optimizers don't choke
        # if someone passes this model to a trainer by mistake.
        self._add_parameter("unused", np.zeros(1))

    def score_triples(self, heads: Array, relations: Array, tails: Array) -> Tensor:
        heads = check_ids(heads, self.num_entities, "head")
        relations = check_ids(relations, self.num_relations, "relation")
        tails = check_ids(tails, self.num_entities, "tail")
        return Tensor(self.score_triples_numpy(heads, relations, tails))

    def _score_batch(
        self, anchors: Array, relation: int, side: Side, candidates: Array | None
    ) -> Array:
        side_bit = 0 if side == "head" else 1
        width = self.num_entities if candidates is None else candidates.shape[0]
        out = np.empty((anchors.shape[0], width))
        for row, anchor in enumerate(anchors):
            rng = np.random.default_rng(_mix(self.seed, int(anchor), relation, side_bit))
            scores = rng.standard_normal(self.num_entities)
            out[row] = scores if candidates is None else scores[candidates]
        return out
