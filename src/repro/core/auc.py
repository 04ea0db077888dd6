"""Classification-style metrics over sampled negatives (paper §7).

The paper's future-work section proposes complementing ranking metrics
with ROC-AUC / AUC-PR measured against *harder* negatives, since random
negatives make triple classification a nearly solved task (Safavi &
Koutra's CoDEx observation).  :func:`estimate_auc` implements that: score
the split's positive triples, corrupt each one into a negative drawn from
the framework's candidate pools (uniform when ``pools`` is None), and
report both AUC metrics.

The expected behaviour — verified in the tests — is that the same model
looks *much* better against uniform negatives than against pool-guided
ones; the guided number is the honest one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.sampling import NegativePools
from repro.engine.chunking import split_triples
from repro.kg.graph import KnowledgeGraph
from repro.metrics.ranking import average_precision, roc_auc
from repro.models.base import KGEModel


@dataclass
class AUCEstimate:
    """ROC-AUC and average precision of positives vs sampled negatives."""

    roc_auc: float
    average_precision: float
    num_positive: int
    num_negative: int
    strategy: str
    seconds: float = 0.0

    def as_row(self) -> dict[str, float | int | str]:
        return {
            "Negatives": self.strategy,
            "ROC-AUC": round(self.roc_auc, 3),
            "AUC-PR": round(self.average_precision, 3),
            "n+": self.num_positive,
            "n-": self.num_negative,
        }


def corrupt_with_pools(
    triples: np.ndarray,
    graph: KnowledgeGraph,
    pools: NegativePools | None,
    rng: np.random.Generator,
    max_retries: int = 8,
) -> np.ndarray:
    """One negative per positive, avoiding known true triples.

    Head/tail corruption alternates at random; the replacement comes from
    the triple's relation-side pool (uniform over the vocabulary when
    ``pools`` is None).  Collisions with known true answers are redrawn up
    to ``max_retries`` times.
    """
    corrupted = triples.copy()
    corrupt_head = rng.random(triples.shape[0]) < 0.5
    for i, (h, r, t) in enumerate(triples):
        side = "head" if corrupt_head[i] else "tail"
        anchor = int(t) if corrupt_head[i] else int(h)
        known = set(graph.true_answers(anchor, int(r), side).tolist())
        pool = pools.pool(int(r), side) if pools is not None else None
        replacement = None
        for _ in range(max_retries):
            if pool is not None and pool.size:
                candidate = int(pool[rng.integers(pool.size)])
            else:
                candidate = int(rng.integers(graph.num_entities))
            if candidate not in known:
                replacement = candidate
                break
        if replacement is None:
            replacement = int(rng.integers(graph.num_entities))
        if corrupt_head[i]:
            corrupted[i, 0] = replacement
        else:
            corrupted[i, 2] = replacement
    return corrupted


def estimate_auc(
    model: KGEModel,
    graph: KnowledgeGraph,
    split: str = "test",
    pools: NegativePools | None = None,
    num_triples: int | None = None,
    seed: int = 0,
) -> AUCEstimate:
    """ROC-AUC / AUC-PR of ``model`` on positives vs sampled negatives."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    positives = split_triples(graph, split).array
    if positives.shape[0] == 0:
        raise ValueError(f"split {split!r} has no triples")
    if num_triples is not None and num_triples < positives.shape[0]:
        keep = rng.choice(positives.shape[0], size=num_triples, replace=False)
        positives = positives[keep]
    negatives = corrupt_with_pools(positives, graph, pools, rng)
    positive_scores = model.score_triples_numpy(*positives.T)
    negative_scores = model.score_triples_numpy(*negatives.T)
    return AUCEstimate(
        roc_auc=roc_auc(positive_scores, negative_scores),
        average_precision=average_precision(positive_scores, negative_scores),
        num_positive=int(positives.shape[0]),
        num_negative=int(negatives.shape[0]),
        strategy=pools.strategy if pools is not None else "random",
        seconds=time.perf_counter() - start,
    )
