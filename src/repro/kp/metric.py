"""Knowledge Persistence — the proxy metric baseline (Bastos et al., 2023).

KP sidesteps ranking entirely: sample a set of positive triples and a set
of negative (corrupted) triples, score both with the model, build the two
weighted *score graphs* ``KP+`` and ``KP-``, and report the sliced
Wasserstein distance between their H0 persistence diagrams.  A model that
separates positives from negatives produces structurally different score
graphs, so the distance tends to track ranking quality at ``O(|E|)`` cost.

Following the paper's Section 5.2, the negative corruption step accepts
the same three sampling strategies as the rank estimators (R / P / S), so
KP can be boosted with recommender-guided negatives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.sampling import NegativePools
from repro.engine.chunking import split_triples
from repro.kg.graph import HEAD, SIDES, KnowledgeGraph
from repro.kp.persistence import PersistenceDiagram, score_graph_diagram
from repro.kp.wasserstein import sliced_wasserstein
from repro.models.base import KGEModel


@dataclass
class KPResult:
    """One KP measurement.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.kp.persistence import PersistenceDiagram
    >>> diagram = PersistenceDiagram(np.empty((0, 2)))
    >>> KPResult(value=0.5, seconds=0.1, num_positive=10, num_negative=10,
    ...          positive_diagram=diagram, negative_diagram=diagram)
    KPResult(value=0.5000, n+=10, n-=10)
    """

    value: float
    seconds: float
    num_positive: int
    num_negative: int
    positive_diagram: PersistenceDiagram
    negative_diagram: PersistenceDiagram

    def __repr__(self) -> str:
        return f"KPResult(value={self.value:.4f}, n+={self.num_positive}, n-={self.num_negative})"


def _corrupt(
    triples: np.ndarray,
    pools: NegativePools | None,
    num_entities: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Corrupt each triple's tail (or head, alternating) into a negative.

    With ``pools`` the replacement comes from the triple's relation-side
    pool (the P/S variants); without, it is uniform (the R variant).
    """
    corrupted = triples.copy()
    corrupt_head = rng.random(triples.shape[0]) < 0.5
    # Each triple draws from its pool, or from every entity when the pool
    # is empty or missing: one array of bounds, drawn in row order, is the
    # same stream as one draw per triple.
    bounds = np.full(triples.shape[0], num_entities, dtype=np.int64)
    pooled = []
    if pools is not None:
        for side in SIDES:
            rows = np.flatnonzero(corrupt_head == (side == HEAD))
            csr = pools.pools[side]
            starts, sizes = csr.spans(triples[rows, 1])
            kept = sizes > 0
            bounds[rows[kept]] = sizes[kept]
            pooled.append((rows[kept], starts[kept], csr.values))
    replacements = rng.integers(0, bounds)
    for rows, starts, values in pooled:
        replacements[rows] = values[starts + replacements[rows]]
    corrupted[corrupt_head, 0] = replacements[corrupt_head]
    corrupted[~corrupt_head, 2] = replacements[~corrupt_head]
    return corrupted


def knowledge_persistence(
    model: KGEModel,
    graph: KnowledgeGraph,
    split: str = "valid",
    num_triples: int | None = None,
    pools: NegativePools | None = None,
    num_slices: int = 32,
    seed: int = 0,
) -> KPResult:
    """Compute the KP metric of ``model`` on one split.

    Parameters
    ----------
    num_triples:
        Positive sample size (None = the whole split).  KP's cost is
        linear in this.
    pools:
        Negative-candidate pools steering the corruption — None for
        uniform (KP-R), probabilistic pools for KP-P, static for KP-S.

    Examples
    --------
    >>> from repro.kg.graph import build_graph
    >>> from repro.models import build_model
    >>> graph = build_graph({
    ...     "train": [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d")],
    ...     "valid": [("a", "r", "c"), ("b", "r", "d")],
    ... })
    >>> model = build_model("distmult", graph.num_entities,
    ...                     graph.num_relations, dim=4, seed=0)
    >>> result = knowledge_persistence(model, graph, split="valid", seed=0)
    >>> (result.num_positive, result.num_negative)
    (2, 2)
    >>> result.value >= 0.0
    True
    """
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    positives = split_triples(graph, split).array
    if positives.shape[0] == 0:
        raise ValueError(f"split {split!r} has no triples to sample")
    if num_triples is not None and num_triples < positives.shape[0]:
        keep = rng.choice(positives.shape[0], size=num_triples, replace=False)
        positives = positives[keep]
    negatives = _corrupt(positives, pools, graph.num_entities, rng)

    positive_scores = model.score_triples_numpy(*positives.T)
    negative_scores = model.score_triples_numpy(*negatives.T)

    positive_diagram = score_graph_diagram(positives, positive_scores, graph.num_entities)
    negative_diagram = score_graph_diagram(negatives, negative_scores, graph.num_entities)
    value = sliced_wasserstein(positive_diagram, negative_diagram, num_slices=num_slices)
    return KPResult(
        value=value,
        seconds=time.perf_counter() - start,
        num_positive=int(positives.shape[0]),
        num_negative=int(negatives.shape[0]),
        positive_diagram=positive_diagram,
        negative_diagram=negative_diagram,
    )
