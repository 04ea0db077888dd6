"""Seeded input generation: the graph, the checkpoints and the serve request stream.

One ``--seed`` drives everything.  It replaces the synthetic generator's
own seed and seeds, through :class:`numpy.random.SeedSequence`, the
checkpoint initialisations, the sampled-evaluation pool draw and each serve
client's request stream.  Generation is input preparation, never timed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.datasets import zoo
from repro.datasets.synthetic import generate
from repro.kg.graph import KnowledgeGraph, TripleSet
from repro.models import build_model
from repro.models.base import KGEModel


@dataclass(frozen=True)
class Scale:
    """The size knobs of one benchmark scale."""

    dataset: str
    #: Generator target of distinct triples, set above the split sizes.
    num_triples: int
    #: Triples kept per split (train, valid, test): the generator's split
    #: sizes vary with its seed, so every seed is cut to the same sizes.
    splits: tuple[int, int, int]
    #: Distinct checkpoints the eval workloads rotate through.
    checkpoints: int
    #: Requests pre-generated per serve client (a run stops at its deadline).
    serve_requests: int
    #: Queries per eval op whose ranks are checked against the scalar oracle.
    checked_ranks: int


SCALES: dict[str, Scale] = {
    # The wikikg2-lite shape: ~8.7k entities, 60 relations, 42k train,
    # 2.2k valid and 2.2k test triples.  Zipf 0.4 over the 4.4k test
    # queries makes about a third of the requests cache hits.
    "full": Scale(
        dataset="wikikg2-lite",
        num_triples=70_000,
        splits=(42_000, 2_200, 2_200),
        checkpoints=4,
        serve_requests=60_000,
        checked_ranks=6,
    ),
    # A 400-entity graph for the smoke tests.
    "tiny": Scale(
        dataset="codex-s-lite",
        num_triples=4_000,
        splits=(2_000, 100, 100),
        checkpoints=2,
        serve_requests=2_000,
        checked_ranks=4,
    ),
}

MODEL = "complex"
DIM = 32
CLIENTS = 2
#: Request mix of serve-mix: filtered top-10, top-10 over all entities, score.
MIX = {"rank-filtered": 0.8, "rank-all": 0.1, "score": 0.1}
#: Zipf exponent of the serve query popularity: about a third of the
#: requests hit the cache, and the distinct keys exceed the LRU.
SERVE_ZIPF = 0.4


@dataclass
class Requests:
    """One serve client's pre-generated request stream."""

    kinds: np.ndarray  # 0 rank-filtered, 1 rank-all, 2 score
    queries: np.ndarray  # index into Inputs.serve_queries


@dataclass
class Inputs:
    seed: int
    scale: Scale
    #: The generated graph before its splits were cut to the scale's sizes.
    source: KnowledgeGraph
    #: ``(n, 3)`` id arrays of the cut train, valid and test splits.
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    checkpoints: list[KGEModel]
    serve_model: KGEModel
    pool_seed: int
    #: ``(head, relation, tail, side)`` of every test query, popularity order.
    serve_queries: np.ndarray
    requests: list[Requests]

    def graph(self) -> KnowledgeGraph:
        """A freshly built graph (empty filter-index cache) over the inputs."""
        return KnowledgeGraph(
            entities=self.source.entities,
            relations=self.source.relations,
            train=TripleSet(self.train.copy()),
            valid=TripleSet(self.valid.copy()),
            test=TripleSet(self.test.copy()),
            name=self.source.name,
        )

    def describe(self) -> dict:
        return {
            "seed": self.seed,
            "dataset": self.scale.dataset,
            "entities": self.source.num_entities,
            "relations": self.source.num_relations,
            "train": len(self.train),
            "valid": len(self.valid),
            "test": len(self.test),
            "model": f"{MODEL}-dim{DIM}",
            "checkpoints": len(self.checkpoints),
            "pool_seed": self.pool_seed,
        }


def make_inputs(seed: int, scale: str = "full") -> Inputs:
    """Everything a workload needs, derived from ``seed`` alone."""
    knobs = SCALES[scale]
    generator_seed, model_seed, pool_seed, stream_seed = (
        int(child.generate_state(1)[0])
        for child in np.random.SeedSequence(seed).spawn(4)
    )
    graph = _generate(knobs, generator_seed)
    rng = np.random.default_rng(stream_seed)
    train, valid, test = (
        _cut(split.array.astype(np.int64), size, rng)
        for split, size in zip((graph.train, graph.valid, graph.test), knobs.splits)
    )
    model_seeds = np.random.default_rng(model_seed).integers(0, 2**31, knobs.checkpoints + 1)
    checkpoints = [
        build_model(MODEL, graph.num_entities, graph.num_relations, dim=DIM, seed=int(s))
        for s in model_seeds[:-1]
    ]
    serve_model = build_model(
        MODEL, graph.num_entities, graph.num_relations, dim=DIM, seed=int(model_seeds[-1])
    )
    queries = np.concatenate(
        [
            np.column_stack([test, np.zeros(len(test), dtype=np.int64)]),  # head side
            np.column_stack([test, np.ones(len(test), dtype=np.int64)]),  # tail side
        ]
    )
    queries = queries[rng.permutation(len(queries))]
    popularity = 1.0 / np.arange(1, len(queries) + 1) ** SERVE_ZIPF
    popularity /= popularity.sum()
    kinds_p = np.asarray(list(MIX.values()))
    requests = [
        Requests(
            kinds=rng.choice(len(MIX), size=knobs.serve_requests, p=kinds_p),
            queries=rng.choice(len(queries), size=knobs.serve_requests, p=popularity),
        )
        for _ in range(CLIENTS)
    ]
    return Inputs(
        seed=seed,
        scale=knobs,
        source=graph,
        train=train,
        valid=valid,
        test=test,
        checkpoints=checkpoints,
        serve_model=serve_model,
        pool_seed=pool_seed,
        serve_queries=queries,
        requests=requests,
    )


def _generate(knobs: Scale, seed: int) -> KnowledgeGraph:
    """The generated graph, with every split at least its cut size.

    The generator's yield varies with its seed; a seed whose splits come
    out short is generated again with a quarter more triples.
    """
    num_triples = knobs.num_triples
    for _ in range(4):
        config = dataclasses.replace(zoo.ZOO[knobs.dataset], seed=seed, num_triples=num_triples)
        graph = generate(config).graph
        sizes = (len(graph.train), len(graph.valid), len(graph.test))
        if all(have >= want for have, want in zip(sizes, knobs.splits)):
            return graph
        num_triples += num_triples // 4
    raise ValueError(f"generator seed {seed} yields splits {sizes}, short of {knobs.splits}")


def _cut(triples: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """A seeded sample of ``size`` triples, in their original order."""
    return triples[np.sort(rng.choice(len(triples), size=size, replace=False))]
