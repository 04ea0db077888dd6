"""Per-model engine oracle: every model ranks as the scalar reference.

For each of the seven registered models in float32 and float64, plus the
hash scorers (``RandomModel``, ``OracleModel`` and a tie-forcing
``RandomModel``), the engine's full and sampled paths must give
bitwise-identical ranks at one and two workers, and those ranks must
equal the scalar ``filtered_rank`` over ``score_all`` (full) or the
pool's ``score_candidates`` (sampled).

Every model runs every edge case of the evaluation plan: full-path
chunks that span several relations and mix head and tail rows (checked
by ``TestFullChunkCalls``), a split with
duplicate triples next to a clean one (a repeated triple is one query
per side, so both rank, aggregate and score alike), the clean split
opened from a compact store (int32 memory maps), and on the sampled
path random pools next to hand-built pools with an empty pool, a missing
pool, truths outside their pool, pools made of known answers and a pool
that is the whole vocabulary.

Served ``score`` rows (:class:`~repro.serve.LinkPredictionService`) join
the same oracle on every graph: ranked over every entity, and within
candidate sets made of the edge pools.

The engine and serve score many queries with one many-row product while
the reference scores one query at a time, and BLAS may round those two
differently in the last ulp.  A rank may therefore differ from the
reference only by competitors whose score lies within a few ulp of the
truth's; anywhere else the two must agree exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.candidates import CandidateSets
from repro.core.estimators import evaluate_sampled
from repro.core.ranking import evaluate_full, filtered_rank
from repro.core.sampling import NegativePools, build_pools
from repro.datasets import SyntheticConfig, generate
from repro.kg import KnowledgeGraph, TripleSet, open_compact, save_compact
from repro.engine.chunking import plan_chunks
from repro.engine.worker import build_state, evaluation_plan, score_chunk
from repro.kg.graph import HEAD, SIDES, keyed_by_relation
from repro.models import MODEL_REGISTRY, OracleModel, RandomModel, build_model
from repro.serve import LinkPredictionService, ModelRegistry
from repro.store import ExperimentStore

DTYPES = ("float32", "float64")
#: Small enough that every model's test split spans several chunks.
CHUNK_SIZE = 8
#: How many ulp (relative to the truth's magnitude) count as a near-tie.
NEAR_TIE_ULP = 16
WORKERS = (1, 2)


class TiedModel(RandomModel):
    """A hash scorer rounded to whole numbers, so most scores tie."""

    def _score_batch(self, anchors, relation, side, candidates):
        return np.floor(super()._score_batch(anchors, relation, side, candidates))


#: Scorers without embeddings; they ignore the dtype parameter.
HASH_MODELS = {
    "random": lambda graph: RandomModel(graph.num_entities, graph.num_relations, seed=1),
    "oracle": lambda graph: OracleModel(graph, skill=1.0, seed=1),
    "tied": lambda graph: TiedModel(graph.num_entities, graph.num_relations, seed=1),
}
MODELS = sorted(MODEL_REGISTRY) + sorted(HASH_MODELS)


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    config = SyntheticConfig(
        num_entities=80,
        num_relations=4,
        num_types=3,
        num_triples=1200,
        num_communities=2,
        noise_triples=2,
        seed=7,
        name="oracle-tiny",
    )
    graph = generate(config).graph
    test = graph.test.array
    duplicated = KnowledgeGraph(
        entities=graph.entities,
        relations=graph.relations,
        train=graph.train,
        valid=graph.valid,
        test=TripleSet(np.concatenate([test, test[:5], test[3:4]])),
        name="oracle-tiny-duplicates",
    )
    compact = open_compact(save_compact(graph, tmp_path_factory.mktemp("compact")))
    return {"plain": graph, "duplicates": duplicated, "compact": compact}


def _edge_pools(graph) -> NegativePools:
    """Pools that hit every exclusion-mapping case of the plan.

    Relation 0: an empty head pool and no tail pool at all.  Relation 1:
    every known answer of the split's queries, truths included.
    Relation 2: random entities plus the queries' known answers, minus
    every truth.  Relation 3: the whole vocabulary.
    """
    rng = np.random.default_rng(3)
    test = graph.test.array
    pools: dict = {side: {} for side in SIDES}
    pools[HEAD][0] = np.empty(0, dtype=np.int64)
    for side in SIDES:
        anchors = test[:, 2] if side == HEAD else test[:, 0]
        truths = test[:, 0] if side == HEAD else test[:, 2]
        known = {
            relation: np.unique(
                np.concatenate(
                    [graph.true_answers(int(a), relation, side)
                     for a in anchors[test[:, 1] == relation]] or [np.empty(0)]
                )
            ).astype(np.int64)
            for relation in (1, 2)
        }
        pools[side][1] = known[1]
        drawn = np.union1d(rng.choice(graph.num_entities, size=20, replace=False), known[2])
        pools[side][2] = np.setdiff1d(drawn, truths[test[:, 1] == 2]).astype(np.int64)
        pools[side][3] = np.arange(graph.num_entities, dtype=np.int64)
    return NegativePools(
        strategy="random",
        pools={side: keyed_by_relation(pools[side], graph.num_entities) for side in SIDES},
        num_entities=graph.num_entities,
        sample_size=20,
    )


def _pool_cases(graph) -> dict[str, NegativePools]:
    return {
        "random": build_pools(graph, "random", np.random.default_rng(0), num_samples=12),
        "edge": _edge_pools(graph),
    }


def _candidate_sets(graph, pools: NegativePools) -> CandidateSets:
    """``pools`` as a serving candidate set: one set per (relation, side)."""
    return CandidateSets(
        sets=pools.pools,
        thresholds={side: np.zeros(graph.num_relations) for side in SIDES},
        num_entities=graph.num_entities,
    )


def _pool_scores(model, graph, anchor, relation, side, truth, pool) -> np.ndarray:
    """The sampled reference's score row: the truth and its pool scored
    one query at a time, every other entity ``-inf``."""
    true_score = model.score_candidates(anchor, relation, side, [truth])
    scores = np.full(graph.num_entities, -np.inf, dtype=true_score.dtype)
    if pool.size:
        scores[pool] = model.score_candidates(anchor, relation, side, pool)
    scores[truth] = true_score[0]
    return scores


def _model(name: str, graph, dtype: str):
    if name in HASH_MODELS:
        return HASH_MODELS[name](graph)
    return build_model(
        name, graph.num_entities, graph.num_relations, dim=8, seed=1, dtype=dtype
    )


def _query(key):
    h, r, t, side = key
    return (t, h, r, side) if side == HEAD else (h, t, r, side)


def _assert_rank_matches(rank: float, scores: np.ndarray, truth: int, known: np.ndarray):
    """``rank`` equals ``filtered_rank`` up to near-ties with the truth."""
    reference = filtered_rank(scores, truth, known)
    if rank == reference:
        return
    competitors = scores.copy()
    competitors[known] = -np.inf
    competitors[truth] = -np.inf
    true_score = scores[truth]
    tolerance = NEAR_TIE_ULP * np.finfo(scores.dtype).eps * max(1.0, abs(float(true_score)))
    near = np.abs(competitors - true_score) <= tolerance
    better = np.count_nonzero((competitors > true_score) & ~near)
    assert near.any() and 1 + better <= rank <= 1 + better + np.count_nonzero(near), (
        f"engine rank {rank} vs reference {reference} with no near-tie to excuse it"
    )


def _assert_duplicate_semantics(graphs, runs) -> None:
    """One meaning of a repeated triple: one query per side.

    ``runs[kind, workers]`` evaluates graph ``kind`` at ``workers``.  At
    every worker count the duplicates graph counts each distinct query
    once and ranks, aggregates and scores exactly as the plain graph.
    """
    distinct = np.unique(graphs["duplicates"].test.array, axis=0).shape[0]
    plain = runs["plain", WORKERS[0]]
    for run in runs.values():
        assert run.num_queries == run.metrics.num_queries == len(SIDES) * distinct
        assert list(run.ranks.items()) == list(plain.ranks.items())
        assert run.metrics == plain.metrics
        assert run.num_scored == plain.num_scored


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", MODELS)
class TestModelOracle:
    def test_full_ranks(self, graphs, name, dtype):
        graph = graphs["plain"]
        model = _model(name, graph, dtype)
        runs = {
            (kind, workers): evaluate_full(
                model, graphs[kind], workers=workers, chunk_size=CHUNK_SIZE
            )
            for kind in graphs
            for workers in WORKERS
        }
        _assert_duplicate_semantics(graphs, runs)
        for key, rank in runs["plain", 1].ranks.items():
            anchor, truth, relation, side = _query(key)
            _assert_rank_matches(
                rank,
                model.score_all(anchor, relation, side),
                truth,
                graph.true_answers(anchor, relation, side),
            )

    def test_sampled_ranks(self, graphs, name, dtype):
        graph = graphs["plain"]
        model = _model(name, graph, dtype)
        for pools in _pool_cases(graph).values():
            runs = {
                (kind, workers): evaluate_sampled(
                    model, graphs[kind], pools, workers=workers, chunk_size=CHUNK_SIZE
                )
                for kind in graphs
                for workers in WORKERS
            }
            _assert_duplicate_semantics(graphs, runs)
            for key, rank in runs["plain", 1].ranks.items():
                anchor, truth, relation, side = _query(key)
                pool = pools.pool(relation, side)
                _assert_rank_matches(
                    rank,
                    _pool_scores(model, graph, anchor, relation, side, truth, pool),
                    truth,
                    graph.true_answers(anchor, relation, side),
                )

    def test_served_ranks(self, graphs, name, dtype, tmp_path):
        """Served ``score`` rows rank as the references: over every
        entity with ``candidates="all"``, and with ``"filtered"`` within
        candidate sets made of the edge pools (an empty set, truths
        outside their set, the whole vocabulary)."""
        model = _model(name, graphs["plain"], dtype)
        sets = _candidate_sets(graphs["plain"], _edge_pools(graphs["plain"]))
        for kind, graph in graphs.items():
            registry = ModelRegistry(ExperimentStore(tmp_path / kind), graph)
            registry.register(name, model, persist=False)
            registry.candidates = lambda _: sets
            with LinkPredictionService(registry) as service:
                served = {
                    mode: service.score(name, graph.test.as_tuples(), candidates=mode)
                    for mode in ("all", "filtered")
                }
            for mode, rows in served.items():
                assert len(rows) == len(SIDES) * len(graph.test)
                for row in rows:
                    h, r, t, side = row["head_id"], row["relation_id"], row["tail_id"], row["side"]
                    anchor, truth = (t, h) if side == HEAD else (h, t)
                    if mode == "all":
                        scores = model.score_all(anchor, r, side)
                    else:
                        pool = sets.candidates(r, side)
                        scores = _pool_scores(model, graph, anchor, r, side, truth, pool)
                    known = graph.true_answers(anchor, r, side)
                    _assert_rank_matches(row["rank"], scores, truth, known)


class TestSampledChunkCalls:
    """A sampled chunk is one score call: one ``query_vectors``, the pool
    scores and the paired truth scores, never a ``(b, b)`` block."""

    def test_one_query_vectors_call_and_no_square_block(self, graphs, monkeypatch):
        graph = graphs["plain"]
        model = build_model("complex", graph.num_entities, graph.num_relations, dim=8, seed=1)
        pools = _pool_cases(graph)["random"]
        state = build_state(model, graph, "test", SIDES, pools)
        task = next(
            task
            for task in plan_chunks(state.plan, CHUNK_SIZE)
            if task.num_queries > 1
            and pools.pool(task.relation, task.side).size not in (0, task.num_queries)
        )
        b, k = task.num_queries, pools.pool(task.relation, task.side).size
        query_calls: list = []
        score_shapes: list = []
        query_vectors, score_rows = model.query_vectors, model.score_rows

        def counted_query_vectors(*args):
            query_calls.append(args)
            return query_vectors(*args)

        def shaped_score_rows(*args):
            scores = score_rows(*args)
            score_shapes.append(scores.shape)
            return scores

        monkeypatch.setattr(model, "query_vectors", counted_query_vectors)
        monkeypatch.setattr(model, "score_rows", shaped_score_rows)
        ranks, scored = score_chunk(state, task)
        assert len(query_calls) == 1
        assert score_shapes == [(b, k), (b, 1)]
        assert ranks.shape == (b,) and scored == b * k + b


def _mixed_side_tasks(plan) -> list:
    """The full-path tasks at ``CHUNK_SIZE`` holding both head and tail rows."""
    _, sides = plan.row_groups
    return [
        task
        for task in plan_chunks(plan, CHUNK_SIZE)
        if np.unique(sides[task.start : task.stop]).size == len(SIDES)
    ]


class TestFullChunkCalls:
    """A full-path chunk is one score call over rows of several
    ``(relation, side)`` groups: at most one ``query_vectors`` per side
    and one full-height product against every entity."""

    def test_oracle_chunks_mix_sides_and_relations(self, graphs):
        # The oracle tests above rank through these chunks for every model,
        # RESCAL, TuckER and ConvE (a per-relation product per query) included.
        for graph in graphs.values():
            plan = evaluation_plan(graph, "test")
            relations, _ = plan.row_groups
            assert len(_mixed_side_tasks(plan)) >= 2
            assert any(
                np.unique(relations[task.start : task.stop]).size > 1
                for task in plan_chunks(plan, CHUNK_SIZE)
            )

    @pytest.mark.parametrize("name", ["complex", "rescal", "tucker", "conve"])
    def test_one_score_call_and_one_full_height_product(self, graphs, monkeypatch, name):
        graph = graphs["plain"]
        model = build_model(name, graph.num_entities, graph.num_relations, dim=8, seed=1)
        state = build_state(model, graph, "test")
        task = _mixed_side_tasks(state.plan)[0]
        b = task.num_queries
        batch_calls: list = []
        query_sides: list = []
        score_shapes: list = []
        batch, query_vectors, score_rows = (
            model.score_candidates_batch, model.query_vectors, model.score_rows
        )

        def counted_batch(*args, **kwargs):
            batch_calls.append(args)
            return batch(*args, **kwargs)

        def counted_query_vectors(anchors, relation, side):
            # RESCAL, TuckER and ConvE call back once per relation with a
            # scalar one; the chunk's own calls carry per-row relations.
            if np.ndim(relation):
                query_sides.append(side)
            return query_vectors(anchors, relation, side)

        def shaped_score_rows(*args):
            scores = score_rows(*args)
            score_shapes.append(scores.shape)
            return scores

        monkeypatch.setattr(model, "score_candidates_batch", counted_batch)
        monkeypatch.setattr(model, "query_vectors", counted_query_vectors)
        monkeypatch.setattr(model, "score_rows", shaped_score_rows)
        ranks, scored = score_chunk(state, task)
        assert len(batch_calls) == 1
        assert sorted(query_sides) == sorted(SIDES)
        assert score_shapes == [(b, graph.num_entities)]
        assert ranks.shape == (b,) and scored == b * graph.num_entities
