"""Sampled estimators: filtering, pool semantics, agreement with reference."""

import numpy as np
import pytest

from repro.core import build_pools, evaluate_full, evaluate_sampled, sampled_rank
from repro.core.sampling import NegativePools
from repro.kg.graph import HEAD, SIDES, TAIL, keyed_by_relation
from repro.models import OracleModel, build_model


def _manual_pools(graph, mapping, strategy="static"):
    """Build a NegativePools with explicit per-(relation, side) entities."""
    pools = {HEAD: {}, TAIL: {}}
    for (relation, side), entities in mapping.items():
        pools[side][relation] = np.sort(np.asarray(entities, dtype=np.int64))
    return NegativePools(
        strategy=strategy,
        pools={side: keyed_by_relation(pools[side], graph.num_entities) for side in SIDES},
        num_entities=graph.num_entities,
        sample_size=max((len(v) for v in mapping.values()), default=0),
    )


class TestSampledRank:
    def test_empty_pool_gives_rank_one(self, tiny_graph):
        model = build_model("distmult", 6, 3, dim=4, seed=0)
        rank, scored = sampled_rank(
            model, tiny_graph, 0, 0, TAIL, 3, np.empty(0, dtype=np.int64)
        )
        assert rank == 1.0
        assert scored == 1

    def test_known_answers_filtered_from_pool(self, tiny_graph):
        """Pool of only known answers behaves like an empty pool."""
        model = build_model("distmult", 6, 3, dim=4, seed=0)
        known = tiny_graph.true_answers(0, 0, TAIL)  # {1, 2, 3}
        rank, _ = sampled_rank(model, tiny_graph, 0, 0, TAIL, 3, known)
        assert rank == 1.0

    def test_rank_counts_pool_competitors(self, tiny_graph):
        class FixedModel(OracleModel):
            def _score_batch(self, anchors, relation, side, candidates):
                return np.tile(candidates.astype(float), (len(anchors), 1))

        model = FixedModel(tiny_graph, seed=0)
        # Query (0, likes, ?) truth 3; pool {4, 5} both score higher.
        rank, _ = sampled_rank(model, tiny_graph, 0, 0, TAIL, 3, np.array([4, 5]))
        assert rank == 3.0


class TestEvaluateSampled:
    def test_matches_manual_reference(self, codex_s):
        graph = codex_s.graph
        model = build_model("complex", graph.num_entities, graph.num_relations, dim=8, seed=5)
        pools = build_pools(
            graph, "random", rng=np.random.default_rng(0), sample_fraction=0.2
        )
        result = evaluate_sampled(model, graph, pools, split="test")
        for (h, r, t, side), rank in list(result.ranks.items())[:50]:
            anchor, truth = (t, h) if side == HEAD else (h, t)
            reference, _ = sampled_rank(model, graph, anchor, r, side, truth, pools.pool(r, side))
            assert rank == pytest.approx(reference)

    def test_strategy_recorded(self, codex_s):
        graph = codex_s.graph
        model = OracleModel(graph, seed=0)
        pools = build_pools(graph, "random", rng=np.random.default_rng(0), num_samples=10)
        result = evaluate_sampled(model, graph, pools, split="test")
        assert result.strategy == "random"
        assert result.num_queries == 2 * len(graph.test)

    def test_num_scored_below_full(self, codex_s):
        graph = codex_s.graph
        model = OracleModel(graph, seed=0)
        pools = build_pools(graph, "random", rng=np.random.default_rng(0), num_samples=20)
        sampled = evaluate_sampled(model, graph, pools, split="test")
        full = evaluate_full(model, graph, split="test")
        assert sampled.num_scored < full.num_scored

    def test_pool_containing_all_entities_recovers_truth(self, tiny_graph):
        model = build_model("distmult", 6, 3, dim=4, seed=1)
        mapping = {
            (r, side): np.arange(6)
            for r in range(3)
            for side in (HEAD, TAIL)
        }
        pools = _manual_pools(tiny_graph, mapping)
        sampled = evaluate_sampled(model, tiny_graph, pools, split="test")
        full = evaluate_full(model, tiny_graph, split="test")
        for query, rank in sampled.ranks.items():
            assert rank == pytest.approx(full.ranks[query])

    def test_missing_pool_treated_as_empty(self, tiny_graph):
        model = build_model("distmult", 6, 3, dim=4, seed=1)
        pools = _manual_pools(tiny_graph, {})  # no pools at all
        result = evaluate_sampled(model, tiny_graph, pools, split="test")
        assert all(rank == 1.0 for rank in result.ranks.values())

    def test_truth_inside_pool_not_counted_as_negative(self, tiny_graph):
        """The truth being sampled must not outrank itself."""
        model = build_model("distmult", 6, 3, dim=4, seed=1)
        mapping = {(0, TAIL): np.array([3]), (0, HEAD): np.array([0])}
        pools = _manual_pools(tiny_graph, mapping)
        result = evaluate_sampled(model, tiny_graph, pools, split="test")
        assert result.ranks[(0, 0, 3, TAIL)] == 1.0
        assert result.ranks[(0, 0, 3, HEAD)] == 1.0
