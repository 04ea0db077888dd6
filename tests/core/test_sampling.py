"""Negative pools: draw counts, strategy semantics, 2|R| accounting."""

import numpy as np
import pytest

from repro.core import build_pools, build_static_candidates, resolve_sample_size
from repro.kg.graph import HEAD, TAIL
from repro.recommenders import build_recommender


class TestResolveSampleSize:
    def test_exactly_one_spec_required(self):
        with pytest.raises(ValueError):
            resolve_sample_size(100)
        with pytest.raises(ValueError):
            resolve_sample_size(100, num_samples=10, sample_fraction=0.1)

    def test_count_capped_at_vocabulary(self):
        assert resolve_sample_size(100, num_samples=500) == 100

    def test_fraction_rounds(self):
        assert resolve_sample_size(100, sample_fraction=0.25) == 25

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            resolve_sample_size(100, sample_fraction=0.0)
        with pytest.raises(ValueError):
            resolve_sample_size(100, sample_fraction=1.5)

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            resolve_sample_size(100, num_samples=0)


@pytest.fixture(scope="module")
def prepared(codex_s_module):
    graph = codex_s_module.graph
    fitted = build_recommender("l-wd").fit(graph)
    candidates = build_static_candidates(fitted, graph)
    return graph, fitted, candidates


@pytest.fixture(scope="module")
def codex_s_module():
    from repro.datasets import load

    return load("codex-s-lite")


class TestBuildPools:
    def test_one_pool_per_relation_side(self, prepared, rng):
        graph, fitted, candidates = prepared
        pools = build_pools(graph, "random", rng=rng, num_samples=30)
        assert pools.pools[HEAD].keys.tolist() == list(range(graph.num_relations))
        assert pools.pools[TAIL].keys.tolist() == list(range(graph.num_relations))
        assert pools.total_sampled() == 2 * graph.num_relations * 30

    def test_random_pools_have_exact_size(self, prepared, rng):
        graph, _, _ = prepared
        pools = build_pools(graph, "random", rng=rng, num_samples=25)
        for side in (HEAD, TAIL):
            for relation in range(graph.num_relations):
                pool = pools.pool(relation, side)
                assert pool.size == 25
                assert np.all(np.diff(pool) > 0)  # sorted, no replacement

    def test_static_pools_capped_by_set_size(self, prepared, rng):
        graph, _, candidates = prepared
        pools = build_pools(
            graph, "static", rng=rng, num_samples=10_000, candidates=candidates
        )
        for side in (HEAD, TAIL):
            for relation in range(graph.num_relations):
                assert pools.pool(relation, side).size == candidates.set_size(relation, side)

    def test_static_pools_subset_of_candidates(self, prepared, rng):
        graph, _, candidates = prepared
        pools = build_pools(graph, "static", rng=rng, num_samples=20, candidates=candidates)
        for side in (HEAD, TAIL):
            for relation in range(graph.num_relations):
                pool = set(pools.pool(relation, side).tolist())
                assert pool <= set(candidates.candidates(relation, side).tolist())

    def test_probabilistic_pools_subset_of_support(self, prepared, rng):
        graph, fitted, _ = prepared
        pools = build_pools(graph, "probabilistic", rng=rng, num_samples=20, fitted=fitted)
        for relation in range(graph.num_relations):
            support = set(fitted.column_support(relation, TAIL).tolist())
            pool = set(pools.pool(relation, TAIL).tolist())
            # Support smaller than n_s falls back to uniform; otherwise subset.
            if len(support) >= 20:
                assert pool <= support

    def test_probabilistic_prefers_high_scores(self, prepared):
        """High-score entities appear in far more pools than low-score ones."""
        graph, fitted, _ = prepared
        hits = np.zeros(graph.num_entities)
        for seed in range(30):
            pools = build_pools(
                graph,
                "probabilistic",
                rng=np.random.default_rng(seed),
                num_samples=15,
                fitted=fitted,
            )
            for entity in pools.pool(0, TAIL):
                hits[entity] += 1
        probs = fitted.column_probabilities(0, TAIL)
        top = np.argsort(probs)[-5:]
        bottom = np.flatnonzero(probs == 0)
        if bottom.size:
            assert hits[top].mean() > hits[bottom].mean()

    def test_strategy_validation(self, prepared, rng):
        graph, fitted, candidates = prepared
        with pytest.raises(KeyError):
            build_pools(graph, "stratified", rng=rng, num_samples=5)
        with pytest.raises(ValueError, match="recommender"):
            build_pools(graph, "probabilistic", rng=rng, num_samples=5)
        with pytest.raises(ValueError, match="candidate"):
            build_pools(graph, "static", rng=rng, num_samples=5)

    def test_deterministic_under_seed(self, prepared):
        graph, fitted, candidates = prepared
        a = build_pools(graph, "random", rng=np.random.default_rng(9), num_samples=12)
        b = build_pools(graph, "random", rng=np.random.default_rng(9), num_samples=12)
        for side in (HEAD, TAIL):
            for relation in range(graph.num_relations):
                np.testing.assert_array_equal(
                    a.pool(relation, side), b.pool(relation, side)
                )
