"""Property-based invariants of the sampled estimator.

The two structural facts everything else rests on:

* **pool monotonicity** — adding candidates to a pool can only push the
  estimated rank up (toward the truth), never down;
* **subset bound** — any pool's rank is a lower bound on the full rank,
  and equals it when the pool is the full entity set.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import evaluate_full, evaluate_sampled, filtered_rank
from repro.core.sampling import NegativePools
from repro.kg.graph import HEAD, TAIL, keyed_by_relation
from repro.models import build_model


def _pools_from(graph, mapping, strategy="static"):
    pools = {HEAD: {}, TAIL: {}}
    for side in (HEAD, TAIL):
        for relation in range(graph.num_relations):
            pools[side][relation] = np.sort(mapping(relation, side))
    return NegativePools(
        strategy=strategy,
        pools={side: keyed_by_relation(pools[side], graph.num_entities) for side in pools},
        num_entities=graph.num_entities,
        sample_size=graph.num_entities,
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), size_small=st.integers(1, 30))
def test_property_pool_monotonicity(codex_s, seed, size_small):
    """rank(pool A) <= rank(pool A ∪ B) for every query."""
    graph = codex_s.graph
    model = build_model("distmult", graph.num_entities, graph.num_relations, dim=8, seed=1)
    rng = np.random.default_rng(seed)
    base = {
        (r, side): rng.choice(graph.num_entities, size=size_small, replace=False)
        for r in range(graph.num_relations)
        for side in (HEAD, TAIL)
    }
    extra = {
        key: np.union1d(pool, rng.choice(graph.num_entities, size=20, replace=False))
        for key, pool in base.items()
    }
    small = _pools_from(graph, lambda r, s: base[(r, s)])
    large = _pools_from(graph, lambda r, s: extra[(r, s)])
    ranks_small = evaluate_sampled(model, graph, small, split="test").ranks
    ranks_large = evaluate_sampled(model, graph, large, split="test").ranks
    for query, rank in ranks_small.items():
        assert rank <= ranks_large[query] + 1e-9, query


def test_full_pool_equals_full_evaluation(codex_s):
    graph = codex_s.graph
    model = build_model("complex", graph.num_entities, graph.num_relations, dim=8, seed=2)
    everything = _pools_from(graph, lambda r, s: np.arange(graph.num_entities))
    sampled = evaluate_sampled(model, graph, everything, split="test")
    full = evaluate_full(model, graph, split="test")
    for query, rank in sampled.ranks.items():
        assert rank == pytest.approx(full.ranks[query]), query


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_filtered_rank_bounds(seed):
    """1 <= filtered rank <= |candidates| + 1 regardless of inputs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 50))
    scores = rng.standard_normal(n)
    truth = int(rng.integers(n))
    known = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
    known = np.unique(np.append(known, truth))
    rank = filtered_rank(scores, truth, known)
    assert 1.0 <= rank <= n - known.size + 1 + 1e-9
