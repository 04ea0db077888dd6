"""Per-model engine oracle: every registered model ranks as the scalar reference.

For each of the seven registered models in float32 and float64, the
engine's full and sampled paths must give bitwise-identical ranks at one
and two workers, and those ranks must equal the scalar ``filtered_rank``
over ``score_all`` (full) or the pool's ``score_candidates`` (sampled).

The engine scores chunks of queries with one many-row product while the
reference scores one query at a time, and BLAS may round those two
differently in the last ulp.  A rank may therefore differ from the
reference only by competitors whose score lies within a few ulp of the
truth's; anywhere else the two must agree exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimators import evaluate_sampled
from repro.core.ranking import evaluate_full, filtered_rank
from repro.core.sampling import build_pools
from repro.datasets import SyntheticConfig, generate
from repro.kg.graph import HEAD
from repro.models import MODEL_REGISTRY, build_model

DTYPES = ("float32", "float64")
#: Small enough that every model's test split spans several chunks.
CHUNK_SIZE = 8
#: How many ulp (relative to the truth's magnitude) count as a near-tie.
NEAR_TIE_ULP = 16


@pytest.fixture(scope="module")
def graph():
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
    return generate(config).graph


@pytest.fixture(scope="module")
def pools(graph):
    return build_pools(graph, "random", np.random.default_rng(0), num_samples=12)


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


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
class TestModelOracle:
    def test_full_ranks(self, graph, name, dtype):
        model = build_model(
            name, graph.num_entities, graph.num_relations, dim=8, seed=1, dtype=dtype
        )
        serial = evaluate_full(model, graph, workers=1, chunk_size=CHUNK_SIZE)
        parallel = evaluate_full(model, graph, workers=2, chunk_size=CHUNK_SIZE)
        assert parallel.ranks == serial.ranks
        for key, rank in serial.ranks.items():
            anchor, truth, relation, side = _query(key)
            _assert_rank_matches(
                rank,
                model.score_all(anchor, relation, side),
                truth,
                graph.true_answers(anchor, relation, side),
            )

    def test_sampled_ranks(self, graph, pools, name, dtype):
        model = build_model(
            name, graph.num_entities, graph.num_relations, dim=8, seed=1, dtype=dtype
        )
        serial = evaluate_sampled(model, graph, pools, workers=1, chunk_size=CHUNK_SIZE)
        parallel = evaluate_sampled(model, graph, pools, workers=2, chunk_size=CHUNK_SIZE)
        assert parallel.ranks == serial.ranks
        for key, rank in serial.ranks.items():
            anchor, truth, relation, side = _query(key)
            pool = pools.pool(relation, side)
            scores = np.full(graph.num_entities, -np.inf, dtype=model.np_dtype)
            if pool.size:
                scores[pool] = model.score_candidates(anchor, relation, side, pool)
            scores[truth] = model.score_candidates(anchor, relation, side, [truth])[0]
            _assert_rank_matches(
                rank, scores, truth, graph.true_answers(anchor, relation, side)
            )
