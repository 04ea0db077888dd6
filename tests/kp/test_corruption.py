"""KP's negative-corruption step in isolation."""

import numpy as np
import pytest

from repro.core import build_pools
from repro.core.sampling import NegativePools
from repro.kg.graph import SIDES, keyed_by_relation
from repro.kp.metric import _corrupt


def _reference_corrupt(triples, pools, num_entities, rng):
    """One draw per triple, in row order: the loop ``_corrupt`` vectorises."""
    corrupted = triples.copy()
    corrupt_head = rng.random(triples.shape[0]) < 0.5
    for i, (_, r, _) in enumerate(triples):
        side = "head" if corrupt_head[i] else "tail"
        pool = pools.pool(int(r), side) if pools is not None else np.empty(0, dtype=np.int64)
        if pool.size:
            replacement = int(pool[rng.integers(pool.size)])
        else:
            replacement = int(rng.integers(num_entities))
        corrupted[i, 0 if corrupt_head[i] else 2] = replacement
    return corrupted


class TestCorrupt:
    def test_one_end_changed_per_triple(self, codex_s, rng):
        triples = codex_s.graph.test.array
        corrupted = _corrupt(triples, None, codex_s.graph.num_entities, rng)
        changed_head = corrupted[:, 0] != triples[:, 0]
        changed_tail = corrupted[:, 2] != triples[:, 2]
        # Uniform redraws can collide with the original entity, so allow a
        # few unchanged rows, but never both ends changed at once.
        assert not np.any(changed_head & changed_tail)
        assert (changed_head | changed_tail).mean() > 0.9
        np.testing.assert_array_equal(corrupted[:, 1], triples[:, 1])

    def test_pool_guided_replacements_from_pools(self, codex_s, rng):
        from repro.recommenders import build_recommender

        graph = codex_s.graph
        fitted = build_recommender("pt").fit(graph)
        pools = build_pools(
            graph,
            "probabilistic",
            rng=np.random.default_rng(3),
            sample_fraction=0.3,
            fitted=fitted,
        )
        triples = graph.test.array
        corrupted = _corrupt(triples, pools, graph.num_entities, rng)
        for original, new in zip(triples, corrupted):
            if new[0] != original[0]:
                pool = pools.pool(int(new[1]), "head")
                assert new[0] in pool
            elif new[2] != original[2]:
                pool = pools.pool(int(new[1]), "tail")
                assert new[2] in pool

    def test_deterministic_under_rng_state(self, codex_s):
        triples = codex_s.graph.test.array
        a = _corrupt(triples, None, codex_s.graph.num_entities, np.random.default_rng(5))
        b = _corrupt(triples, None, codex_s.graph.num_entities, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_matches_the_per_triple_loop(self, codex_s):
        """Bitwise the per-triple draws, and the generator left in the
        same state, with no pools, drawn pools, and pools that leave
        relations and whole sides empty."""
        graph = codex_s.graph
        sparse = {"tail": {1: np.arange(3), 4: np.array([7])}, "head": {}}
        cases = [
            None,
            build_pools(graph, "random", np.random.default_rng(0), num_samples=5),
            build_pools(graph, "random", np.random.default_rng(1), num_samples=1),
            NegativePools(
                strategy="random",
                pools={side: keyed_by_relation(sparse[side], graph.num_entities) for side in SIDES},
                num_entities=graph.num_entities,
                sample_size=3,
            ),
        ]
        for seed in range(10):
            picks = np.random.default_rng(seed)
            triples = graph.valid.array[
                picks.choice(len(graph.valid), size=int(picks.integers(0, 120)), replace=False)
            ]
            for pools in cases:
                expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
                expected = _reference_corrupt(triples, pools, graph.num_entities, expected_rng)
                corrupted = _corrupt(triples, pools, graph.num_entities, rng)
                assert corrupted.dtype == expected.dtype
                np.testing.assert_array_equal(corrupted, expected)
                assert rng.random() == expected_rng.random()
