"""KP degenerate inputs: single-query graphs, empty pools, tiny splits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sampling import NegativePools
from repro.kg.graph import SIDES, keyed_by_relation
from repro.kp.metric import knowledge_persistence
from repro.kp.persistence import h0_diagram, score_graph_diagram
from repro.kp.wasserstein import sliced_wasserstein
from repro.models import build_model


@pytest.fixture
def tiny_model(tiny_graph):
    return build_model(
        "distmult", tiny_graph.num_entities, tiny_graph.num_relations, dim=4, seed=0
    )


class TestSingleQueryGraphs:
    def test_kp_on_single_triple_split(self, tiny_graph, tiny_model):
        # The valid split holds exactly one triple: KP must still produce
        # a finite value from one positive and one negative score graph.
        result = knowledge_persistence(tiny_model, tiny_graph, split="valid", seed=0)
        assert result.num_positive == 1
        assert result.num_negative == 1
        assert np.isfinite(result.value)
        assert result.value >= 0.0

    def test_kp_num_triples_larger_than_split_keeps_everything(
        self, tiny_graph, tiny_model
    ):
        result = knowledge_persistence(
            tiny_model, tiny_graph, split="test", num_triples=10_000
        )
        assert result.num_positive == len(tiny_graph.test)

    def test_single_edge_score_graph(self):
        diagram = score_graph_diagram(
            np.asarray([[0, 1, 2]]), np.asarray([0.7]), num_entities=5
        )
        # One merge event plus the essential class, both born and dying
        # at the only edge weight: zero total persistence.
        assert diagram.num_points == 2
        np.testing.assert_allclose(diagram.points, [[0.7, 0.7], [0.7, 0.7]])
        assert diagram.total_persistence() == 0.0


class TestDegeneratePools:
    def test_kp_with_empty_pools_falls_back_to_uniform(self, tiny_graph, tiny_model):
        empty = NegativePools(
            strategy="static",
            pools={side: keyed_by_relation({}, tiny_graph.num_entities) for side in SIDES},
            num_entities=tiny_graph.num_entities,
            sample_size=0,
        )
        seeded = knowledge_persistence(
            tiny_model, tiny_graph, split="test", pools=empty, seed=5
        )
        uniform = knowledge_persistence(
            tiny_model, tiny_graph, split="test", pools=None, seed=5
        )
        # An empty pool degrades to uniform corruption, same RNG stream.
        assert seeded.value == uniform.value

    def test_single_entity_pools_pin_the_corruption(self, tiny_graph, tiny_model):
        pinned = NegativePools(
            strategy="static",
            pools={
                side: keyed_by_relation(
                    {r: np.asarray([5]) for r in range(tiny_graph.num_relations)},
                    tiny_graph.num_entities,
                )
                for side in SIDES
            },
            num_entities=tiny_graph.num_entities,
            sample_size=1,
        )
        result = knowledge_persistence(
            tiny_model, tiny_graph, split="test", pools=pinned, seed=0
        )
        assert np.isfinite(result.value)


class TestEmptyRankStructures:
    def test_empty_diagrams_have_zero_distance(self):
        from repro.kp.persistence import PersistenceDiagram

        empty = PersistenceDiagram(np.empty((0, 2)))
        assert sliced_wasserstein(empty, empty) == 0.0

    def test_h0_of_self_loops_only_is_single_essential(self):
        # Self-loops merge nothing; the one touched vertex survives.
        diagram = h0_diagram(np.asarray([[2, 2], [2, 2]]), np.asarray([0.1, 0.9]))
        assert diagram.num_points == 1
        assert diagram.points[0] == pytest.approx([0.1, 0.9])
