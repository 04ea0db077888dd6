"""A compact store is a KnowledgeGraph: differential test against its twin.

``open_compact(save_compact(g))`` holds the same triples as ``g`` as
int32 memory maps, with vocabularies read from their label files on
first use.  Everything the paper's protocol and its training, candidate
and KP measurements compute over it must be bitwise-identical to what
they compute over ``g``, and the two must share store artifacts (one
``graph_fingerprint``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.candidates import build_static_candidates, evaluate_tradeoff
from repro.core.protocol import EvaluationProtocol
from repro.kg import open_compact, save_compact
from repro.kg.graph import CSR_ARRAYS, SIDES
from repro.kp import knowledge_persistence
from repro.models import Trainer, TrainingConfig, build_model
from repro.models.fused import trains_fused
from repro.recommenders import build_recommender
from repro.store.keys import graph_fingerprint


@pytest.fixture(scope="module")
def twins(codex_s, tmp_path_factory):
    """``(in-memory graph, the same graph opened from its store)``."""
    graph = codex_s.graph
    return graph, open_compact(save_compact(graph, tmp_path_factory.mktemp("store")))


def _model(graph, name="complex"):
    return build_model(name, graph.num_entities, graph.num_relations, dim=8, seed=0)


@pytest.mark.parametrize("strategy", ["static", "probabilistic", "random"])
def test_protocol_evaluates_bitwise_alike(twins, strategy):
    results = []
    for graph in twins:
        protocol = EvaluationProtocol(graph, strategy=strategy, seed=0)
        protocol.prepare()
        results.append(protocol.evaluate(_model(graph)))
    memory, store = results
    assert store.ranks == memory.ranks
    assert store.metrics == memory.metrics


@pytest.mark.parametrize("name", ["distmult", "conve"])
def test_one_training_epoch_bitwise_alike(twins, name):
    trained = []
    for graph in twins:
        model = _model(graph, name)
        assert trains_fused(model) == (name == "distmult")
        Trainer(TrainingConfig(epochs=1, loss="bce", seed=0)).fit(model, graph)
        trained.append([parameter.data for parameter in model.parameter_list()])
    for memory, store in zip(*trained):
        np.testing.assert_array_equal(store, memory)


@pytest.mark.parametrize("recommender", ["l-wd", "pt", "dbh"])
def test_candidate_sets_and_tradeoff_bitwise_alike(twins, recommender):
    built = []
    for graph in twins:
        fitted = build_recommender(recommender).fit(graph)
        sets = build_static_candidates(fitted, graph)
        built.append((sets, evaluate_tradeoff(sets, graph)))
    (memory_sets, memory_report), (store_sets, store_report) = built
    for side in SIDES:
        np.testing.assert_array_equal(store_sets.thresholds[side], memory_sets.thresholds[side])
        for name in CSR_ARRAYS:
            expected = getattr(memory_sets.sets[side], name)
            got = getattr(store_sets.sets[side], name)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)
    assert store_report == memory_report


def test_knowledge_persistence_bitwise_alike(twins):
    memory, store = (knowledge_persistence(_model(graph), graph, seed=0) for graph in twins)
    assert store.value == memory.value
    for side in ("positive_diagram", "negative_diagram"):
        np.testing.assert_array_equal(
            getattr(store, side).points, getattr(memory, side).points
        )


def test_store_shares_the_graph_fingerprint(twins):
    memory, store = twins
    assert graph_fingerprint(store) == graph_fingerprint(memory)
