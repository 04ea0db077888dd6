"""The engine's headline guarantee: parallelism never changes a result.

Every test here compares a multi-worker run against the serial path on
the same inputs and demands *exact* equality — same rank dictionary, same
metrics — because the engine consumes chunk results in schedule order and
scoring is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimators import evaluate_sampled
from repro.core.protocol import EvaluationProtocol
from repro.core.ranking import evaluate_full
from repro.engine import (
    EvaluationEngine,
    active_pools,
    resolve_workers,
    shutdown_engine_pools,
)
from repro.models import build_model
from repro.store import ExperimentStore


@pytest.fixture(scope="module")
def graph_and_model():
    from repro.datasets.zoo import load

    dataset = load("codex-s-lite")
    graph = dataset.graph
    model = build_model(
        "complex", graph.num_entities, graph.num_relations, dim=16, seed=0
    )
    return dataset, graph, model


class TestResolveWorkers:
    def test_none_and_zero_mean_serial(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1

    def test_negative_means_all_cores(self):
        assert resolve_workers(-1) >= 1

    def test_positive_passes_through(self):
        assert resolve_workers(3) == 3

    def test_engine_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            EvaluationEngine(chunk_size=0)


class TestFullEvaluationParallel:
    def test_ranks_bitwise_equal_across_worker_counts(self, graph_and_model):
        _, graph, model = graph_and_model
        serial = evaluate_full(model, graph, workers=1)
        parallel = evaluate_full(model, graph, workers=3)
        assert parallel.ranks == serial.ranks
        assert parallel.metrics == serial.metrics
        assert parallel.num_scored == serial.num_scored

    def test_chunk_size_does_not_change_ranks(self, graph_and_model):
        _, graph, model = graph_and_model
        default = evaluate_full(model, graph)
        rechunked = evaluate_full(model, graph, chunk_size=7, workers=2)
        assert rechunked.ranks == default.ranks

    def test_more_workers_than_chunks_is_fine(self, tiny_graph):
        model = build_model(
            "distmult", tiny_graph.num_entities, tiny_graph.num_relations, dim=4
        )
        serial = evaluate_full(model, tiny_graph, workers=1)
        # Two chunks, four workers: every requested worker is a live
        # process, so the surplus stays small.
        flooded = evaluate_full(model, tiny_graph, workers=4, chunk_size=1)
        assert flooded.ranks == serial.ranks

    def test_fewer_chunks_than_workers_reuses_the_one_pool(self):
        from repro.kg import KnowledgeGraph, TripleSet, Vocabulary

        graph = KnowledgeGraph(
            entities=Vocabulary([f"e{i}" for i in range(6)]),
            relations=Vocabulary(["r0", "r1", "r2"]),
            train=TripleSet([(0, 0, 2), (1, 1, 3), (2, 2, 4), (3, 0, 5)]),
            test=TripleSet([(0, 0, 1), (1, 1, 2), (2, 2, 3)]),
            name="three-relations",
        )
        model = build_model("distmult", 6, 3, dim=4, seed=0)
        shutdown_engine_pools()
        try:
            for sides in (("tail",), ("head", "tail")):  # 3 chunks, then 6
                serial = EvaluationEngine().run(model, graph, sides=sides)
                fanned = EvaluationEngine(workers=4, chunk_size=1).run(model, graph, sides=sides)
                assert fanned.ranks == serial.ranks
                pools = active_pools()
                assert [pool.workers for pool in pools] == [4]
        finally:
            shutdown_engine_pools()


class TestSampledEvaluationParallel:
    def test_sampled_ranks_bitwise_equal(self, graph_and_model):
        dataset, graph, model = graph_and_model
        protocol = EvaluationProtocol(
            graph, strategy="static", types=dataset.types, seed=0
        )
        protocol.prepare()
        assert protocol.pools is not None
        serial = evaluate_sampled(model, graph, protocol.pools, workers=1)
        parallel = evaluate_sampled(model, graph, protocol.pools, workers=2)
        assert parallel.ranks == serial.ranks
        assert parallel.metrics == serial.metrics
        assert parallel.strategy == "static"

    def test_degenerate_empty_pools_rank_everything_first(self, tiny_graph):
        from repro.core.sampling import NegativePools
        from repro.kg.graph import SIDES, keyed_by_relation

        model = build_model(
            "distmult", tiny_graph.num_entities, tiny_graph.num_relations, dim=4
        )
        empty = NegativePools(
            strategy="static",
            pools={side: keyed_by_relation({}, tiny_graph.num_entities) for side in SIDES},
            num_entities=tiny_graph.num_entities,
            sample_size=0,
        )
        for workers in (1, 2):
            result = evaluate_sampled(model, tiny_graph, empty, workers=workers)
            assert set(result.ranks.values()) == {1.0}
            assert result.metrics.mrr == 1.0


class TestProtocolWorkers:
    def test_protocol_level_workers_apply_to_both_paths(self, graph_and_model):
        dataset, graph, model = graph_and_model
        serial = EvaluationProtocol(graph, types=dataset.types, seed=0)
        fanned = EvaluationProtocol(graph, types=dataset.types, seed=0, workers=2)
        assert fanned.evaluate(model).ranks == serial.evaluate(model).ranks
        assert fanned.evaluate_full(model).ranks == serial.evaluate_full(model).ranks

    def test_per_call_override_beats_protocol_setting(self, graph_and_model):
        dataset, graph, model = graph_and_model
        protocol = EvaluationProtocol(graph, types=dataset.types, seed=0, workers=2)
        protocol.prepare()
        # A workers=1 override must run serially and still agree.
        assert (
            protocol.evaluate(model, workers=1).ranks
            == protocol.evaluate(model).ranks
        )

    def test_store_miss_path_accepts_workers(self, graph_and_model, tmp_path):
        _, graph, model = graph_and_model
        store = ExperimentStore(tmp_path / "store")
        protocol = EvaluationProtocol(graph, seed=0, store=store, workers=2)
        first = protocol.evaluate_full(model)  # miss: computed with 2 workers
        second = protocol.evaluate_full(model)  # hit: artifact load
        assert second.ranks == first.ranks
        plain = evaluate_full(model, graph)
        assert first.ranks == plain.ranks


class TestStreamingMode:
    """What one engine run returns: a rank per distinct query and the
    metrics of exactly those ranks."""

    def test_duplicate_triples_collapse_only_in_the_rank_dict(self):
        """A repeated triple is one query per side everywhere: in the rank
        dict, the query count, the metrics and the scored entities."""
        from repro.kg import KnowledgeGraph, TripleSet, Vocabulary
        from repro.metrics import aggregate_ranks

        def graph(test):
            return KnowledgeGraph(
                entities=Vocabulary(["a", "b", "c"]),
                relations=Vocabulary(["r"]),
                train=TripleSet([(0, 0, 1), (1, 0, 2)]),
                test=TripleSet(test),
                name="dup",
            )

        model = build_model("distmult", 3, 1, dim=4, seed=0)
        once = EvaluationEngine().run(model, graph([(0, 0, 1)]))
        for workers in (1, 2):
            # One query per chunk, so the two-worker run uses the pool.
            twice = EvaluationEngine(workers=workers, chunk_size=1).run(
                model, graph([(0, 0, 1), (0, 0, 1)])
            )
            assert twice.num_queries == len(twice.ranks) == 2
            assert twice.metrics.num_queries == 2
            assert twice.metrics == aggregate_ranks(twice.ranks.values())
            assert twice.ranks == once.ranks
            assert twice.metrics == once.metrics
            assert twice.num_scored == once.num_scored

    def test_single_query_graph(self, tiny_graph):
        model = build_model(
            "distmult", tiny_graph.num_entities, tiny_graph.num_relations, dim=4
        )
        # The tiny graph's valid split holds exactly one triple; restrict
        # to one side so the whole run is a single one-query chunk.
        run = EvaluationEngine(workers=2).run(
            model, tiny_graph, split="valid", sides=("tail",)
        )
        assert run.num_queries == 1
        assert np.isfinite(run.metrics.mrr)


class TestCLIWorkers:
    def test_evaluate_accepts_workers_flag(self, capsys):
        from repro.cli import main

        code = main(
            [
                "evaluate",
                "--dataset",
                "codex-s-lite",
                "--model",
                "distmult",
                "--epochs",
                "1",
                "--dim",
                "8",
                "--workers",
                "2",
                "--chunk-size",
                "64",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "full filtered ranking" in out
