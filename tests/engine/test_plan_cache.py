"""The evaluation plan's cache lifecycle across checkpoints.

One plan per (graph, split, sides, pools) is built and then reused for
every model evaluated afterwards; anything that changes those inputs
builds a new one.  After every step the engine's ranks must equal the
scalar references ``core.ranking.filtered_rank`` (full) and
``core.estimators.sampled_rank`` (sampled).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.estimators import evaluate_sampled, sampled_rank
from repro.core.protocol import EvaluationProtocol
from repro.core.ranking import evaluate_full, filtered_rank
from repro.core.sampling import build_pools
from repro.datasets import SyntheticConfig, generate
from repro.engine import evaluation_plan
from repro.engine.worker import MAX_CACHED_PLANS, PLAN_BUILDS_COUNTER
from repro.kg import KnowledgeGraph
from repro.kg.graph import HEAD, TAIL
from repro.models import build_model
from repro.obs import get_registry

CONFIG = SyntheticConfig(
    num_entities=60,
    num_relations=3,
    num_types=2,
    num_triples=700,
    num_communities=2,
    noise_triples=2,
    seed=11,
    name="plan-cache",
)


def _builds() -> float:
    return get_registry().counter(PLAN_BUILDS_COUNTER).value()


def _checkpoint(graph: KnowledgeGraph, seed: int):
    # DistMult at dim 1: one product per score, so batched and
    # one-at-a-time scoring round identically and ranks compare exactly.
    return build_model("distmult", graph.num_entities, graph.num_relations, dim=1, seed=seed)


def _check_sampled(model, graph, pools, result) -> None:
    assert result.ranks
    for (h, r, t, side), rank in result.ranks.items():
        anchor, truth = (t, h) if side == HEAD else (h, t)
        expected, _ = sampled_rank(model, graph, anchor, r, side, truth, pools.pool(r, side))
        assert rank == expected, (h, r, t, side)


def _check_full(model, graph, result) -> None:
    assert result.ranks
    for (h, r, t, side), rank in result.ranks.items():
        anchor, truth = (t, h) if side == HEAD else (h, t)
        scores = model.score_all(anchor, r, side)
        assert rank == filtered_rank(scores, truth, graph.true_answers(anchor, r, side))


@pytest.fixture
def graph() -> KnowledgeGraph:
    return generate(CONFIG).graph


@pytest.mark.parametrize("workers", [1, 2])
class TestPlanLifecycle:
    def test_one_plan_across_checkpoints(self, graph, workers):
        protocol = EvaluationProtocol(graph, strategy="random", sample_fraction=0.3, seed=0)
        before = _builds()
        protocol.prepare()  # preparation builds the test split's plan
        assert _builds() == before + 1
        plan = evaluation_plan(graph, "test", pools=protocol.pools)
        for seed in range(3):
            model = _checkpoint(graph, seed)
            result = protocol.evaluate(model, workers=workers)
            _check_sampled(model, graph, protocol.pools, result)
        assert _builds() == before + 1
        assert evaluation_plan(graph, "test", pools=protocol.pools) is plan

    def test_in_place_mutation_gives_new_ranks(self, graph, workers):
        protocol = EvaluationProtocol(graph, strategy="random", sample_fraction=0.3, seed=0)
        model = _checkpoint(graph, 0)
        first = protocol.evaluate(model, workers=workers)
        for array in model.parameter_arrays().values():
            array *= -1.0  # a training step, in place
        second = protocol.evaluate(model, workers=workers)
        assert second.ranks != first.ranks
        _check_sampled(model, graph, protocol.pools, second)
        full_first = evaluate_full(model, graph, workers=workers)
        for array in model.parameter_arrays().values():
            array *= 0.5
            array += 0.25
        full_second = evaluate_full(model, graph, workers=workers)
        assert full_second.ranks != full_first.ranks
        _check_full(model, graph, full_second)

    def test_changed_inputs_rebuild(self, graph, workers):
        protocol = EvaluationProtocol(graph, strategy="random", sample_fraction=0.3, seed=0)
        protocol.prepare()
        model = _checkpoint(graph, 1)
        builds = _builds()

        protocol.resample(5)  # a new pools object needs a new plan
        assert _builds() == builds + 1
        _check_sampled(model, graph, protocol.pools, protocol.evaluate(model, workers=workers))

        result = protocol.evaluate(model, split="valid", workers=workers)
        assert _builds() == builds + 2
        _check_sampled(model, graph, protocol.pools, result)

        result = evaluate_sampled(
            model, graph, protocol.pools, sides=(TAIL,), workers=workers
        )
        assert _builds() == builds + 3
        assert {side for *_, side in result.ranks} == {TAIL}
        _check_sampled(model, graph, protocol.pools, result)

        result = evaluate_full(model, graph, workers=workers)
        assert _builds() == builds + 4
        _check_full(model, graph, result)

        fresh = generate(CONFIG).graph  # same triples, a new graph object
        result = evaluate_sampled(model, fresh, protocol.pools, workers=workers)
        assert _builds() == builds + 5
        _check_sampled(model, fresh, protocol.pools, result)

    def test_chunk_size_reuses_the_plan(self, graph, workers):
        # Exclusions are stored per query, so the schedule is cut per run
        # and every chunk size shares one plan.
        protocol = EvaluationProtocol(graph, strategy="random", sample_fraction=0.3, seed=0)
        protocol.prepare()
        model = _checkpoint(graph, 2)
        builds = _builds()
        results = [
            evaluate_sampled(
                model, graph, protocol.pools, workers=workers, chunk_size=chunk_size
            )
            for chunk_size in (1, 7, 128)
        ]
        assert _builds() == builds
        assert results[0].ranks == results[1].ranks == results[2].ranks
        _check_sampled(model, graph, protocol.pools, results[1])


def test_cache_is_bounded_and_holds_its_pools(graph):
    protocol = EvaluationProtocol(graph, strategy="random", sample_fraction=0.3, seed=0)
    drawn = []
    for seed in range(8):
        protocol.resample(seed)
        drawn.append(protocol.pools)
    assert len(graph.evaluation_plans) == MAX_CACHED_PLANS
    # Most recent first, each holding the very pools object it was built for.
    assert all(
        plan.pools is pools
        for plan, pools in zip(graph.evaluation_plans, drawn[::-1])
    )
    # A hit moves its plan to the front, so the next miss evicts another.
    oldest = graph.evaluation_plans[-1]
    assert evaluation_plan(graph, "test", pools=oldest.pools) is oldest
    protocol.resample(99)
    assert graph.evaluation_plans[1] is oldest
    assert all(plan.pools is not drawn[1 - MAX_CACHED_PLANS] for plan in graph.evaluation_plans)


def test_plan_arrays_are_consistent(graph):
    protocol = EvaluationProtocol(graph, strategy="random", sample_fraction=0.3, seed=0)
    protocol.prepare()
    plan = evaluation_plan(graph, "test", pools=protocol.pools)
    assert plan.queries.shape == (2 * len(graph.test), 4)
    assert plan.excluded_starts[-1] == plan.excluded_rows.size == plan.excluded_cols.size
    assert np.all(np.diff(plan.excluded_rows) >= 0)
    # Every excluded column is a pool position holding a known answer.
    for row in range(plan.num_queries):
        group = int(np.searchsorted(plan.starts, row, side="right")) - 1
        relation, side = plan.groups[group]
        lo, hi = plan.excluded_starts[row], plan.excluded_starts[row + 1]
        anchor = int(plan.queries[row, 0])
        pool = protocol.pools.pool(relation, side)
        known = graph.true_answers(anchor, relation, side)
        assert sorted(pool[plan.excluded_cols[lo:hi]].tolist()) == sorted(
            np.intersect1d(pool, known).tolist()
        )


def test_concurrent_lookups_share_one_plan_per_key(graph):
    # More threads than cores, a short switch interval, and more keys than
    # the cache holds: every call must get a plan for its own key, and the
    # cache must stay bounded with no plan in it twice.
    pools = [
        build_pools(graph, "random", np.random.default_rng(seed), num_samples=10)
        for seed in range(MAX_CACHED_PLANS + 2)
    ]
    errors: list[BaseException] = []
    start = threading.Barrier(8)

    def hammer(thread: int) -> None:
        try:
            start.wait(timeout=10)
            for step in range(40):
                index = (thread + step) % len(pools)
                plan = evaluation_plan(graph, "test", pools=pools[index])
                assert plan.pools is pools[index] and plan.split == "test"
        except BaseException as error:  # surfaced below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    assert len(graph.evaluation_plans) <= MAX_CACHED_PLANS
    assert len({id(plan) for plan in graph.evaluation_plans}) == len(graph.evaluation_plans)
