"""Query grouping, chunk planning and the deterministic task schedule."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.sampling import build_pools
from repro.engine.chunking import (
    ChunkTask,
    plan_chunks,
    query_chunks,
    query_table,
    split_triples,
)
from repro.engine.worker import evaluation_plan
from repro.kg import KnowledgeGraph, TripleSet, Vocabulary


def _plan(graph, split: str, sampled: bool):
    pools = None
    if sampled:
        pools = build_pools(graph, "random", np.random.default_rng(0), num_samples=3)
    return evaluation_plan(graph, split, pools=pools)


def _scheduled(graph, split: str, chunk_size: int, sampled: bool = False):
    plan = _plan(graph, split, sampled)
    return plan, plan_chunks(plan, chunk_size)


def _group_of_rows(plan) -> np.ndarray:
    return np.repeat(np.arange(len(plan.groups)), np.diff(plan.starts))


def _reference_groups(graph, split, sides):
    """The grouping by definition: walk the split triple by triple,
    skipping a triple already walked."""
    groups: dict = {}
    seen: set = set()
    for h, r, t in split_triples(graph, split):
        if (h, r, t) in seen:
            continue
        seen.add((h, r, t))
        for side in sides:
            anchor, truth = (t, h) if side == "head" else (h, t)
            groups.setdefault((r, side), []).append((anchor, truth, h, t))
    return groups


class TestPlanChunks:
    def test_covers_every_query_exactly_once(self):
        # Both schedules tile the table's rows [0, N) in order, without
        # gaps or overlaps.
        for seed, sampled in itertools.product(range(4), (False, True)):
            plan, tasks = _scheduled(_random_graph(seed, seed % 2 == 1), "test", 4, sampled)
            assert tasks[0].start == 0 and tasks[-1].stop == plan.num_queries
            for task, after in zip(tasks, tasks[1:]):
                assert task.stop == after.start
            assert sum(t.num_queries for t in tasks) == plan.num_queries

    def test_tasks_carry_their_group_identity(self):
        # A sampled task names the (relation, side) group owning every one
        # of its rows; a full-path task names none.
        graph = _random_graph(0, False)
        plan, tasks = _scheduled(graph, "test", 4, sampled=True)
        group_of_row = _group_of_rows(plan)
        for task in tasks:
            owners = set(group_of_row[task.start : task.stop].tolist())
            assert len(owners) == 1
            assert (task.relation, task.side) == plan.groups[owners.pop()]
        _, full = _scheduled(graph, "test", 4)
        assert all(t.relation is None and t.side is None for t in full)

    def test_chunk_size_bounds_every_task(self, tiny_graph):
        _, tasks = _scheduled(tiny_graph, "train", chunk_size=1)
        assert all(t.num_queries == 1 for t in tasks)
        for sampled in (False, True):
            for chunk_size in (3, 8):
                _, tasks = _scheduled(_random_graph(1, True), "test", chunk_size, sampled)
                assert all(0 < t.num_queries <= chunk_size for t in tasks)

    def test_full_chunks_are_full_height_runs(self):
        # Without pools every chunk but the last holds chunk_size rows.
        plan, tasks = _scheduled(_random_graph(2, False), "test", 8)
        assert [t.num_queries for t in tasks[:-1]] == [8] * (len(tasks) - 1)
        assert len(tasks) == -(-plan.num_queries // 8)

    def test_full_chunks_cross_group_and_side_boundaries(self):
        plan, tasks = _scheduled(_random_graph(3, False), "test", 8)
        group_of_row = _group_of_rows(plan)
        _, sides = plan.row_groups
        spans = [(group_of_row[t.start : t.stop], sides[t.start : t.stop]) for t in tasks]
        assert any(np.unique(groups).size > 1 for groups, _ in spans)
        assert any(np.unique(codes).size > 1 for _, codes in spans)

    def test_sampled_chunks_never_cross_a_group(self):
        for seed in range(4):
            plan, tasks = _scheduled(_random_graph(seed, seed % 2 == 1), "test", 4, sampled=True)
            group_of_row = _group_of_rows(plan)
            for task in tasks:
                assert np.unique(group_of_row[task.start : task.stop]).size == 1
            # The sampled schedule is each group cut on its own.
            expected = [
                (start + chunk.start, start + chunk.stop)
                for start, stop in zip(plan.starts[:-1].tolist(), plan.starts[1:].tolist())
                for chunk in query_chunks(stop - start, 4)
            ]
            assert [(t.start, t.stop) for t in tasks] == expected

    def test_rejects_nonpositive_chunk_size(self, tiny_graph):
        plan = _plan(tiny_graph, "test", sampled=False)
        with pytest.raises(ValueError, match="chunk_size"):
            plan_chunks(plan, chunk_size=0)

    def test_empty_split_plans_no_tasks(self, gates_graph):
        # gates_graph has no test triples at all.
        for sampled in (False, True):
            assert plan_chunks(_plan(gates_graph, "test", sampled)) == []

    def test_schedule_is_deterministic(self, tiny_graph):
        _, a = _scheduled(tiny_graph, "train", chunk_size=2)
        _, b = _scheduled(tiny_graph, "train", chunk_size=2)
        assert a == b
        assert all(isinstance(t, ChunkTask) for t in a)


class TestQueryChunks:
    def test_slices_tile_the_range(self):
        slices = list(query_chunks(10, 3))
        assert [(s.start, s.stop) for s in slices] == [
            (0, 3), (3, 6), (6, 9), (9, 10),
        ]

    def test_zero_queries_yield_nothing(self):
        assert list(query_chunks(0)) == []


def _random_graph(seed: int, duplicates: bool) -> KnowledgeGraph:
    rng = np.random.default_rng(seed)
    triples = rng.integers(0, [30, 5, 30], size=(60, 3))
    test = triples[-25:]
    if duplicates:
        test = np.concatenate([test, test[rng.integers(0, len(test), size=6)]])
    return KnowledgeGraph(
        entities=Vocabulary([f"e{i}" for i in range(30)]),
        relations=Vocabulary([f"r{i}" for i in range(5)]),
        train=TripleSet(triples[:-25]),
        test=TripleSet(test),
    )


class TestOrderedGroups:
    def test_matches_grouped_queries_order(self, tiny_graph):
        # The vectorised table must reproduce the per-triple walk exactly:
        # group order (first appearance) and within-group order.
        cases = [(tiny_graph, split) for split in ("train", "valid", "test")]
        cases += [(_random_graph(seed, seed % 2 == 1), "test") for seed in range(6)]
        for graph, split in cases:
            for sides in (("head", "tail"), ("tail", "head"), ("tail",), ("head",)):
                table, groups, starts = query_table(graph, split, sides)
                reference = _reference_groups(graph, split, sides)
                assert groups == list(reference)
                blocks = [
                    [tuple(row) for row in table[starts[g] : starts[g + 1]].tolist()]
                    for g in range(len(groups))
                ]
                assert blocks == list(reference.values())
                assert table.dtype == np.int64
