"""Query grouping, chunk planning and the deterministic task schedule."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.chunking import (
    ChunkTask,
    plan_chunks,
    query_chunks,
    query_table,
    split_triples,
)
from repro.kg import KnowledgeGraph, TripleSet, Vocabulary


def _scheduled(graph, split: str, chunk_size: int):
    _, groups, starts = query_table(graph, split)
    return groups, starts, plan_chunks(groups, starts, chunk_size)


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
    def test_covers_every_query_exactly_once(self, tiny_graph):
        groups, starts, tasks = _scheduled(tiny_graph, "train", chunk_size=2)
        assert sum(t.num_queries for t in tasks) == starts[-1]
        # Chunks of one group tile [0, len) without gaps or overlaps.
        for index in range(len(groups)):
            spans = sorted(
                (t.start, t.stop) for t in tasks if t.group == index
            )
            assert spans[0][0] == 0
            assert spans[-1][1] == starts[index + 1] - starts[index]
            for (_, stop), (start, _) in zip(spans, spans[1:]):
                assert stop == start

    def test_tasks_carry_their_group_identity(self, tiny_graph):
        groups, _, tasks = _scheduled(tiny_graph, "test", chunk_size=128)
        for task in tasks:
            assert (task.relation, task.side) == groups[task.group]

    def test_chunk_size_bounds_every_task(self, tiny_graph):
        _, _, tasks = _scheduled(tiny_graph, "train", chunk_size=1)
        assert all(t.num_queries == 1 for t in tasks)

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            plan_chunks([], [0], chunk_size=0)

    def test_empty_split_plans_no_tasks(self, gates_graph):
        # gates_graph has no test triples at all.
        _, groups, starts = query_table(gates_graph, "test")
        assert plan_chunks(groups, starts) == []

    def test_schedule_is_deterministic(self, tiny_graph):
        *_, a = _scheduled(tiny_graph, "train", chunk_size=2)
        *_, b = _scheduled(tiny_graph, "train", chunk_size=2)
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
