"""Full filtered ranking: hand-checked ranks, filtering semantics, batching."""

import numpy as np
import pytest

from repro.core import evaluate_full, filtered_rank
from repro.engine.chunking import (
    chunk_filtered_ranks,
    collect_known_answers,
    pool_positions,
    query_chunks,
    query_table,
    split_triples,
)
from repro.kg import build_filter_csr
from repro.kg.graph import HEAD, TAIL
from repro.models import RandomModel, build_model


class TestFilteredRank:
    def test_best_rank_is_one(self):
        scores = np.array([0.1, 0.9, 0.2, 0.3])
        assert filtered_rank(scores, truth=1, known_answers=np.array([1])) == 1.0

    def test_counts_better_candidates(self):
        scores = np.array([0.5, 0.1, 0.9, 0.8])
        # truth = 1 (0.1): three candidates score higher.
        assert filtered_rank(scores, truth=1, known_answers=np.array([1])) == 4.0

    def test_known_answers_are_filtered(self):
        scores = np.array([0.5, 0.1, 0.9, 0.8])
        # 2 and 3 are known true answers: only 0 outranks the truth.
        assert filtered_rank(scores, truth=1, known_answers=np.array([1, 2, 3])) == 2.0

    def test_ties_count_half(self):
        scores = np.array([0.5, 0.5, 0.5])
        assert filtered_rank(scores, truth=0, known_answers=np.array([0])) == 2.0

    def test_truth_never_competes_with_itself(self):
        scores = np.array([0.5])
        assert filtered_rank(scores, truth=0, known_answers=np.empty(0, dtype=int)) == 1.0

    def test_negative_infinite_truth_does_not_tie_known_answers(self):
        scores = np.array([-np.inf, 0.0, -np.inf])
        scalar = filtered_rank(scores, truth=0, known_answers=np.array([2]))
        chunk = chunk_filtered_ranks(
            scores[None, :], scores[:1], np.array([0, 0]), np.array([0, 2])
        )
        assert scalar == chunk[0] == 2.0


#: A 12-entity index whose relation-0 tail answers are
#: 0 -> {1, 2, 5}, 1 -> {2}, 3 -> {7, 9} (relation 1 must not leak in).
INDEX_TRIPLES = [(0, 0, 1), (0, 0, 2), (0, 0, 5), (1, 0, 2), (3, 0, 7), (3, 0, 9), (0, 1, 4)]

#: ``(anchors, truths)`` chunks for the batched gather + rank kernel.
CHUNKS = [
    ([0, 1, 3, 0, 3], [1, 2, 9, 5, 7]),  # every truth is a known answer
    ([0, 3], [8, 11]),  # truths the index never saw (an unseen /v1/score triple)
    ([4, 6, 0], [3, 10, 2]),  # rows 0 and 1 have no known answers at all
    ([3], [7]),  # a one-row chunk
    ([0, 1, 0, 1, 3], [2, 1, 11, 2, 0]),  # repeated keys; 1 is 0's answer, not 1's
]


def _chunk_exclusions(anchors, truths):
    """The batched gather over ``INDEX_TRIPLES``, checked row by row."""
    index = build_filter_csr(12, 2, [np.asarray(INDEX_TRIPLES)])
    anchors, truths = np.asarray(anchors), np.asarray(truths)
    rows, cols = collect_known_answers(index, anchors, truths, 0, TAIL)
    for i, (anchor, truth) in enumerate(zip(anchors, truths)):
        known = index.true_answers(int(anchor), 0, TAIL)
        row = cols[rows == i]
        # The truth is excluded exactly once, next to every known answer.
        assert np.count_nonzero(row == truth) == 1
        assert sorted(row.tolist()) == sorted(set(known.tolist()) | {int(truth)})
    return index, anchors, truths, rows, cols


class TestChunkFilteredRanks:
    def test_matches_scalar_reference_full(self, rng):
        for anchors, truths in CHUNKS:
            index, anchors, truths, rows, cols = _chunk_exclusions(anchors, truths)
            # Small integer scores force ties with known answers and the truth.
            scores = rng.integers(0, 4, size=(truths.size, 12)).astype(np.float64)
            true_scores = scores[np.arange(truths.size), truths]
            # The kernel masks its slab in place: rank a copy.
            ranks = chunk_filtered_ranks(scores.copy(), true_scores, rows, cols)
            for i in range(truths.size):
                known = index.true_answers(int(anchors[i]), 0, TAIL)
                assert ranks[i] == filtered_rank(scores[i], int(truths[i]), known)

    def test_matches_scalar_reference_pooled(self, rng):
        # The second pool holds none of the truths.
        for pool in (np.array([1, 2, 5, 7, 8, 10]), np.array([0, 4, 6])):
            for anchors, truths in CHUNKS:
                index, anchors, truths, rows, cols = _chunk_exclusions(anchors, truths)
                scores = rng.integers(0, 4, size=(truths.size, 12)).astype(np.float64)
                true_scores = scores[np.arange(truths.size), truths]
                inside, positions = pool_positions(pool, cols)
                ranks = chunk_filtered_ranks(
                    scores[:, pool], true_scores, rows[inside], positions[inside]
                )
                for i in range(truths.size):
                    # Out-of-pool entities never compete: score them -inf.
                    masked = np.full(12, -np.inf)
                    masked[pool] = scores[i, pool]
                    masked[truths[i]] = true_scores[i]
                    known = index.true_answers(int(anchors[i]), 0, TAIL)
                    assert ranks[i] == filtered_rank(masked, int(truths[i]), known)

    def test_pool_mode_ignores_out_of_pool_exclusions(self, rng):
        pool = np.array([2, 5, 9, 14])
        scores = rng.standard_normal((2, 4))
        true_scores = np.array([10.0, -10.0])  # truth not in pool
        # Row 0 excludes {5, 100}, row 1 excludes {3}: 100 and 3 are not in the pool.
        rows, cols = np.array([0, 0, 1]), np.array([5, 100, 3])
        inside, positions = pool_positions(pool, cols)
        assert inside.tolist() == [True, False, False]
        ranks = chunk_filtered_ranks(scores, true_scores, rows[inside], positions[inside])
        # Query 0: truth outranks everything -> rank 1.
        assert ranks[0] == 1.0
        # Query 1: all four pool scores beat -10 -> rank 5.
        assert ranks[1] == 5.0

    def test_empty_knowns(self, rng):
        scores = np.asarray([[1.0, 2.0, 3.0]])
        empty = np.empty(0, dtype=np.int64)
        ranks = chunk_filtered_ranks(scores, np.array([2.5]), empty, empty)
        assert ranks[0] == 2.0


def _reference_ranks(scores, true_scores, rows, cols):
    """``chunk_filtered_ranks`` by definition, one row and one candidate at
    a time: ``1 + better + ties / 2`` over the row's non-excluded columns."""
    ranks = []
    for i, row in enumerate(scores.tolist()):
        excluded = set(cols[rows == i].tolist())
        truth = float(true_scores[i])
        kept = [score for j, score in enumerate(row) if j not in excluded]
        better = sum(score > truth for score in kept)
        ties = sum(score == truth for score in kept)
        ranks.append(1.0 + better + ties / 2.0)
    return ranks


class TestChunkFilteredRankEdges:
    """Edge semantics of the rank kernel against the per-row reference.

    A NaN compares false both ways, so a NaN competitor neither beats nor
    ties the truth, and a NaN truth ranks first; infinities compare as
    ordinary values (``inf == inf`` ties)."""

    EXCLUDED = (np.array([0, 0, 2]), np.array([1, 3, 0]))

    def _check(self, scores, true_scores, rows, cols):
        reference = _reference_ranks(scores, true_scores, rows, cols)
        ranks = chunk_filtered_ranks(scores, true_scores, rows, cols)
        assert ranks.dtype == np.float64
        assert ranks.tolist() == reference
        return ranks

    def test_all_ties(self):
        scores = np.full((3, 5), 0.25)
        ranks = self._check(scores, np.full(3, 0.25), *self.EXCLUDED)
        # Row 0 keeps 3 tied competitors, row 1 all 5, row 2 four.
        assert ranks.tolist() == [2.5, 3.5, 3.0]

    def test_infinities(self):
        inf = np.inf
        scores = np.array(
            [
                [inf, -inf, 0.0, inf, 1.0],
                [inf, -inf, 0.0, inf, 1.0],
                [inf, -inf, 0.0, inf, 1.0],
            ]
        )
        ranks = self._check(scores, np.array([inf, -inf, 0.5]), *self.EXCLUDED)
        # Row 0 (+inf truth, column 3 excluded) ties column 0; row 1
        # (-inf truth) ties column 1 and trails the other four; row 2
        # (column 0 excluded) trails one +inf and 1.0.
        assert ranks.tolist() == [1.5, 5.5, 3.0]

    def test_nan_scores_and_truths(self):
        nan = np.nan
        scores = np.array([[nan, 2.0, 0.0, nan], [nan, 2.0, 0.0, 1.0], [1.0, nan, 3.0, 1.0]])
        ranks = self._check(
            scores, np.array([1.0, nan, 1.0]), np.array([2]), np.array([3])
        )
        assert ranks.tolist() == [2.0, 1.0, 2.5]

    def test_no_exclusions(self, rng):
        scores = rng.integers(0, 3, size=(6, 9)).astype(np.float32)
        true_scores = scores[np.arange(6), rng.integers(0, 9, size=6)]
        empty = np.empty(0, dtype=np.int32)
        self._check(scores, true_scores, empty, empty)

    def test_duplicated_exclusion_excludes_once(self):
        scores = np.array([[3.0, 1.0, 2.0, 1.0], [0.0, 5.0, 1.0, 1.0]])
        # Row 0 lists column 0 (beats its truth) twice and column 3 (ties
        # it) twice; row 1 lists its truth's own column twice.
        rows, cols = np.array([0, 0, 0, 0, 1, 1]), np.array([0, 0, 3, 3, 2, 2])
        ranks = self._check(scores, np.array([1.0, 1.0]), rows, cols)
        # Row 0 keeps column 1 (a tie) and column 2 (better); row 1 keeps
        # column 1 (better) and column 3 (a tie).
        assert ranks.tolist() == [2.5, 2.5]

    def test_float32_slab(self, rng):
        scores = rng.integers(0, 4, size=(5, 7)).astype(np.float32)
        true_scores = scores[np.arange(5), rng.integers(0, 7, size=5)]
        rows = np.repeat(np.arange(5), 2)
        cols = np.concatenate([rng.choice(7, size=2, replace=False) for _ in range(5)])
        self._check(scores, true_scores, rows, cols)

    def test_truth_scores_view_the_slab(self):
        scores = np.array([[1.0, 2.0, 1.0, 0.5], [2.0, 2.0, 3.0, 1.0]])
        # The truths are column 0, read as a strided view of the slab,
        # and column 0 is excluded: masking it must not move the truth.
        true_scores = scores[:, 0]
        ranks = self._check(
            scores, true_scores, np.array([0, 1, 1]), np.array([0, 0, 2])
        )
        assert ranks.tolist() == [2.5, 1.5]

    def test_one_candidate(self):
        scores = np.array([[1.0], [2.0], [0.0], [5.0]])
        ranks = self._check(
            scores, np.array([1.0, 1.0, 1.0, 1.0]), np.array([3]), np.array([0])
        )
        assert ranks.tolist() == [1.5, 2.0, 1.0, 1.0]


class TestGrouping:
    def test_groups_cover_both_sides(self, tiny_graph):
        table, groups, starts = query_table(tiny_graph, "test")
        assert (0, HEAD) in groups and (0, TAIL) in groups
        g = groups.index((0, TAIL))
        assert starts[g + 1] - starts[g] == 1
        anchor, truth, h, t = table[starts[g]].tolist()
        assert (anchor, truth, h, t) == (0, 3, 0, 3)

    def test_single_side(self, tiny_graph):
        table, groups, starts = query_table(tiny_graph, "test", sides=(TAIL,))
        assert all(side == TAIL for (_, side) in groups)
        assert starts[-1] == table.shape[0] == len(tiny_graph.test)

    def test_chunks_partition(self):
        slices = list(query_chunks(10, chunk_size=4))
        covered = [i for s in slices for i in range(s.start, s.stop)]
        assert covered == list(range(10))

    def test_unknown_split_raises(self, tiny_graph):
        with pytest.raises(KeyError):
            split_triples(tiny_graph, "dev")


class TestEvaluateFull:
    def test_perfect_model_gets_mrr_one(self, tiny_graph):
        """A model that scores exactly the known answers highest."""

        class PerfectModel(RandomModel):
            def __init__(self, graph):
                self.graph = graph
                super().__init__(graph.num_entities, graph.num_relations, seed=0)

            def _score_batch(self, anchors, relation, side, candidates):
                scores = np.zeros((len(anchors), self.num_entities))
                for row, anchor in zip(scores, anchors):
                    row[self.graph.true_answers(int(anchor), relation, side)] = 1.0
                return scores if candidates is None else scores[:, candidates]

        result = evaluate_full(PerfectModel(tiny_graph), tiny_graph, split="test")
        assert result.metrics.mrr == 1.0
        assert result.metrics.hits_at(1) == 1.0

    def test_two_queries_per_triple(self, tiny_graph):
        model = RandomModel(tiny_graph.num_entities, tiny_graph.num_relations)
        result = evaluate_full(model, tiny_graph, split="test")
        assert result.num_queries == 2 * len(tiny_graph.test)

    def test_num_scored_counts_full_vocabulary(self, tiny_graph):
        model = RandomModel(tiny_graph.num_entities, tiny_graph.num_relations)
        result = evaluate_full(model, tiny_graph, split="test")
        assert result.num_scored == 2 * len(tiny_graph.test) * tiny_graph.num_entities

    def test_valid_split_supported(self, tiny_graph):
        model = RandomModel(tiny_graph.num_entities, tiny_graph.num_relations)
        result = evaluate_full(model, tiny_graph, split="valid")
        assert result.num_queries == 2

    def test_batched_equals_reference_on_real_model(self, codex_s):
        graph = codex_s.graph
        model = build_model("distmult", graph.num_entities, graph.num_relations, dim=8, seed=1)
        result = evaluate_full(model, graph, split="test")
        for (h, r, t, side), rank in list(result.ranks.items())[:40]:
            anchor, truth = (t, h) if side == HEAD else (h, t)
            reference = filtered_rank(
                model.score_all(anchor, r, side), truth, graph.true_answers(anchor, r, side)
            )
            assert rank == pytest.approx(reference)

    def test_filtering_lowers_no_rank(self, codex_s):
        """Filtered ranks are never worse than raw ranks."""
        graph = codex_s.graph
        model = build_model("distmult", graph.num_entities, graph.num_relations, dim=8, seed=1)
        result = evaluate_full(model, graph, split="test")
        for (h, r, t, side), rank in list(result.ranks.items())[:40]:
            anchor, truth = (t, h) if side == HEAD else (h, t)
            raw = filtered_rank(
                model.score_all(anchor, r, side), truth, np.array([truth])
            )
            assert rank <= raw + 1e-9
