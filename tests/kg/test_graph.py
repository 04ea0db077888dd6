"""TripleSet and KnowledgeGraph: immutability, indexes, filtered lookups."""

import numpy as np
import pytest

from repro.kg import HEAD, TAIL, KnowledgeGraph, TripleSet, Vocabulary, build_graph


class TestTripleSet:
    def test_empty_has_shape(self):
        ts = TripleSet([])
        assert len(ts) == 0
        assert ts.array.shape == (0, 3)

    def test_array_is_read_only(self):
        ts = TripleSet([(0, 0, 1)])
        with pytest.raises(ValueError):
            ts.array[0, 0] = 5

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            TripleSet(np.zeros((3, 2), dtype=np.int64))

    def test_columns(self):
        ts = TripleSet([(1, 2, 3), (4, 5, 6)])
        assert ts.heads.tolist() == [1, 4]
        assert ts.relations.tolist() == [2, 5]
        assert ts.tails.tolist() == [3, 6]

    def test_entities_by_side(self):
        ts = TripleSet([(1, 0, 2)])
        assert ts.entities(HEAD).tolist() == [1]
        assert ts.entities(TAIL).tolist() == [2]

    def test_unique_pairs_counts_queries(self):
        # Two triples share the (h, r) pair; (r, t) pairs are distinct.
        ts = TripleSet([(0, 0, 1), (0, 0, 2)])
        assert ts.unique_pairs(TAIL) == 1  # distinct (h, r)
        assert ts.unique_pairs(HEAD) == 2  # distinct (r, t)

    def test_contains(self):
        ts = TripleSet([(0, 1, 2)])
        assert (0, 1, 2) in ts
        assert (2, 1, 0) not in ts
        assert "nope" not in ts

    def test_concat_and_subset(self):
        a = TripleSet([(0, 0, 1)])
        b = TripleSet([(1, 0, 2)])
        both = a.concat(b)
        assert len(both) == 2
        assert both.subset(np.array([False, True])).as_tuples() == [(1, 0, 2)]

    def test_iteration_yields_python_ints(self):
        for h, r, t in TripleSet([(0, 1, 2)]):
            assert all(isinstance(x, int) for x in (h, r, t))


class TestValidation:
    def test_out_of_vocab_entity_rejected(self):
        with pytest.raises(ValueError, match="entities"):
            KnowledgeGraph(
                entities=Vocabulary(["a"]),
                relations=Vocabulary(["r"]),
                train=TripleSet([(0, 0, 7)]),
            )

    def test_out_of_vocab_relation_rejected(self):
        with pytest.raises(ValueError, match="relations"):
            KnowledgeGraph(
                entities=Vocabulary(["a", "b"]),
                relations=Vocabulary(["r"]),
                train=TripleSet([(0, 3, 1)]),
            )


class TestFilterIndex:
    def test_true_answers_cover_all_splits(self, tiny_graph):
        # e0 -likes-> {e1, e2} in train and e3 in test.
        answers = tiny_graph.true_answers(0, 0, TAIL)
        assert answers.tolist() == [1, 2, 3]

    def test_head_side_is_inverse(self, tiny_graph):
        # heads of (?, likes, e2) are e0 and e1.
        assert tiny_graph.true_answers(2, 0, HEAD).tolist() == [0, 1]

    def test_unknown_query_is_empty(self, tiny_graph):
        assert tiny_graph.true_answers(5, 1, TAIL).size == 0

    def test_answers_are_sorted_unique(self, tiny_graph):
        index = tiny_graph.filter_index
        for side in (HEAD, TAIL):
            offsets, values = index.sides[side].offsets, index.sides[side].values
            for start, stop in zip(offsets[:-1], offsets[1:]):
                assert stop > start  # only non-empty keys are stored
                assert np.all(np.diff(values[start:stop]) > 0)


class TestObserved:
    def test_observed_uses_train_only(self, tiny_graph):
        # e3 appears as a likes-tail only in test, so not observed.
        assert tiny_graph.observed(0, TAIL).tolist() == [1, 2]

    def test_observed_heads(self, tiny_graph):
        assert tiny_graph.observed(0, HEAD).tolist() == [0, 1]

    def test_observed_missing_relation_is_empty(self, tiny_graph):
        assert tiny_graph.observed(2, TAIL).tolist() == [0]
        assert tiny_graph.observed(1, TAIL).tolist() == [4]


class TestDegreeCounts:
    def test_counts_match_manual(self, tiny_graph):
        counts = tiny_graph.degree_counts(HEAD)
        assert counts.shape == (6, 3)
        assert counts[0, 0] == 2  # e0 heads likes twice
        assert counts[3, 1] == 1
        assert counts.sum() == len(tiny_graph.train)

    def test_relation_counts(self, tiny_graph):
        assert tiny_graph.relation_counts().tolist() == [3, 1, 1]


class TestBuildGraph:
    def test_vocabularies_accumulate_across_splits(self):
        graph = build_graph(
            {
                "train": [("a", "r", "b")],
                "test": [("a", "r", "c")],
            }
        )
        assert graph.num_entities == 3
        assert len(graph.test) == 1

    def test_all_triples_concatenates(self, tiny_graph):
        assert len(tiny_graph.all_triples) == 7

    def test_relabel_keeps_data(self, tiny_graph):
        renamed = tiny_graph.relabel("other")
        assert renamed.name == "other"
        assert len(renamed.train) == len(tiny_graph.train)
