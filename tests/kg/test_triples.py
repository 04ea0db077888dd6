"""The compact triple store: CSR equality, round-trips, id dtypes, and
rejection of a corrupt store."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.kg import (
    FilterIndexCSR,
    KnowledgeGraph,
    TripleSet,
    Vocabulary,
    build_graph,
    id_dtype,
    open_compact,
    save_compact,
    unique_rows_in_order,
)
from repro.kg.graph import INT32_LIMIT


@pytest.fixture
def labelled_triples():
    train = [
        ("a", "likes", "b"),
        ("a", "likes", "c"),
        ("b", "likes", "c"),
        ("d", "knows", "e"),
        ("f", "made", "a"),
    ]
    valid = [("e", "knows", "f")]
    test = [("a", "likes", "d")]
    return train, valid, test


@pytest.fixture
def graph(labelled_triples) -> KnowledgeGraph:
    train, valid, test = labelled_triples
    return build_graph(
        {"train": train, "valid": valid, "test": test}, name="compact-toy"
    )


@pytest.fixture
def compact(graph, tmp_path) -> KnowledgeGraph:
    save_compact(graph, tmp_path / "store")
    return open_compact(tmp_path / "store")


class TestIdDtype:
    def test_small_vocabulary_is_int32(self):
        assert id_dtype(6) == np.dtype(np.int32)
        assert id_dtype(INT32_LIMIT - 1) == np.dtype(np.int32)

    def test_boundary_falls_back_to_int64(self):
        assert id_dtype(INT32_LIMIT) == np.dtype(np.int64)
        assert id_dtype(INT32_LIMIT + 7) == np.dtype(np.int64)

    def test_filter_index_buffers_downcast(self, graph):
        index = graph.filter_index
        for side in ("head", "tail"):
            assert index.sides[side].values.dtype == np.int32
            assert graph.true_answers(0, 0, side).dtype == np.int32

    def test_observed_buffers_downcast(self, graph):
        assert graph.observed(0, "head").dtype == np.int32


class TestUniqueRowsInOrder:
    def test_keeps_first_occurrence_in_encounter_order(self):
        rows = np.array(
            [[1, 0, 2], [0, 0, 1], [1, 0, 2], [0, 0, 1], [2, 1, 0]],
            dtype=np.int32,
        )
        out = unique_rows_in_order(rows)
        np.testing.assert_array_equal(
            out, np.array([[1, 0, 2], [0, 0, 1], [2, 1, 0]], dtype=np.int32)
        )

    def test_no_duplicates_is_identity(self):
        rows = np.array([[0, 0, 1], [1, 0, 2]], dtype=np.int32)
        np.testing.assert_array_equal(unique_rows_in_order(rows), rows)

    def test_empty(self):
        rows = np.empty((0, 3), dtype=np.int32)
        assert unique_rows_in_order(rows).shape == (0, 3)


def _set_oracle(graph) -> dict[tuple[str, int, int], set[int]]:
    """``(side, anchor, relation) -> known answers``, straight from the triples."""
    oracle: dict[tuple[str, int, int], set[int]] = {}
    for h, r, t in graph.all_triples:
        oracle.setdefault(("tail", h, r), set()).add(t)
        oracle.setdefault(("head", t, r), set()).add(h)
    return oracle


class TestBuildFilterCSR:
    """The one filter-index builder, checked against a set-based oracle."""

    def test_matches_set_oracle(self, tmp_path):
        rng = np.random.default_rng(7)
        num_entities, num_relations = 30, 4
        triples = rng.integers(0, [num_entities, num_relations, num_entities], size=(300, 3))
        triples[:20, 2] = triples[:20, 0]  # self-loops
        splits = {
            # The same triples recur within and across splits.
            "full": (triples[:200], np.concatenate([triples[180:240], triples[:10]]), triples[240:]),
            "train-only": (np.concatenate([triples, triples[:50]]), [], []),
        }
        entities = Vocabulary([f"e{i}" for i in range(num_entities)])
        relations = Vocabulary([f"r{i}" for i in range(num_relations)])
        for name, (train, valid, test) in splits.items():
            graph = KnowledgeGraph(
                entities=entities,
                relations=relations,
                train=TripleSet(train),
                valid=TripleSet(valid),
                test=TripleSet(test),
                name=name,
            )
            oracle = _set_oracle(graph)
            index = graph.filter_index
            assert index is graph.filter_index  # built once, cached
            anchors = np.arange(num_entities)
            for side in ("head", "tail"):
                assert index.sides[side].values.dtype == id_dtype(num_entities)
                for relation in range(num_relations):
                    rows, cols = index.sides[side].gather(index.query_keys(anchors, relation))
                    for anchor in range(num_entities):
                        expected = sorted(oracle.get((side, anchor, relation), ()))
                        got = graph.true_answers(anchor, relation, side)
                        assert got.tolist() == expected, (name, side, anchor, relation)
                        assert got.dtype == id_dtype(num_entities)
                        assert cols[rows == anchor].tolist() == expected
            save_compact(graph, tmp_path / name)
            compact = open_compact(tmp_path / name).filter_index
            for array_name in ("keys", "offsets", "values"):
                for side in ("head", "tail"):
                    array = getattr(index.sides[side], array_name)
                    other = getattr(compact.sides[side], array_name)
                    assert other.dtype == array.dtype, array_name
                    np.testing.assert_array_equal(other, array)

    def test_missing_key_is_empty(self, graph):
        answers = graph.filter_index.true_answers(5, 2, "head")
        assert answers.size == 0
        assert answers.dtype == id_dtype(graph.num_entities)


class TestCompactRoundTrip:
    def test_vocabulary_and_sizes_survive(self, graph, compact):
        assert isinstance(compact, KnowledgeGraph)
        assert compact.num_entities == graph.num_entities
        assert compact.num_relations == graph.num_relations
        assert compact.name == graph.name
        assert compact.entities == graph.entities
        assert compact.relations == graph.relations
        assert compact.entities.id_of("c") == graph.entities.id_of("c")

    def test_split_arrays_bitwise_equal(self, graph, compact):
        for split in ("train", "valid", "test"):
            np.testing.assert_array_equal(
                getattr(compact, split).array, getattr(graph, split).array
            )

    def test_stored_ids_are_int32(self, tmp_path, graph):
        save_compact(graph, tmp_path / "store")
        assert np.load(tmp_path / "store" / "train.npy").dtype == np.int32

    def test_triple_sets_are_int32_store_views(self, compact):
        # The splits are the read-only int32 memory maps, not int64 copies.
        for split in ("train", "valid", "test"):
            array = getattr(compact, split).array
            assert array.dtype == np.int32
            assert not array.flags.writeable
            assert isinstance(array.base, np.memmap)

    def test_filter_index_property_serves_csr(self, graph, compact):
        csr = compact.filter_index
        assert isinstance(csr, FilterIndexCSR)
        assert csr is compact.filter_index
        for side in ("head", "tail"):
            for anchor in range(graph.num_entities):
                for relation in range(graph.num_relations):
                    np.testing.assert_array_equal(
                        compact.true_answers(anchor, relation, side),
                        graph.true_answers(anchor, relation, side),
                    )

    def test_manifest_validation_rejects_foreign_format(self, tmp_path, graph):
        save_compact(graph, tmp_path / "store")
        manifest_path = tmp_path / "store" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = "something-else"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="manifest"):
            open_compact(tmp_path / "store")

    def test_iteration_is_rejected(self, compact):
        # A graph is not a triple sequence; looping over a million-entity
        # store entity-by-entity is always a bug.
        with pytest.raises(TypeError):
            iter(compact)


class TestCorruptStore:
    """A store that contradicts itself is rejected, not scored."""

    @pytest.fixture
    def store(self, graph, tmp_path):
        return save_compact(graph, tmp_path / "store")

    def test_out_of_range_id_rejected_at_open(self, store, graph):
        train = np.load(store / "train.npy")
        train[0, 2] = graph.num_entities + 5
        np.save(store / "train.npy", train)
        with pytest.raises(ValueError, match="outside the vocabulary"):
            open_compact(store)

    def test_row_count_must_match_manifest(self, store):
        np.save(store / "test.npy", np.load(store / "test.npy")[:0])
        with pytest.raises(ValueError, match="manifest says 1"):
            open_compact(store)

    def test_short_label_file_rejected_on_first_read(self, store, graph):
        (store / "entities.txt").write_text("a\nb\n", encoding="utf-8")
        opened = open_compact(store)
        assert len(opened.entities) == graph.num_entities  # no read yet
        with pytest.raises(ValueError, match="expected 6"):
            opened.entities.labels()
