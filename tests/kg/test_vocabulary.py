"""Vocabulary: id assignment, round-trips, equality, label files."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kg import Vocabulary


class TestAdd:
    def test_ids_are_contiguous_from_zero(self):
        vocab = Vocabulary()
        assert vocab.add("a") == 0
        assert vocab.add("b") == 1
        assert vocab.add("c") == 2

    def test_add_is_idempotent(self):
        vocab = Vocabulary()
        first = vocab.add("x")
        assert vocab.add("x") == first
        assert len(vocab) == 1

    def test_constructor_seeds_labels_in_order(self):
        vocab = Vocabulary(["u", "v", "w"])
        assert vocab.ids_of(["u", "v", "w"]) == [0, 1, 2]

    def test_update_adds_everything(self):
        vocab = Vocabulary()
        vocab.update(["a", "b", "a"])
        assert len(vocab) == 2


class TestLookup:
    def test_round_trip(self):
        vocab = Vocabulary(["alpha", "beta"])
        for label in vocab:
            assert vocab.label_of(vocab.id_of(label)) == label

    def test_id_of_missing_raises(self):
        with pytest.raises(KeyError):
            Vocabulary().id_of("ghost")

    def test_get_returns_default_for_missing(self):
        assert Vocabulary().get("ghost") is None
        assert Vocabulary().get("ghost", -1) == -1

    def test_label_of_negative_raises(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(IndexError):
            vocab.label_of(-1)

    def test_label_of_out_of_range_raises(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(IndexError):
            vocab.label_of(5)

    def test_contains(self):
        vocab = Vocabulary(["a"])
        assert "a" in vocab
        assert "b" not in vocab

    def test_labels_returns_id_order(self):
        vocab = Vocabulary(["z", "y", "x"])
        assert vocab.labels() == ("z", "y", "x")

    def test_ids_of_raises_on_unknown(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(KeyError):
            vocab.ids_of(["a", "nope"])


class TestEquality:
    def test_equal_when_same_labels_in_order(self):
        assert Vocabulary(["a", "b"]) == Vocabulary(["a", "b"])

    def test_unequal_when_order_differs(self):
        assert Vocabulary(["a", "b"]) != Vocabulary(["b", "a"])

    def test_not_equal_to_other_types(self):
        assert Vocabulary() != ["a"]


class TestFromFile:
    def test_reads_once_on_first_lookup(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("x\ny\nz\n", encoding="utf-8")
        vocabulary = Vocabulary.from_file(path, 3)
        assert len(vocabulary) == 3
        path.unlink()  # len() never needed the file; lookups read it once
        with pytest.raises(FileNotFoundError):
            vocabulary.id_of("y")
        path.write_text("x\ny\nz\n", encoding="utf-8")
        assert vocabulary.id_of("y") == 1
        path.unlink()
        assert vocabulary.label_of(2) == "z" and "x" in vocabulary
        assert vocabulary == Vocabulary(["x", "y", "z"])
        assert vocabulary.add("w") == 3 and len(vocabulary) == 4

    def test_duplicate_label_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("x\nx\ny\n", encoding="utf-8")
        with pytest.raises(ValueError, match="2 distinct"):
            Vocabulary.from_file(path, 3).labels()


@given(st.lists(st.text(min_size=1, max_size=8)))
def test_property_ids_cover_exact_range(labels):
    vocab = Vocabulary(labels)
    unique = len(set(labels))
    assert len(vocab) == unique
    assert sorted(vocab.id_of(label) for label in set(labels)) == list(range(unique))


@given(st.lists(st.text(min_size=1, max_size=8), unique=True, min_size=1))
def test_property_round_trip_everything(labels):
    vocab = Vocabulary(labels)
    for index, label in enumerate(labels):
        assert vocab.id_of(label) == index
        assert vocab.label_of(index) == label
