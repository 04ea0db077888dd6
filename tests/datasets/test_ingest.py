"""Streaming ingestion: id parity with build_graph + every edge case."""

from __future__ import annotations

import gzip

import numpy as np
import pytest

from repro.datasets import (
    IngestError,
    SyntheticScaleConfig,
    generate_scale_tsv,
    ingest_directory,
    ingest_files,
    iter_triples,
)
from repro.datasets.ingest import discover_split_files
from repro.kg import build_graph, open_compact


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestIterTriples:
    def test_tsv_basic(self, tmp_path):
        path = _write(tmp_path / "x.tsv", "a\tr\tb\nb\tr\tc\n")
        assert list(iter_triples(path)) == [("a", "r", "b"), ("b", "r", "c")]

    def test_blank_lines_skipped(self, tmp_path):
        path = _write(tmp_path / "x.tsv", "a\tr\tb\n\n   \nb\tr\tc\n")
        assert len(list(iter_triples(path))) == 2

    def test_crlf_line_endings(self, tmp_path):
        path = (tmp_path / "x.tsv")
        path.write_bytes(b"a\tr\tb\r\nb\tr\tc\r\n")
        assert list(iter_triples(path)) == [("a", "r", "b"), ("b", "r", "c")]

    def test_malformed_tsv_names_path_and_line(self, tmp_path):
        path = _write(tmp_path / "x.tsv", "a\tr\tb\nonly two\tfields\n")
        with pytest.raises(IngestError, match=r"x\.tsv:2"):
            list(iter_triples(path))

    def test_empty_field_rejected(self, tmp_path):
        path = _write(tmp_path / "x.tsv", "a\t\tb\n")
        with pytest.raises(IngestError, match=r"x\.tsv:1"):
            list(iter_triples(path))

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "x.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("a\tr\tb\n")
        assert list(iter_triples(path)) == [("a", "r", "b")]

    def test_nt_iris_and_bnodes(self, tmp_path):
        path = _write(
            tmp_path / "x.nt",
            "# a comment\n"
            "<http://x/a> <http://x/p> <http://x/b> .\n"
            "_:b1 <http://x/p> <http://x/a> .\n",
        )
        assert list(iter_triples(path)) == [
            ("http://x/a", "http://x/p", "http://x/b"),
            ("_:b1", "http://x/p", "http://x/a"),
        ]

    def test_nt_malformed_rejected(self, tmp_path):
        path = _write(tmp_path / "x.nt", "<http://x/a> <http://x/p> missing-dot\n")
        with pytest.raises(IngestError, match=r"x\.nt:1"):
            list(iter_triples(path))

    def test_unknown_format_rejected(self, tmp_path):
        path = _write(tmp_path / "x.tsv", "a\tr\tb\n")
        with pytest.raises(IngestError, match="format"):
            list(iter_triples(path, fmt="parquet"))


class TestDiscoverSplitFiles:
    def test_finds_each_split(self, tmp_path):
        _write(tmp_path / "train.tsv", "a\tr\tb\n")
        _write(tmp_path / "valid.txt", "a\tr\tb\n")
        found = discover_split_files(tmp_path)
        assert set(found) == {"train", "valid"}

    def test_train_required(self, tmp_path):
        _write(tmp_path / "valid.tsv", "a\tr\tb\n")
        with pytest.raises(IngestError, match="train"):
            discover_split_files(tmp_path)

    def test_ambiguous_split_rejected(self, tmp_path):
        _write(tmp_path / "train.tsv", "a\tr\tb\n")
        _write(tmp_path / "train.txt", "a\tr\tb\n")
        with pytest.raises(IngestError, match="ambiguous"):
            discover_split_files(tmp_path)


class TestIngestFiles:
    def test_ids_match_build_graph(self, tmp_path):
        train = [("a", "r", "b"), ("b", "r", "c"), ("c", "s", "a")]
        valid = [("a", "s", "c")]
        test = [("b", "s", "a")]
        _write(tmp_path / "train.tsv", "".join(f"{h}\t{r}\t{t}\n" for h, r, t in train))
        _write(tmp_path / "valid.tsv", "".join(f"{h}\t{r}\t{t}\n" for h, r, t in valid))
        _write(tmp_path / "test.tsv", "".join(f"{h}\t{r}\t{t}\n" for h, r, t in test))
        result = ingest_directory(tmp_path, tmp_path / "store")
        compact = open_compact(result.directory)
        reference = build_graph({"train": train, "valid": valid, "test": test})
        assert compact.entities == reference.entities
        assert compact.relations == reference.relations
        for split in ("train", "valid", "test"):
            np.testing.assert_array_equal(
                getattr(compact, split).array, getattr(reference, split).array
            )

    def test_duplicates_dropped_and_counted(self, tmp_path):
        _write(tmp_path / "train.tsv", "a\tr\tb\na\tr\tb\nb\tr\tc\na\tr\tb\n")
        result = ingest_directory(tmp_path, tmp_path / "store")
        assert result.splits["train"] == 2
        assert result.stats["train"]["read"] == 4
        assert result.stats["train"]["duplicates"] == 2

    def test_unseen_in_train_entities_counted(self, tmp_path):
        _write(tmp_path / "train.tsv", "a\tr\tb\n")
        _write(tmp_path / "valid.tsv", "a\tr\tc\nd\tr\tb\n")
        result = ingest_directory(tmp_path, tmp_path / "store")
        # c and d never appear in train (whose vocabulary is {a, b}).
        assert result.stats["valid"]["unseen_in_train_entities"] == 2

    def test_missing_optional_splits_are_empty(self, tmp_path):
        _write(tmp_path / "train.tsv", "a\tr\tb\n")
        result = ingest_directory(tmp_path, tmp_path / "store")
        assert result.splits == {"train": 1, "valid": 0, "test": 0}
        compact = open_compact(result.directory)
        assert len(compact.valid) == 0 and len(compact.test) == 0

    def test_gzip_crlf_train_ingests(self, tmp_path):
        path = tmp_path / "train.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8", newline="") as handle:
            handle.write("a\tr\tb\r\nb\tr\tc\r\n")
        result = ingest_directory(tmp_path, tmp_path / "store")
        assert result.splits["train"] == 2

    def test_nt_splits_ingest(self, tmp_path):
        _write(
            tmp_path / "train.nt",
            "<http://x/a> <http://x/p> <http://x/b> .\n",
        )
        result = ingest_directory(tmp_path, tmp_path / "store")
        compact = open_compact(result.directory)
        assert compact.entities.labels() == ("http://x/a", "http://x/b")
        assert compact.relations.labels() == ("http://x/p",)

    def test_unknown_split_key_rejected(self, tmp_path):
        _write(tmp_path / "train.tsv", "a\tr\tb\n")
        with pytest.raises(IngestError, match="unknown splits"):
            ingest_files(
                {"train": tmp_path / "train.tsv", "extra": tmp_path / "train.tsv"},
                tmp_path / "store",
            )

    def test_malformed_line_aborts_with_location(self, tmp_path):
        _write(tmp_path / "train.tsv", "a\tr\tb\nbroken line\n")
        with pytest.raises(IngestError, match=r"train\.tsv:2"):
            ingest_directory(tmp_path, tmp_path / "store")

    def test_counter_metric_advances(self, tmp_path):
        from repro.datasets.ingest import INGEST_TRIPLES_COUNTER
        from repro.obs import get_registry

        counter = get_registry().counter(
            INGEST_TRIPLES_COUNTER,
            "Triples written to compact stores by streaming ingestion",
            labels=("split",),
        )
        before = counter.value(split="train")
        _write(tmp_path / "train.tsv", "a\tr\tb\nb\tr\tc\n")
        ingest_directory(tmp_path, tmp_path / "store")
        assert counter.value(split="train") == before + 2


class TestSyntheticScale:
    def test_vocabulary_fully_covered(self, tmp_path):
        config = SyntheticScaleConfig(
            num_entities=500, num_relations=5, num_train=800,
            num_valid=50, num_test=50,
        )
        generate_scale_tsv(tmp_path / "raw", config)
        result = ingest_directory(tmp_path / "raw", tmp_path / "store")
        assert result.num_entities == 500
        assert result.num_relations <= 5
        # Eval splits only reference trained entities by construction.
        assert result.stats["valid"]["unseen_in_train_entities"] == 0
        assert result.stats["test"]["unseen_in_train_entities"] == 0

    def test_train_must_cover_entities(self):
        with pytest.raises(ValueError, match="num_train"):
            SyntheticScaleConfig(num_entities=100, num_train=50)

    def test_config_or_overrides_not_both(self, tmp_path):
        config = SyntheticScaleConfig(num_entities=10, num_train=10)
        with pytest.raises(TypeError):
            generate_scale_tsv(tmp_path, config, num_entities=20)
