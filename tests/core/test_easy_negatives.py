"""Easy-negative mining (Table 2) and the false-negative audit (Table 10)."""

import numpy as np
import pytest

from repro.core import EasyNegativeClassifier, mine_easy_negatives
from repro.core.easy_negatives import FalseEasyNegative
from repro.recommenders import build_recommender


@pytest.fixture(scope="module")
def report(codex_s_module):
    fitted = build_recommender("l-wd").fit(codex_s_module.graph)
    return fitted, mine_easy_negatives(fitted, codex_s_module.graph)


@pytest.fixture(scope="module")
def codex_s_module():
    from repro.datasets import load

    return load("codex-s-lite")


class TestMining:
    def test_counts_add_up(self, report, codex_s_module):
        fitted, result = report
        graph = codex_s_module.graph
        assert result.total_slots == graph.num_entities * 2 * graph.num_relations
        assert result.easy_negatives == result.total_slots - fitted.total_nonzero()

    def test_substantial_easy_mass(self, report):
        """The paper's Table 2: a large share of slots is ruled out."""
        _, result = report
        assert result.easy_fraction > 0.3

    def test_false_negatives_are_rare(self, report):
        """... and almost none of them are real triples (Table 2 bottom row)."""
        _, result = report
        assert result.num_false < 20
        assert result.num_false / max(result.easy_negatives, 1) < 1e-3

    def test_false_negatives_only_outside_train(self, report):
        """L-WD scores every training participant > 0 by construction, so
        every false easy negative comes from valid/test."""
        _, result = report
        assert all(fn.split in ("valid", "test") for fn in result.false_easy_negatives)

    def test_false_negatives_are_the_injected_noise(self, report, codex_s_module):
        """The audit recovers signature-violating (noise) triples."""
        _, result = report
        dataset = codex_s_module
        for false_negative in result.false_easy_negatives:
            schema = dataset.schemas[false_negative.relation]
            admits = schema.admits(
                dataset.types.types_of(false_negative.head),
                dataset.types.types_of(false_negative.tail),
            )
            assert not admits

    def test_labelled_rows(self, report, codex_s_module):
        _, result = report
        if result.false_easy_negatives:
            head, relation, tail = result.false_easy_negatives[0].labelled(
                codex_s_module.graph
            )
            assert isinstance(head, str) and isinstance(relation, str)

    @pytest.mark.parametrize("recommender", ["l-wd", "pt"])
    def test_audit_matches_per_triple_zero_masks(self, recommender, codex_s_module):
        """The vectorised audit flags the triples, sides and order that a
        per-triple walk over the recommender's zero masks does (PT flags
        valid/test triples on every zero side)."""
        graph = codex_s_module.graph
        fitted = build_recommender(recommender).fit(graph)
        result = mine_easy_negatives(fitted, graph)
        masks = {
            (r, side): fitted.zero_mask(r, side)
            for r in range(graph.num_relations)
            for side in ("head", "tail")
        }
        expected = []
        for split in ("train", "valid", "test"):
            for h, r, t in getattr(graph, split):
                head_zero, tail_zero = bool(masks[r, "head"][h]), bool(masks[r, "tail"][t])
                if head_zero or tail_zero:
                    side = "both" if head_zero and tail_zero else ("head" if head_zero else "tail")
                    expected.append(FalseEasyNegative(h, r, t, split, side))
        assert result.false_easy_negatives == expected

    def test_as_row_columns(self, report):
        _, result = report
        row = result.as_row()
        assert set(row) == {
            "Dataset",
            "Easy negatives (%)",
            "Easy negatives",
            "False easy negatives",
        }


class TestClassifier:
    def test_accepts_training_triples(self, report, codex_s_module):
        fitted, _ = report
        classifier = EasyNegativeClassifier(fitted)
        triples = codex_s_module.graph.train.array[:50]
        assert classifier.classify_batch(triples).all()

    def test_rejects_zero_scored_triples(self, report, codex_s_module):
        fitted, _ = report
        graph = codex_s_module.graph
        classifier = EasyNegativeClassifier(fitted)
        mask = fitted.zero_mask(0, "head")
        dead_heads = np.flatnonzero(mask)
        if dead_heads.size == 0:
            pytest.skip("no easy negatives for relation 0")
        assert not classifier.classify(int(dead_heads[0]), 0, 0)

    def test_batch_matches_scalar_classify(self, report, codex_s_module):
        fitted, _ = report
        graph = codex_s_module.graph
        classifier = EasyNegativeClassifier(fitted)
        rng = np.random.default_rng(7)
        random_triples = np.stack(
            [
                rng.integers(graph.num_entities, size=400),
                rng.integers(graph.num_relations, size=400),
                rng.integers(graph.num_entities, size=400),
            ],
            axis=1,
        )
        triples = np.concatenate([random_triples, graph.test.array])
        expected = [classifier.classify(int(h), int(r), int(t)) for h, r, t in triples]
        assert classifier.classify_batch(triples).tolist() == expected
        assert classifier.classify_batch(np.empty((0, 3), dtype=np.int64)).tolist() == []
        with pytest.raises(IndexError):
            classifier.classify_batch(np.array([[0, graph.num_relations, 0]]))

    def test_batch_shape_validation(self, report):
        fitted, _ = report
        classifier = EasyNegativeClassifier(fitted)
        with pytest.raises(ValueError):
            classifier.classify_batch(np.zeros((3, 2), dtype=np.int64))

    def test_classifier_separates_positives_from_random(self, report, codex_s_module):
        """Extension check: real triples pass far more often than random ones."""
        fitted, _ = report
        graph = codex_s_module.graph
        classifier = EasyNegativeClassifier(fitted)
        rng = np.random.default_rng(0)
        random_triples = np.stack(
            [
                rng.integers(graph.num_entities, size=300),
                rng.integers(graph.num_relations, size=300),
                rng.integers(graph.num_entities, size=300),
            ],
            axis=1,
        )
        positive_rate = classifier.classify_batch(graph.test.array).mean()
        random_rate = classifier.classify_batch(random_triples).mean()
        assert positive_rate > random_rate + 0.2
