"""Cross-model scoring contracts: every model, every surface, one suite.

These are the invariants the evaluation framework relies on being true of
*any* model plugged into it:

* ``score_triples`` (training surface) agrees with ``score_candidates``
  and ``score_candidates_batch`` (inference surface) on both sides;
* ``score_all`` and ``score_candidates`` are exactly row 0 of a one-query
  ``score_candidates_batch``, in the model's own dtype;
* ``score_candidates_batch`` equals row-wise ``score_candidates``;
* its ``truths=`` form returns the same scores plus each truth's score
  against its own query row (bitwise, for the hash scorers);
* an empty anchor batch scores as a ``(0, k)`` array, with truths or without;
* per-row ``relation`` and ``side`` arrays score each row as its own
  ``(relation, side)`` group would (bitwise, for the hash scorers);
* the training forward's generalisations agree with the inference calls:
  an ``(b,)`` relation array in ``query_vectors`` and ``(b, k)`` per-row
  candidates in ``score_rows``;
* every inference call validates anchors, relations, sides and candidates;
* no model re-implements the inference entry points;
* scoring is deterministic;
* gradients flow into the embedding tables.
"""

import numpy as np
import pytest

from repro.autodiff.engine import sum_
from repro.kg.graph import HEAD, SIDES, TAIL
from repro.kg import KnowledgeGraph, TripleSet, Vocabulary
from repro.models import (
    MODEL_REGISTRY,
    ConvE,
    OracleModel,
    RandomModel,
    RotatE,
    TransE,
    available_models,
    build_model,
)

NUM_ENTITIES = 40
NUM_RELATIONS = 6
INFERENCE_ENTRY_POINTS = ("score_all", "score_candidates", "score_candidates_batch")


@pytest.fixture(params=sorted(MODEL_REGISTRY), scope="module")
def model(request):
    return build_model(request.param, NUM_ENTITIES, NUM_RELATIONS, dim=8, seed=3)


def _graph() -> KnowledgeGraph:
    rng = np.random.default_rng(0)
    triples = np.stack(
        [
            rng.integers(0, NUM_ENTITIES, 120),
            rng.integers(0, NUM_RELATIONS, 120),
            rng.integers(0, NUM_ENTITIES, 120),
        ],
        axis=1,
    )
    return KnowledgeGraph(
        entities=Vocabulary([f"e{i}" for i in range(NUM_ENTITIES)]),
        relations=Vocabulary([f"r{i}" for i in range(NUM_RELATIONS)]),
        train=TripleSet([tuple(int(x) for x in row) for row in triples[:100]]),
        valid=TripleSet([]),
        test=TripleSet([tuple(int(x) for x in row) for row in triples[100:]]),
        name="scoring",
    )


@pytest.fixture(params=sorted(MODEL_REGISTRY) + ["random", "oracle"], scope="module")
def scorer(request):
    """Every registered model plus the two hash scorers."""
    if request.param == "random":
        return RandomModel(NUM_ENTITIES, NUM_RELATIONS, seed=3)
    if request.param == "oracle":
        return OracleModel(_graph(), seed=3)
    return build_model(request.param, NUM_ENTITIES, NUM_RELATIONS, dim=8, seed=3)


def _reference_grid(model, anchors, relation, side, candidates) -> np.ndarray:
    """``score_triples`` (autodiff) over every (anchor, candidate) pair.

    A head query ``(?, r, anchor)`` is the triple ``(candidate, r, anchor)``,
    except for reciprocal-relation models, which score it as the tail query
    ``(anchor, r + inverse_offset, candidate)``.
    """
    grid_anchors, grid_candidates = np.meshgrid(anchors, candidates, indexing="ij")
    heads, tails = grid_anchors.ravel(), grid_candidates.ravel()
    offset = getattr(model, "inverse_offset", None)
    if side == HEAD:
        if offset is None:
            heads, tails = tails, heads
        else:
            relation = relation + offset
    relations = np.full(heads.shape, relation)
    return model.score_triples(heads, relations, tails).data.reshape(grid_anchors.shape)


class TestSurfacesAgree:
    def test_triples_match_candidates_tail_side(self, model):
        heads = np.array([0, 5, 11])
        relations = np.array([0, 2, 1])
        tails = np.array([7, 3, 30])
        train_scores = model.score_triples(heads, relations, tails).data
        for h, r, t, expected in zip(heads, relations, tails, train_scores):
            inferred = model.score_candidates(int(h), int(r), TAIL, np.array([t]))[0]
            assert inferred == pytest.approx(float(expected), abs=1e-9)

    def test_triples_match_candidates_head_side(self, model):
        tails = np.array([0, 5, 11])
        relations = np.array([0, 2, 1])
        heads = np.array([7, 3, 30])
        for t, r, h in zip(tails, relations, heads):
            expected = _reference_grid(model, [t], int(r), HEAD, [h])[0, 0]
            inferred = model.score_candidates(int(t), int(r), HEAD, np.array([h]))[0]
            assert inferred == pytest.approx(float(expected), abs=1e-9)

    @pytest.mark.parametrize("side", [HEAD, TAIL])
    def test_batch_grid_matches_triples(self, model, side):
        anchors = np.array([1, 8, 23, 39])
        candidates = np.array([0, 2, 9, 15, 31])
        batch = model.score_candidates_batch(anchors, 3, side, candidates)
        np.testing.assert_allclose(
            batch, _reference_grid(model, anchors, 3, side, candidates), rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("side", [HEAD, TAIL])
    def test_score_all_matches_candidates(self, model, side):
        full = model.score_all(4, 1, side)
        subset = np.array([0, 4, 17, 39])
        np.testing.assert_allclose(
            model.score_candidates(4, 1, side, subset), full[subset], atol=1e-12
        )

    @pytest.mark.parametrize("side", [HEAD, TAIL])
    def test_batch_matches_rowwise(self, model, side):
        anchors = np.array([1, 8, 23])
        candidates = np.array([2, 9, 15, 31])
        batch = model.score_candidates_batch(anchors, 2, side, candidates)
        assert batch.shape == (3, 4)
        for i, anchor in enumerate(anchors):
            np.testing.assert_allclose(
                batch[i],
                model.score_candidates(int(anchor), 2, side, candidates),
                atol=1e-12,
            )

    @pytest.mark.parametrize("side", [HEAD, TAIL])
    def test_batch_default_is_all_entities(self, model, side):
        anchors = np.array([3, 12])
        batch = model.score_candidates_batch(anchors, 0, side)
        assert batch.shape == (2, NUM_ENTITIES)
        np.testing.assert_allclose(batch[0], model.score_all(3, 0, side), atol=1e-12)


class TestTruthScores:
    """``score_candidates_batch(..., truths=)``: pool and paired truth scores."""

    @pytest.mark.parametrize("candidates", [np.array([2, 9, 15, 31, 9]), None])
    @pytest.mark.parametrize("side", [HEAD, TAIL])
    def test_paired_truths_match_single_truth_calls(self, scorer, side, candidates):
        k = NUM_ENTITIES if candidates is None else len(candidates)
        empty = np.empty(0, dtype=np.int64)
        for anchors, truths in (
            (np.array([1, 8, 23, 8]), np.array([0, 9, 39, 2])),
            (empty, empty),
        ):
            scores, truth_scores = scorer.score_candidates_batch(
                anchors, 4, side, candidates, truths=truths
            )
            assert scores.shape == (len(anchors), k)
            np.testing.assert_array_equal(
                scores, scorer.score_candidates_batch(anchors, 4, side, candidates)
            )
            assert truth_scores.shape == (len(anchors),)
            assert truth_scores.dtype == scores.dtype
            single = [
                scorer.score_candidates(int(a), 4, side, [int(t)])[0]
                for a, t in zip(anchors, truths)
            ]
            if isinstance(scorer, (RandomModel, OracleModel)):
                np.testing.assert_array_equal(truth_scores, single)
            else:
                np.testing.assert_allclose(truth_scores, single, rtol=0, atol=1e-12)

    def test_out_of_range_truth_rejected(self, scorer):
        for truth in (NUM_ENTITIES, -1):
            with pytest.raises(IndexError, match="truth"):
                scorer.score_candidates_batch([0, 1], 0, TAIL, [1, 2], truths=[3, truth])

    def test_one_truth_per_anchor(self, scorer):
        with pytest.raises(ValueError, match="one truth per anchor"):
            scorer.score_candidates_batch([0, 1], 0, TAIL, [1, 2], truths=[3])


class TestPerRowGroups:
    """``score_candidates_batch`` with one relation and side per row: the
    full ranking's chunks span several ``(relation, side)`` groups."""

    ANCHORS = np.array([1, 8, 23, 8, 5, 30, 1, 12])
    RELATIONS = np.array([4, 4, 0, 0, 0, 5, 5, 4])
    SIDE_CODES = np.array([0, 0, 0, 1, 1, 1, 0, 1])

    def _per_group(self, scorer, candidates, truths=None):
        """Row by row, the scores of a call per (relation, side) group."""
        k = NUM_ENTITIES if candidates is None else len(candidates)
        expected = np.zeros((len(self.ANCHORS), k))
        paired = np.zeros(len(self.ANCHORS))
        keys = self.RELATIONS * len(SIDES) + self.SIDE_CODES
        for key in np.unique(keys):
            rows = np.flatnonzero(keys == key)
            relation, side = int(key) // len(SIDES), SIDES[int(key) % len(SIDES)]
            if truths is None:
                expected[rows] = scorer.score_candidates_batch(
                    self.ANCHORS[rows], relation, side, candidates
                )
            else:
                expected[rows], paired[rows] = scorer.score_candidates_batch(
                    self.ANCHORS[rows], relation, side, candidates, truths=truths[rows]
                )
        return expected, paired

    @pytest.mark.parametrize("candidates", [np.array([2, 9, 15, 31, 9]), None])
    def test_mixed_batch_matches_per_group_calls(self, scorer, candidates):
        scores = scorer.score_candidates_batch(
            self.ANCHORS, self.RELATIONS, self.SIDE_CODES, candidates
        )
        expected, _ = self._per_group(scorer, candidates)
        if isinstance(scorer, (RandomModel, OracleModel)):
            np.testing.assert_array_equal(scores, expected)
        else:
            np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)

    def test_mixed_batch_paired_truths(self, scorer):
        truths = np.array([0, 9, 39, 2, 2, 17, 3, 8])
        candidates = np.array([2, 9, 15, 31])
        scores, truth_scores = scorer.score_candidates_batch(
            self.ANCHORS, self.RELATIONS, self.SIDE_CODES, candidates, truths=truths
        )
        expected, paired = self._per_group(scorer, candidates, truths)
        if isinstance(scorer, (RandomModel, OracleModel)):
            np.testing.assert_array_equal(scores, expected)
            np.testing.assert_array_equal(truth_scores, paired)
        else:
            np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)
            np.testing.assert_allclose(truth_scores, paired, rtol=0, atol=1e-12)

    def test_one_side_per_row_array_equals_the_scalar_side(self, scorer):
        for code, side in enumerate(SIDES):
            codes = np.full(len(self.ANCHORS), code)
            np.testing.assert_array_equal(
                scorer.score_candidates_batch(self.ANCHORS, 4, codes),
                scorer.score_candidates_batch(self.ANCHORS, 4, side),
            )


class TestDeterminism:
    def test_same_seed_same_scores(self, model):
        twin = build_model(model.name, NUM_ENTITIES, NUM_RELATIONS, dim=8, seed=3)
        np.testing.assert_array_equal(
            model.score_all(2, 1, TAIL), twin.score_all(2, 1, TAIL)
        )

    def test_repeated_calls_agree(self, model):
        a = model.score_all(6, 0, HEAD)
        b = model.score_all(6, 0, HEAD)
        np.testing.assert_array_equal(a, b)


class TestOneEntryPoint:
    @pytest.mark.parametrize("side", [HEAD, TAIL])
    def test_single_query_surfaces_are_batch_row_zero(self, scorer, side):
        candidates = np.array([3, 0, 17, 39])
        np.testing.assert_array_equal(
            scorer.score_all(5, 2, side), scorer.score_candidates_batch([5], 2, side)[0]
        )
        np.testing.assert_array_equal(
            scorer.score_candidates(5, 2, side, candidates),
            scorer.score_candidates_batch([5], 2, side, candidates)[0],
        )

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_float32_models_score_in_float32(self, name):
        model = build_model(name, NUM_ENTITIES, NUM_RELATIONS, dim=8, dtype="float32")
        candidates = np.array([1, 2])
        for side in (HEAD, TAIL):
            assert model.score_all(4, 1, side).dtype == np.float32
            assert model.score_candidates(4, 1, side, candidates).dtype == np.float32
            assert model.score_candidates_batch([4, 6], 1, side).dtype == np.float32

    def test_models_define_only_the_kernel(self):
        """Models implement ``query_vectors`` (+ ``score_rows``), never an entry point."""
        for cls in [*MODEL_REGISTRY.values(), RandomModel, OracleModel]:
            own = vars(cls)
            assert not set(INFERENCE_ENTRY_POINTS) & set(own), cls.__name__
        for cls in MODEL_REGISTRY.values():
            assert "query_vectors" in vars(cls), cls.__name__
        assert {cls for cls in MODEL_REGISTRY.values() if "score_rows" in vars(cls)} == {
            TransE,
            RotatE,
            ConvE,
        }
        for cls in (RandomModel, OracleModel):
            assert "_score_batch" in vars(cls), cls.__name__


class TestTrainingForward:
    """``query_vectors`` / ``score_rows`` as the fused training forward."""

    @pytest.mark.parametrize("side", [HEAD, TAIL])
    def test_relation_array_matches_scalar_calls(self, model, side):
        """Row i is bitwise the scalar call over the anchors sharing
        relation i (a matrix-product query rounds per batch, so the
        reference groups anchors by relation rather than calling one
        anchor at a time)."""
        anchors = np.array([1, 8, 23, 39, 8, 0, 17, 5])
        relations = np.array([3, 0, 3, 5, 1, 0, 3, 2])
        queries = model.query_vectors(anchors, relations, side)
        for relation in np.unique(relations).tolist():
            rows = np.flatnonzero(relations == relation)
            np.testing.assert_array_equal(
                queries[rows], model.query_vectors(anchors[rows], relation, side)
            )

    @pytest.mark.parametrize("side", [HEAD, TAIL])
    def test_per_row_candidates_match_shared_candidates(self, model, side):
        queries = model.query_vectors(np.array([1, 8, 23]), 2, side)
        candidates = np.array([[2, 9, 15, 31], [0, 0, 39, 4], [8, 1, 2, 3]])
        per_row = model.score_rows(queries, candidates)
        assert per_row.shape == (3, 4)
        for i in range(3):
            np.testing.assert_allclose(
                per_row[i], model.score_rows(queries[i : i + 1], candidates[i])[0], atol=1e-12
            )


    @pytest.mark.parametrize("name", available_models())
    def test_empty_triple_batch_scores_as_empty(self, name):
        model = build_model(name, NUM_ENTITIES, NUM_RELATIONS, dim=8, seed=3)
        empty = np.empty(0, dtype=int)
        assert model.score_triples(empty, empty, empty).data.shape == (0,)


class TestValidation:
    def test_out_of_range_ids_rejected(self, model):
        with pytest.raises(IndexError):
            model.score_triples(
                np.array([NUM_ENTITIES]), np.array([0]), np.array([0])
            )

    def test_out_of_range_candidates_rejected(self, model):
        with pytest.raises(IndexError):
            model.score_candidates(0, 0, TAIL, np.array([NUM_ENTITIES + 5]))

    def test_negative_anchor_rejected(self, scorer):
        with pytest.raises(IndexError, match="anchor"):
            scorer.score_all(-1, 0, TAIL)
        with pytest.raises(IndexError, match="anchor"):
            scorer.score_candidates(-2, 0, TAIL, [1])
        with pytest.raises(IndexError, match="anchor"):
            scorer.score_candidates_batch([0, NUM_ENTITIES], 0, TAIL)

    @pytest.mark.parametrize("relation", [-1, NUM_RELATIONS])
    def test_out_of_range_relation_rejected(self, scorer, relation):
        with pytest.raises(IndexError, match="relation"):
            scorer.score_all(0, relation, TAIL)
        with pytest.raises(IndexError, match="relation"):
            scorer.score_candidates(0, relation, HEAD, [1])
        with pytest.raises(IndexError, match="relation"):
            scorer.score_candidates_batch([0], relation, TAIL)

    def test_unknown_side_rejected(self, scorer):
        with pytest.raises(ValueError, match="side"):
            scorer.score_all(0, 0, "sideways")
        with pytest.raises(ValueError, match="side"):
            scorer.score_candidates_batch([0], 0, "sideways", [1])

    @pytest.mark.parametrize("relation", [-1, NUM_RELATIONS])
    def test_out_of_range_per_row_relation_rejected(self, scorer, relation):
        with pytest.raises(IndexError, match="relation"):
            scorer.score_candidates_batch([0, 1], np.array([0, relation]), TAIL)
        with pytest.raises(IndexError, match="relation"):
            scorer.score_candidates_batch([0, 1], np.array([relation, 0]), np.array([0, 1]))

    @pytest.mark.parametrize("code", [-1, len(SIDES)])
    def test_bad_side_code_rejected(self, scorer, code):
        with pytest.raises(ValueError, match="side codes"):
            scorer.score_candidates_batch([0, 1], 0, np.array([0, code]))
        with pytest.raises(ValueError, match="side codes"):
            scorer.score_candidates_batch([0, 1], np.array([0, 1]), np.array([code, 1]), [1])

    def test_per_row_arrays_need_one_entry_per_anchor(self, scorer):
        with pytest.raises(ValueError, match="one relation per anchor"):
            scorer.score_candidates_batch([0, 1, 2], np.array([0, 1]), TAIL)
        with pytest.raises(ValueError, match="one side per anchor"):
            scorer.score_candidates_batch([0, 1, 2], 0, np.array([0, 1]))

    def test_out_of_range_batch_candidates_rejected(self, scorer):
        with pytest.raises(IndexError, match="candidate"):
            scorer.score_candidates_batch([0], 0, TAIL, [-1])

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            build_model("transe", NUM_ENTITIES, NUM_RELATIONS, dim=0)

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            build_model("transe", 0, 3)


class TestGradients:
    def test_loss_reaches_entity_table(self, model):
        if model.name == "random":
            pytest.skip("random model has no trainable scoring path")
        model.zero_grad()
        loss = sum_(model.score_triples(np.array([0, 1]), np.array([0, 1]), np.array([2, 3])))
        loss.backward()
        entity = model.parameters["entity"]
        assert entity.grad is not None
        assert np.abs(entity.grad).sum() > 0


class TestRegistry:
    def test_available_names(self):
        assert available_models() == sorted(
            ["transe", "distmult", "complex", "rescal", "rotate", "tucker", "conve"]
        )

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError, match="transe"):
            build_model("bert", 10, 2)

    def test_case_insensitive(self):
        assert build_model("TransE", 10, 2).name == "transe"

    def test_parameter_counts_positive(self):
        for name in available_models():
            model = build_model(name, 12, 3, dim=8)
            assert model.num_parameters() > 0
