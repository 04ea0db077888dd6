"""Fused training: gradient equivalence, dispatch, dtype, trainer parity.

The contract under test is "correct by construction": for every model
that trains fused (its inference ``query_vectors`` + ``score_rows`` with a
backward for each) and every loss, float64 fused gradients must match the
autodiff engine's to 1e-9 (they actually agree to ~1e-15 — the tolerance
absorbs accumulation-order rounding), the training forward's scores must
match ``score_triples``, and training through the fused path must land on
the same parameters as the autodiff path.
"""

import numpy as np
import pytest

from repro.autodiff import gradcheck
from repro.kg.graph import HEAD, TAIL
from repro.models import MODEL_REGISTRY, DistMult, Trainer, TrainingConfig, build_model
from repro.models.fused import (
    autodiff_gradients,
    available_fused_losses,
    expand_corruptions,
    fused_gradients,
    fused_step,
    get_fused_loss,
    trains_fused,
)
from repro.models.losses import get_loss

GRAD_TOL = 1e-9

FUSED_MODELS = ("transe", "distmult", "complex", "rescal", "rotate")
LOSSES = ("margin", "bce", "softplus")
BATCH_KINDS = ("mixed", "all-head", "all-tail", "duplicate-row")

#: Model variants exercised beyond defaults (TransE's L2 branch).
VARIANTS = {"transe": [{"norm": 1}, {"norm": 2}]}


class AutodiffDistMult(DistMult):
    """DistMult re-declaring ``query_vectors`` without its VJP: the fused
    backward no longer matches the forward it would train, so the model
    trains through autodiff — same name, same initial parameters."""

    def query_vectors(self, anchors, relation, side):
        return super().query_vectors(anchors, relation, side)


def _batch(rng, num_entities, num_relations, b=24, k=5, kind="mixed"):
    heads = rng.integers(num_entities, size=b)
    relations = rng.integers(num_relations, size=b)
    tails = rng.integers(num_entities, size=b)
    corrupted = rng.integers(num_entities, size=(b, k))
    corrupt_head = rng.random(b) < 0.5
    if kind == "all-head":
        corrupt_head[:] = True
    elif kind == "all-tail":
        corrupt_head[:] = False
    elif kind == "duplicate-row":
        # Every positive shares entity 0 and relation 0, every negative
        # entity 7: row gradients must accumulate, not overwrite.
        heads[:] = 0
        relations[:] = 0
        corrupted[:] = 7
    return heads, relations, tails, corrupted, corrupt_head


def _assert_gradients_match(model, loss, batch, label):
    loss_a, grads_a = autodiff_gradients(model, loss, *batch, margin=1.0)
    loss_f, grads_f = fused_gradients(model, loss, *batch, margin=1.0)
    assert abs(loss_a - loss_f) <= GRAD_TOL, label
    assert set(grads_a) == set(grads_f), label
    for key in grads_a:
        diff = np.abs(grads_a[key] - grads_f[key]).max()
        assert diff <= GRAD_TOL, f"{label}/{key}: {diff}"


def _forward_scores(model, heads, relations, tails, corrupted, corrupt_head):
    """The fused training forward: ``(b, 1 + k)`` scores of [truth | corruptions]."""
    scores = np.empty((len(heads), 1 + corrupted.shape[1]))
    for side, rows in ((HEAD, corrupt_head), (TAIL, ~corrupt_head)):
        anchors, truths = (tails, heads) if side == HEAD else (heads, tails)
        queries = model.query_vectors(anchors[rows], relations[rows], side)
        candidates = np.concatenate([truths[rows, None], corrupted[rows]], axis=1)
        scores[rows] = model.score_rows(queries, candidates)
    return scores


class TestRegistry:
    def test_kernel_family_is_complete(self):
        fused = {name for name in MODEL_REGISTRY if trains_fused(build_model(name, 10, 2, dim=8))}
        assert fused == set(FUSED_MODELS)

    def test_deep_models_have_no_kernel(self):
        for name in ("conve", "tucker"):
            assert not trains_fused(build_model(name, 10, 2, dim=8))

    def test_every_loss_has_a_fused_gradient(self):
        assert set(available_fused_losses()) == set(LOSSES)
        assert get_fused_loss("nope") is None

    def test_subclass_with_custom_scoring_falls_back(self):
        """Overriding score_triples voids the inherited backward: silently
        training a modified model with the base gradients would be wrong,
        so it trains through autodiff."""

        class ScaledDistMult(DistMult):
            def score_triples(self, heads, relations, tails):
                return super().score_triples(heads, relations, tails) * 2.0

        assert not trains_fused(ScaledDistMult(10, 2, dim=4))

        # A subclass that keeps the scoring rule keeps the fused path.
        class RenamedOnly(DistMult):
            pass

        assert trains_fused(RenamedOnly(10, 2, dim=4))

    def test_query_vectors_without_its_vjp_falls_back(self):
        assert not trains_fused(AutodiffDistMult(10, 2, dim=4))

        # Supplying the VJP next to the override restores the fused path.
        class WithVJP(DistMult):
            def query_vectors(self, anchors, relation, side):
                return super().query_vectors(anchors, relation, side)

            def query_vectors_vjp(self, anchors, relations, side, d_queries):
                return super().query_vectors_vjp(anchors, relations, side, d_queries)

        assert trains_fused(WithVJP(10, 2, dim=4))

    def test_score_rows_without_its_vjp_falls_back(self):
        class ShiftedRows(DistMult):
            def score_rows(self, queries, candidates=None):
                return super().score_rows(queries, candidates) + 1.0

        assert not trains_fused(ShiftedRows(10, 2, dim=4))


class TestScoreParity:
    @pytest.mark.parametrize("name", FUSED_MODELS)
    def test_kernel_scores_equal_score_triples(self, name, rng):
        """The training forward's truth column is score_triples, both sides."""
        for extra in VARIANTS.get(name, [{}]):
            model = build_model(name, 30, 4, dim=6, seed=1, **extra)
            heads, relations, tails, corrupted, corrupt_head = _batch(rng, 30, 4, b=16)
            scores = _forward_scores(model, heads, relations, tails, corrupted, corrupt_head)
            expected = model.score_triples(heads, relations, tails).data
            np.testing.assert_allclose(scores[:, 0], expected, atol=1e-12)

    @pytest.mark.parametrize("name", FUSED_MODELS)
    def test_structured_scores_equal_flat_scores(self, name, rng):
        """The corruption columns agree with scoring the expanded triples."""
        for extra in VARIANTS.get(name, [{}]):
            model = build_model(name, 30, 4, dim=6, seed=1, **extra)
            heads, relations, tails, corrupted, corrupt_head = _batch(rng, 30, 4)
            scores = _forward_scores(model, heads, relations, tails, corrupted, corrupt_head)
            neg_h, neg_r, neg_t = expand_corruptions(
                heads, relations, tails, corrupted, corrupt_head
            )
            expected = model.score_triples(
                neg_h.reshape(-1), neg_r.reshape(-1), neg_t.reshape(-1)
            ).data.reshape(corrupted.shape)
            np.testing.assert_allclose(scores[:, 1:], expected, atol=1e-9)


class TestGradientEquivalence:
    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("name", FUSED_MODELS)
    def test_fused_matches_autodiff_to_1e9(self, name, loss, rng):
        """Every variant x batch kind: mixed, one-sided and duplicate rows."""
        for extra in VARIANTS.get(name, [{}]):
            model = build_model(name, 40, 5, dim=8, seed=2, **extra)
            for kind in BATCH_KINDS:
                batch = _batch(rng, 40, 5, kind=kind)
                _assert_gradients_match(model, loss, batch, f"{name}/{extra}/{loss}/{kind}")

    @pytest.mark.parametrize("name", FUSED_MODELS)
    def test_one_sided_corruption_batches(self, name, rng):
        """All-head and all-tail corruption run one side's forward only."""
        model = build_model(name, 40, 5, dim=8, seed=2)
        heads, relations, tails, corrupted, _ = _batch(rng, 40, 5)
        for corrupt_head in (np.zeros(len(heads), bool), np.ones(len(heads), bool)):
            batch = (heads, relations, tails, corrupted, corrupt_head)
            _assert_gradients_match(model, "margin", batch, name)

    def test_duplicate_rows_accumulate(self, rng):
        """A batch hammering one entity still matches autodiff exactly."""
        model = build_model("distmult", 40, 5, dim=8, seed=2)
        b, k = 16, 4
        heads = np.zeros(b, dtype=np.int64)  # every positive shares entity 0
        relations = np.zeros(b, dtype=np.int64)
        tails = rng.integers(40, size=b)
        corrupted = np.full((b, k), 7, dtype=np.int64)  # every negative too
        corrupt_head = np.zeros(b, dtype=bool)
        batch = (heads, relations, tails, corrupted, corrupt_head)
        _assert_gradients_match(model, "softplus", batch, "distmult")

    def test_autodiff_reference_passes_finite_differences(self, rng):
        """Anchor the chain: autodiff itself is checked against gradcheck."""
        model = build_model("distmult", 12, 3, dim=4, seed=0)
        heads, relations, tails, corrupted, corrupt_head = _batch(rng, 12, 3, b=6, k=3)
        neg_h, neg_r, neg_t = expand_corruptions(
            heads, relations, tails, corrupted, corrupt_head
        )
        loss_fn = get_loss("softplus")

        def compute():
            from repro.autodiff.engine import reshape

            positive = model.score_triples(heads, relations, tails)
            negative = reshape(
                model.score_triples(
                    neg_h.reshape(-1), neg_r.reshape(-1), neg_t.reshape(-1)
                ),
                corrupted.shape,
            )
            return loss_fn(positive, negative, margin=1.0)

        assert gradcheck(compute, model.parameter_list(), eps=1e-6) < 1e-7


class TestTrainerDispatch:
    def _run_both_paths(self, graph, optimizer):
        def run(model_cls):
            model = model_cls(graph.num_entities, graph.num_relations, dim=8, seed=0)
            config = TrainingConfig(
                epochs=2,
                batch_size=128,
                num_negatives=4,
                lr=0.05,
                loss="softplus",
                optimizer=optimizer,
                seed=3,
            )
            history = Trainer(config).fit(model, graph)
            return model, history

        return run(DistMult), run(AutodiffDistMult)

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    def test_fused_and_autodiff_training_agree(self, codex_s, optimizer):
        """Same seeds, both paths: near-identical parameters after 2 epochs.

        SGD and Adagrad carry no decaying state, so their sparse updates
        are exactly the dense updates whenever the gradients agree.
        """
        (fused_model, fused_history), (auto_model, auto_history) = self._run_both_paths(
            codex_s.graph, optimizer
        )
        np.testing.assert_allclose(fused_history.losses, auto_history.losses, atol=1e-9)
        np.testing.assert_allclose(
            fused_model.entity.data, auto_model.entity.data, atol=1e-7
        )

    def test_adam_lazy_updates_track_dense_adam(self, codex_s):
        """Sparse Adam is *lazy* (decay only on touched rows), so it is
        close to — but deliberately not bit-identical with — dense Adam."""
        (fused_model, fused_history), (auto_model, auto_history) = self._run_both_paths(
            codex_s.graph, "adam"
        )
        np.testing.assert_allclose(fused_history.losses, auto_history.losses, atol=5e-3)
        correlation = np.corrcoef(
            fused_model.entity.data.ravel(), auto_model.entity.data.ravel()
        )[0, 1]
        assert correlation > 0.95

    def test_subclass_without_vjp_trains_through_autodiff(self, codex_s, monkeypatch):
        graph = codex_s.graph
        calls = []
        import repro.models.training as training_module

        original = training_module.fused_step

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(training_module, "fused_step", spy)
        for model_cls in (AutodiffDistMult, DistMult):
            model = model_cls(graph.num_entities, graph.num_relations, dim=8)
            Trainer(TrainingConfig(epochs=1)).fit(model, graph)
            assert bool(calls) == (model_cls is DistMult), model_cls.__name__

    def test_models_without_kernel_fall_back(self, codex_s, monkeypatch):
        """ConvE trains through autodiff."""
        graph = codex_s.graph
        model = build_model("conve", graph.num_entities, graph.num_relations, dim=16)
        import repro.models.training as training_module

        monkeypatch.setattr(
            training_module,
            "fused_step",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("fused on ConvE")),
        )
        history = Trainer(TrainingConfig(epochs=1, loss="bce")).fit(model, graph)
        assert len(history.losses) == 1

    def test_fused_loss_decreases(self, codex_s):
        graph = codex_s.graph
        model = build_model("complex", graph.num_entities, graph.num_relations, dim=16)
        history = Trainer(TrainingConfig(epochs=4, lr=0.1, loss="softplus")).fit(
            model, graph
        )
        assert history.losses[-1] < history.losses[0]


class TestDtype:
    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            build_model("distmult", 10, 2, dim=4, dtype="float16")

    def test_float32_initialisation_is_cast_float64(self):
        """float32 params start at the rounding of the float64 init."""
        m64 = build_model("complex", 20, 3, dim=8, seed=5)
        m32 = build_model("complex", 20, 3, dim=8, seed=5, dtype="float32")
        np.testing.assert_array_equal(
            m32.entity.data, m64.entity.data.astype(np.float32)
        )

    def test_float32_fused_training_stays_float32(self, codex_s):
        graph = codex_s.graph
        model = build_model(
            "distmult", graph.num_entities, graph.num_relations, dim=8, dtype="float32"
        )
        Trainer(TrainingConfig(epochs=1, loss="softplus")).fit(model, graph)
        assert model.entity.data.dtype == np.float32
        assert model.score_all(0, 0, "tail").dtype == np.float32

    def test_float32_autodiff_fallback_trains(self, codex_s):
        """Autodiff-trained models accept float32 too (upcast internally)."""
        graph = codex_s.graph
        model = build_model(
            "tucker", graph.num_entities, graph.num_relations, dim=8, dtype="float32"
        )
        history = Trainer(TrainingConfig(epochs=1, loss="bce")).fit(model, graph)
        assert len(history.losses) == 1
        assert model.entity.data.dtype == np.float32


def test_fused_step_rejects_out_of_range_ids():
    model = build_model("distmult", 10, 2, dim=4)
    loss_grad = get_fused_loss("margin")
    bad = np.asarray([99])
    ok = np.asarray([0])
    with pytest.raises(IndexError):
        fused_step(
            model, loss_grad, bad, ok, ok, np.asarray([[1]]), np.asarray([False])
        )
