"""Trainer: loss trajectories, negative samplers, callbacks, ConvE inverses."""

import numpy as np
import pytest

from repro.models import (
    RecommenderNegativeSampler,
    Trainer,
    TrainingConfig,
    UniformNegativeSampler,
    build_model,
)
from repro.models.training import EpochRecord, known_triple_index, triple_keys
from repro.recommenders import build_recommender


class TestConfigValidation:
    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=-1)

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)


class TestUniformSampler:
    def test_shape(self, rng):
        sampler = UniformNegativeSampler(100)
        out = sampler.corrupt(np.zeros(8, dtype=np.int64), 5, np.zeros(8, dtype=bool), rng)
        assert out.shape == (8, 5)
        assert out.min() >= 0 and out.max() < 100

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            UniformNegativeSampler(0)


def _dense_graph():
    """5 entities, 1 relation, relation 0 nearly complete: random
    corruption collides with a true triple more often than not."""
    from repro.kg import KnowledgeGraph, TripleSet, Vocabulary

    triples = [(h, 0, t) for h in range(5) for t in range(5) if h != t][:12]
    return KnowledgeGraph(
        entities=Vocabulary([f"e{i}" for i in range(5)]),
        relations=Vocabulary(["r"]),
        train=TripleSet(triples),
        name="dense",
    )


def _reference_filter(neg_heads, neg_relations, neg_tails, corrupt_head, known, rng, num_entities):
    """The trainer's original per-slot loop over a set of tuples: the
    bitwise reference for its vectorized default filter."""
    rows, cols = neg_heads.shape
    for i in range(rows):
        replace_head = bool(corrupt_head[i])
        for j in range(cols):
            triple = (int(neg_heads[i, j]), int(neg_relations[i, j]), int(neg_tails[i, j]))
            if triple in known:
                replacement = int(rng.integers(num_entities))
                if replace_head:
                    neg_heads[i, j] = replacement
                else:
                    neg_tails[i, j] = replacement


def _corrupted_batch(graph, rng, k=8):
    triples = graph.train.array
    heads, relations, tails = triples[:, 0], triples[:, 1], triples[:, 2]
    corrupt_head = rng.random(len(triples)) < 0.5
    replacements = rng.integers(graph.num_entities, size=(len(triples), k))
    neg_heads = np.repeat(heads[:, None], k, axis=1)
    neg_tails = np.repeat(tails[:, None], k, axis=1)
    neg_heads[corrupt_head] = replacements[corrupt_head]
    neg_tails[~corrupt_head] = replacements[~corrupt_head]
    neg_relations = np.repeat(relations[:, None], k, axis=1)
    return neg_heads, neg_relations, neg_tails, corrupt_head


class TestDefaultFilter:
    """The trainer's default false-negative filter (filter_false_negatives)."""

    def test_matches_reference_loop_bitwise(self):
        graph = _dense_graph()
        known = {(int(h), int(r), int(t)) for h, r, t in graph.train}
        packed = known_triple_index(graph.train.array, graph.num_entities)
        collisions = 0
        for seed in range(5):
            neg_heads, neg_relations, neg_tails, corrupt_head = _corrupted_batch(
                graph, np.random.default_rng(seed)
            )
            keys = triple_keys(neg_heads, neg_relations, graph.num_entities)
            collisions += int(packed.contains(keys, neg_tails).sum())
            expected = [neg_heads.copy(), neg_tails.copy()]
            ref_rng, rng = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
            _reference_filter(
                expected[0], neg_relations, expected[1], corrupt_head, known, ref_rng,
                graph.num_entities,
            )
            Trainer()._filter_false_negatives(
                neg_heads, neg_relations, neg_tails, corrupt_head, packed, rng,
                graph.num_entities,
            )
            np.testing.assert_array_equal(neg_heads, expected[0])
            np.testing.assert_array_equal(neg_tails, expected[1])
            # Same draws consumed: the streams continue identically.
            assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)
        assert collisions > 0, "dense graph must produce raw collisions"

    def test_membership_matches_set_including_unseen_relations(self):
        rng = np.random.default_rng(0)
        triples = rng.integers(0, [30, 4, 30], size=(200, 3))
        known = set(map(tuple, triples.tolist()))
        index = known_triple_index(triples, 30)
        probes = np.concatenate([triples[:100], rng.integers(0, [30, 6, 30], size=(400, 3))])
        heads, relations, tails = probes.T.reshape(3, 25, 20)
        got = index.contains(triple_keys(heads, relations, 30), tails)
        assert got.ravel().tolist() == [tuple(p) in known for p in probes.tolist()]

    def test_training_matches_reference_loop_bitwise(self, monkeypatch):
        graph = _dense_graph()
        known = {(int(h), int(r), int(t)) for h, r, t in graph.train}
        config = TrainingConfig(epochs=2, batch_size=4, num_negatives=4, loss="softplus")

        def train(trainer):
            model = build_model("distmult", graph.num_entities, graph.num_relations, dim=4)
            history = trainer.fit(model, graph)
            return model.entity.data, history.losses

        vectorized = train(Trainer(config))
        reference_trainer = Trainer(config)
        monkeypatch.setattr(
            reference_trainer,
            "_filter_false_negatives",
            lambda h, r, t, side, _known, rng, n: _reference_filter(h, r, t, side, known, rng, n),
        )
        reference = train(reference_trainer)
        np.testing.assert_array_equal(vectorized[0], reference[0])
        assert vectorized[1] == reference[1]


class TestFilterPositives:
    """The opt-in bounded-round false-negative rejection (filter_positives)."""

    def _collisions(self, graph, neg_heads, neg_relations, neg_tails):
        known = {(int(h), int(r), int(t)) for h, r, t in graph.train}
        return sum(
            (int(h), int(r), int(t)) in known
            for h, r, t in zip(
                neg_heads.reshape(-1), neg_relations.reshape(-1), neg_tails.reshape(-1)
            )
        )

    def test_collision_rate_drops_to_zero(self, rng):
        graph = _dense_graph()
        sampler = UniformNegativeSampler(
            graph.num_entities,
            known_triples=graph,
            filter_positives=True,
            # The graph is deliberately so dense that most redraws collide
            # again; give the geometric decay room to finish.
            max_rounds=64,
        )
        triples = graph.train.array
        heads, relations, tails = triples[:, 0], triples[:, 1], triples[:, 2]
        corrupt_head = rng.random(len(triples)) < 0.5
        replacements = sampler.corrupt(relations, 8, corrupt_head, rng)
        neg_heads = np.repeat(heads[:, None], 8, axis=1)
        neg_tails = np.repeat(tails[:, None], 8, axis=1)
        neg_heads[corrupt_head] = replacements[corrupt_head]
        neg_tails[~corrupt_head] = replacements[~corrupt_head]
        neg_relations = np.repeat(relations[:, None], 8, axis=1)
        before = self._collisions(graph, neg_heads, neg_relations, neg_tails)
        assert before > 0, "dense graph must produce raw collisions"
        remaining = sampler.resample_collisions(
            neg_heads, neg_relations, neg_tails, corrupt_head, rng
        )
        assert remaining == 0
        assert self._collisions(graph, neg_heads, neg_relations, neg_tails) == 0

    def test_accepts_triple_arrays(self, rng):
        sampler = UniformNegativeSampler(
            10, known_triples=[(0, 0, 1), (2, 1, 3)], filter_positives=True
        )
        neg_heads = np.asarray([[0]])
        neg_relations = np.asarray([[0]])
        neg_tails = np.asarray([[1]])  # exactly the known triple
        remaining = sampler.resample_collisions(
            neg_heads, neg_relations, neg_tails, np.asarray([False]), rng
        )
        assert remaining == 0
        assert (int(neg_heads[0, 0]), 0, int(neg_tails[0, 0])) != (0, 1)

    def test_requires_known_triples(self):
        with pytest.raises(ValueError, match="known_triples"):
            UniformNegativeSampler(10, filter_positives=True)

    def test_resample_without_known_rejected(self, rng):
        sampler = UniformNegativeSampler(10)
        with pytest.raises(ValueError, match="known_triples"):
            sampler.resample_collisions(
                np.zeros((1, 1), dtype=np.int64),
                np.zeros((1, 1), dtype=np.int64),
                np.zeros((1, 1), dtype=np.int64),
                np.asarray([True]),
                rng,
            )

    def test_trainer_uses_the_sampler_filter(self, codex_s, monkeypatch):
        """With a filtering sampler the trainer skips its own filter."""
        graph = codex_s.graph
        sampler = UniformNegativeSampler(
            graph.num_entities, known_triples=graph, filter_positives=True
        )
        model = build_model("distmult", graph.num_entities, graph.num_relations, dim=8)
        trainer = Trainer(TrainingConfig(epochs=1, loss="softplus"), sampler=sampler)
        monkeypatch.setattr(
            trainer,
            "_filter_false_negatives",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("trainer filter used")),
        )
        history = trainer.fit(model, graph)
        assert len(history.losses) == 1


class TestRecommenderSampler:
    def test_draws_from_relation_support(self, codex_s, rng):
        graph = codex_s.graph
        fitted = build_recommender("pt").fit(graph)
        sampler = RecommenderNegativeSampler(fitted, graph.num_relations, uniform_mix=0.0)
        relations = np.zeros(16, dtype=np.int64)
        out = sampler.corrupt(relations, 4, np.zeros(16, dtype=bool), rng)
        support = set(fitted.column_support(0, "tail").tolist())
        assert set(out.reshape(-1).tolist()) <= support

    def test_uniform_mix_reaches_outside_support(self, codex_s, rng):
        graph = codex_s.graph
        fitted = build_recommender("pt").fit(graph)
        sampler = RecommenderNegativeSampler(fitted, graph.num_relations, uniform_mix=0.95)
        out = sampler.corrupt(np.zeros(64, dtype=np.int64), 8, np.zeros(64, dtype=bool), rng)
        support = set(fitted.column_support(0, "tail").tolist())
        assert not set(out.reshape(-1).tolist()) <= support

    def test_invalid_mix_rejected(self, codex_s):
        fitted = build_recommender("pt").fit(codex_s.graph)
        with pytest.raises(ValueError):
            RecommenderNegativeSampler(fitted, 10, uniform_mix=2.0)


class TestTrainingLoop:
    @pytest.mark.parametrize("name,loss", [("transe", "margin"), ("distmult", "softplus")])
    def test_loss_decreases(self, codex_s, name, loss):
        graph = codex_s.graph
        model = build_model(name, graph.num_entities, graph.num_relations, dim=16, seed=0)
        config = TrainingConfig(epochs=4, batch_size=256, num_negatives=4, lr=0.05, loss=loss)
        history = Trainer(config).fit(model, graph)
        assert history.losses[-1] < history.losses[0]
        assert all(isinstance(r, EpochRecord) for r in history.records)

    def test_training_improves_true_triple_rank(self, codex_s):
        graph = codex_s.graph
        model = build_model("complex", graph.num_entities, graph.num_relations, dim=16, seed=0)
        h, r, t = (int(x) for x in graph.train.array[0])

        def rank_of_truth():
            scores = model.score_all(h, r, "tail")
            return int((scores > scores[t]).sum()) + 1

        before = rank_of_truth()
        Trainer(TrainingConfig(epochs=8, lr=0.1, loss="softplus")).fit(model, graph)
        assert rank_of_truth() < before

    def test_zero_epochs_is_noop(self, codex_s):
        graph = codex_s.graph
        model = build_model("transe", graph.num_entities, graph.num_relations, dim=8)
        snapshot = model.entity.data.copy()
        history = Trainer(TrainingConfig(epochs=0)).fit(model, graph)
        assert history.records == []
        np.testing.assert_array_equal(model.entity.data, snapshot)

    def test_callbacks_see_eval_mode(self, codex_s):
        graph = codex_s.graph
        model = build_model("transe", graph.num_entities, graph.num_relations, dim=8)
        seen = []

        def spy(epoch, current, history):
            seen.append((epoch, current.training))
            history.attach("epoch", epoch)

        history = Trainer(TrainingConfig(epochs=2)).fit(model, graph, callbacks=[spy])
        assert seen == [(0, False), (1, False)]
        assert history.extras["epoch"] == [0, 1]
        assert model.training is False

    def test_determinism(self, codex_s):
        graph = codex_s.graph

        def run():
            model = build_model("distmult", graph.num_entities, graph.num_relations, dim=8, seed=1)
            Trainer(TrainingConfig(epochs=2, seed=5, loss="softplus")).fit(model, graph)
            return model.entity.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_conve_trains_inverse_relations(self, codex_s):
        graph = codex_s.graph
        model = build_model(
            "conve", graph.num_entities, graph.num_relations, dim=16, seed=0
        )
        inverse_before = model.relation.data[graph.num_relations :].copy()
        Trainer(TrainingConfig(epochs=1, loss="bce", lr=0.05)).fit(model, graph)
        inverse_after = model.relation.data[graph.num_relations :]
        assert not np.allclose(inverse_before, inverse_after)

    def test_recommender_guided_training_runs(self, codex_s):
        """The paper's Section 7 extension: harder negatives during training."""
        graph = codex_s.graph
        fitted = build_recommender("l-wd").fit(graph)
        sampler = RecommenderNegativeSampler(fitted, graph.num_relations)
        model = build_model("distmult", graph.num_entities, graph.num_relations, dim=8)
        history = Trainer(
            TrainingConfig(epochs=2, loss="softplus"), sampler=sampler
        ).fit(model, graph)
        assert history.losses[-1] < history.losses[0]
