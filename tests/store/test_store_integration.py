"""The store wired through the stack: protocol, runner, report layer.

The acceptance headline lives here: a repeated ``run_training_study``
with a warm store performs **zero trainer epochs** and recomputes no
full-ranking ground truth.
"""

import numpy as np
import pytest

import repro.bench.runner as runner_module
from repro.bench.runner import run_training_study
from repro.core.protocol import EvaluationProtocol
from repro.models import build_model
from repro.models.training import Trainer
from repro.store import ExperimentStore, journal_rows, render_cache, render_rows


@pytest.fixture
def store(tmp_path) -> ExperimentStore:
    return ExperimentStore(tmp_path / "store")


STUDY_CONFIG = dict(
    dataset_name="codex-s-lite",
    model_name="distmult",
    epochs=2,
    dim=8,
    sample_fraction=0.1,
    with_kp=False,
    seed=0,
)


class SpyTrainer(Trainer):
    """Counts every fit() call and epoch actually trained."""

    fit_calls = 0
    epochs_trained = 0

    def fit(self, model, graph, callbacks=None):
        SpyTrainer.fit_calls += 1
        history = super().fit(model, graph, callbacks=callbacks)
        SpyTrainer.epochs_trained += len(history.records)
        return history


@pytest.fixture
def spy_trainer(monkeypatch):
    SpyTrainer.fit_calls = 0
    SpyTrainer.epochs_trained = 0
    monkeypatch.setattr(runner_module, "Trainer", SpyTrainer)
    return SpyTrainer


class TestWarmStudy:
    def test_second_run_performs_zero_trainer_epochs(self, store, spy_trainer):
        cold = run_training_study(**STUDY_CONFIG, store=store)
        assert spy_trainer.fit_calls == 1
        assert spy_trainer.epochs_trained == STUDY_CONFIG["epochs"]

        warm = run_training_study(**STUDY_CONFIG, store=store)
        # The headline guarantee: the cache served everything.
        assert spy_trainer.fit_calls == 1
        assert spy_trainer.epochs_trained == STUDY_CONFIG["epochs"]

        assert warm.dataset_name == cold.dataset_name
        assert len(warm.records) == len(cold.records)
        for cold_rec, warm_rec in zip(cold.records, warm.records):
            assert warm_rec.true_metrics == cold_rec.true_metrics
            assert warm_rec.estimated == cold_rec.estimated
            assert warm_rec.true_seconds == cold_rec.true_seconds

    def test_config_change_misses_the_cache(self, store, spy_trainer):
        run_training_study(**STUDY_CONFIG, store=store)
        changed = dict(STUDY_CONFIG, seed=1)
        run_training_study(**changed, store=store)
        assert spy_trainer.fit_calls == 2

    def test_journal_records_hit_and_miss(self, store):
        run_training_study(**STUDY_CONFIG, store=store)
        run_training_study(**STUDY_CONFIG, store=store)
        hits = [r.cache_hit for r in store.journal.records()]
        assert hits == [False, True]
        miss, hit = store.journal.records()
        assert miss.config["dataset"] == "codex-s-lite"
        assert miss.metrics["mrr"] == pytest.approx(hit.metrics["mrr"])

    def test_checkpoint_persisted_on_miss(self, store):
        run_training_study(**STUDY_CONFIG, store=store)
        models = [e for e in store.artifacts.entries() if e.kind == "model"]
        assert len(models) == 1
        loaded = store.artifacts.get_model(models[0].key)
        assert loaded is not None and loaded.name == "distmult"

    def test_warm_study_survives_process_restart(self, tmp_path, spy_trainer):
        run_training_study(**STUDY_CONFIG, store=ExperimentStore(tmp_path / "s"))
        reopened = ExperimentStore(tmp_path / "s")
        run_training_study(**STUDY_CONFIG, store=reopened)
        assert spy_trainer.fit_calls == 1


class TestProtocolStore:
    def test_prepare_restores_pools_and_candidates(self, store, codex_s):
        first = EvaluationProtocol(
            codex_s.graph, strategy="static", sample_fraction=0.1,
            types=codex_s.types, store=store,
        )
        report = first.prepare()
        assert not report.from_cache

        second = EvaluationProtocol(
            codex_s.graph, strategy="static", sample_fraction=0.1,
            types=codex_s.types, store=store,
        )
        restored = second.prepare()
        assert restored.from_cache
        assert restored.fit_seconds == report.fit_seconds
        assert second.fitted is None  # no refit on the warm path
        for side in ("head", "tail"):
            for relation in range(codex_s.graph.num_relations):
                np.testing.assert_array_equal(
                    second.pools.pool(relation, side), first.pools.pool(relation, side)
                )
                np.testing.assert_array_equal(
                    second.candidates.candidates(relation, side),
                    first.candidates.candidates(relation, side),
                )

    def test_cached_prepare_gives_identical_estimates(self, store, codex_s):
        model = build_model(
            "distmult", codex_s.graph.num_entities, codex_s.graph.num_relations,
            dim=8, seed=0,
        )
        cold = EvaluationProtocol(
            codex_s.graph, strategy="static", sample_fraction=0.1,
            types=codex_s.types, store=store,
        )
        warm = EvaluationProtocol(
            codex_s.graph, strategy="static", sample_fraction=0.1,
            types=codex_s.types, store=store,
        )
        assert warm.evaluate(model).metrics == cold.evaluate(model).metrics

    def test_evaluate_full_is_cached_by_model_state(self, store, codex_s):
        graph = codex_s.graph
        model = build_model("distmult", graph.num_entities, graph.num_relations, dim=8)
        protocol = EvaluationProtocol(
            graph, strategy="random", sample_fraction=0.1, store=store
        )
        first = protocol.evaluate_full(model)
        second = protocol.evaluate_full(model)
        assert second.metrics == first.metrics
        assert second.seconds == first.seconds  # replayed artifact, not re-timed
        assert second.ranks == first.ranks
        truths = [e for e in store.artifacts.entries() if e.kind == "truth"]
        assert len(truths) == 1

    def test_resample_refits_when_restored_from_cache(self, store, codex_s):
        EvaluationProtocol(
            codex_s.graph, strategy="probabilistic", sample_fraction=0.1,
            types=codex_s.types, store=store,
        ).prepare()
        warm = EvaluationProtocol(
            codex_s.graph, strategy="probabilistic", sample_fraction=0.1,
            types=codex_s.types, store=store,
        )
        warm.prepare()
        assert warm.fitted is None
        warm.resample(seed=7)  # must refit rather than crash
        assert warm.fitted is not None
        assert warm.pools is not None


def _all_pools(pools) -> np.ndarray:
    """Every pool flattened in a canonical order (for draw comparison).

    Individual (relation, side) pools can saturate — the sample is the
    whole candidate set, identical under any seed — so seed sensitivity
    must be asserted on the full draw.
    """
    return np.concatenate(
        [
            pools.pool(relation, side)
            for side in ("head", "tail")
            for relation in pools.pools[side].keys.tolist()
        ]
    )


class TestResampleSeedKeying:
    """resample(seed) threads the new pool seed into the store cache key."""

    def test_resample_updates_the_preparation_key(self, store, codex_s):
        protocol = EvaluationProtocol(
            codex_s.graph, strategy="static", sample_fraction=0.1,
            types=codex_s.types, seed=0, store=store,
        )
        protocol.prepare()
        original_key = protocol._preparation_key()
        protocol.resample(seed=7)
        assert protocol.seed == 7
        assert protocol._preparation_key() != original_key

    def test_resample_does_not_clobber_the_original_draw(self, store, codex_s):
        protocol = EvaluationProtocol(
            codex_s.graph, strategy="static", sample_fraction=0.1,
            types=codex_s.types, seed=0, store=store,
        )
        protocol.prepare()
        original = _all_pools(protocol.pools).copy()
        protocol.resample(seed=7)
        resampled = _all_pools(protocol.pools).copy()
        assert not np.array_equal(original, resampled)
        # A fresh seed-0 protocol still restores the *original* pools.
        fresh = EvaluationProtocol(
            codex_s.graph, strategy="static", sample_fraction=0.1,
            types=codex_s.types, seed=0, store=store,
        )
        fresh.prepare()
        assert fresh.preparation.from_cache
        assert np.array_equal(_all_pools(fresh.pools), original)

    def test_resampled_draw_is_cached_under_the_new_seed(self, store, codex_s):
        protocol = EvaluationProtocol(
            codex_s.graph, strategy="static", sample_fraction=0.1,
            types=codex_s.types, seed=0, store=store,
        )
        protocol.prepare()
        protocol.resample(seed=7)
        resampled = _all_pools(protocol.pools).copy()
        # A fresh seed-7 protocol restores the resampled draw from cache.
        fresh = EvaluationProtocol(
            codex_s.graph, strategy="static", sample_fraction=0.1,
            types=codex_s.types, seed=7, store=store,
        )
        fresh.prepare()
        assert fresh.preparation.from_cache
        assert np.array_equal(_all_pools(fresh.pools), resampled)
        # And resampling back to a cached seed restores rather than redraws.
        protocol.resample(seed=0)
        assert protocol.preparation.from_cache

    def test_resample_matches_fresh_prepare_without_store(self, codex_s):
        """The resampled draw equals what prepare(seed) would build."""
        resampled = EvaluationProtocol(
            codex_s.graph, strategy="static", sample_fraction=0.1,
            types=codex_s.types, seed=0,
        )
        resampled.prepare()
        resampled.resample(seed=7)
        direct = EvaluationProtocol(
            codex_s.graph, strategy="static", sample_fraction=0.1,
            types=codex_s.types, seed=7,
        )
        direct.prepare()
        assert np.array_equal(_all_pools(resampled.pools), _all_pools(direct.pools))


class TestReportLayer:
    def test_journal_rows_and_formats(self, store):
        run_training_study(**STUDY_CONFIG, store=store)
        run_training_study(**STUDY_CONFIG, store=store)
        rows = journal_rows(store.journal)
        assert [row["Cache"] for row in rows] == ["miss", "hit"]
        assert journal_rows(store.journal, limit=1)[0]["Cache"] == "hit"
        assert journal_rows(store.journal, limit=0) == []

        csv_text = render_rows(rows, fmt="csv")
        assert csv_text.splitlines()[0].startswith("Run,When,Kind,Cache,Seconds")
        json_text = render_rows(rows, fmt="json")
        assert '"Cache": "miss"' in json_text
        with pytest.raises(ValueError):
            render_rows(rows, fmt="yaml")

    def test_cache_listing_renders(self, store):
        run_training_study(**STUDY_CONFIG, store=store)
        text = render_cache(store.artifacts)
        assert "pools" in text and "study" in text and "model" in text
