"""Spec dataclasses: validation, round-trips, registry coverage."""

import dataclasses
import json

import pytest

from repro.datasets.zoo import available_datasets
from repro.experiment import (
    DatasetSpec,
    EvaluationSpec,
    ExperimentSpec,
    ModelSpec,
    ServeSpec,
    SpecError,
    TrainingSpec,
    apply_overrides,
    parse_set_expression,
    spec_key,
)
from repro.models import available_losses, available_models, build_model
from repro.recommenders.registry import available_recommenders, build_recommender

ALL_SPEC_CLASSES = (
    DatasetSpec,
    ModelSpec,
    TrainingSpec,
    EvaluationSpec,
    ServeSpec,
    ExperimentSpec,
)


class TestRoundTrip:
    """from_dict(to_dict(spec)) == spec — for every spec class."""

    @pytest.mark.parametrize("cls", ALL_SPEC_CLASSES)
    def test_default_spec_round_trips(self, cls):
        spec = cls()
        assert cls.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("cls", ALL_SPEC_CLASSES)
    def test_default_spec_json_round_trips(self, cls):
        spec = cls()
        payload = json.loads(json.dumps(spec.to_dict()))
        assert cls.from_dict(payload) == spec

    def test_non_default_experiment_round_trips(self):
        spec = ExperimentSpec.from_dict(
            {
                "name": "study-1",
                "task": "evaluate",
                "dataset": {"name": "codex-m-lite", "options": {"seed": 5}},
                "model": {"name": "transe", "dim": 16, "dtype": "float32"},
                "training": {"epochs": 3, "loss": "margin", "optimizer": "sgd"},
                "evaluation": {
                    "strategy": "probabilistic",
                    "num_samples": 64,
                    "resample_seed": 9,
                    "compare_random": False,
                },
                "serve": {"port": 9999, "model_paths": ["prod=/tmp/x.npz"]},
                "checkpoint": "/tmp/ckpt.npz",
            }
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert spec.evaluation.sample_fraction is None  # num_samples won

    @pytest.mark.parametrize("model_name", available_models())
    def test_every_registry_model_constructible_from_default_spec(self, model_name):
        spec = ModelSpec(name=model_name, dim=8)
        assert ModelSpec.from_dict(spec.to_dict()) == spec
        model = build_model(
            spec.name, 20, 4, dim=spec.dim, seed=spec.seed, dtype=spec.dtype,
            **spec.options,
        )
        assert model.name == model_name

    @pytest.mark.parametrize("rec_name", available_recommenders())
    def test_every_registry_recommender_round_trips(self, rec_name):
        spec = EvaluationSpec(recommender=rec_name)
        assert EvaluationSpec.from_dict(spec.to_dict()) == spec
        assert build_recommender(rec_name).name == rec_name

    @pytest.mark.parametrize("dataset_name", available_datasets())
    def test_every_zoo_dataset_round_trips(self, dataset_name):
        spec = DatasetSpec(name=dataset_name)
        assert DatasetSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("loss", available_losses())
    def test_every_loss_round_trips(self, loss):
        spec = TrainingSpec(loss=loss)
        assert TrainingSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_config().loss == loss

    def test_to_dict_covers_every_field(self):
        """No spec field can silently drop out of the canonical form."""
        for cls in ALL_SPEC_CLASSES:
            payload = cls().to_dict()
            assert set(payload) == {f.name for f in dataclasses.fields(cls)}


class TestValidation:
    def test_unknown_section_key_suggests(self):
        with pytest.raises(SpecError, match="did you mean 'lr'"):
            TrainingSpec.from_dict({"lrr": 0.1})

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError, match="unknown key 'modle'"):
            ExperimentSpec.from_dict({"modle": {}})

    def test_bad_enum_value_suggests(self):
        with pytest.raises(SpecError, match="did you mean 'static'"):
            EvaluationSpec(strategy="sttic")

    def test_unknown_model_lists_registry(self):
        with pytest.raises(SpecError, match="complex"):
            ModelSpec(name="complexx")

    def test_unknown_recommender(self):
        with pytest.raises(SpecError, match="evaluation.recommender"):
            EvaluationSpec(recommender="lwd")

    def test_unknown_dataset(self):
        with pytest.raises(SpecError, match="dataset.name"):
            DatasetSpec(name="fb15k")

    def test_unknown_task(self):
        with pytest.raises(SpecError, match="task"):
            ExperimentSpec(task="benchmark")

    def test_fraction_and_samples_mutually_exclusive(self):
        with pytest.raises(SpecError, match="exactly one"):
            EvaluationSpec(sample_fraction=0.1, num_samples=10)
        with pytest.raises(SpecError, match="exactly one"):
            EvaluationSpec(sample_fraction=None, num_samples=None)

    def test_fraction_out_of_range(self):
        with pytest.raises(SpecError, match="sample_fraction"):
            EvaluationSpec(sample_fraction=1.5)

    def test_negative_epochs(self):
        with pytest.raises(SpecError, match="training.epochs"):
            TrainingSpec(epochs=-1)

    def test_bool_rejected_where_int_expected(self):
        with pytest.raises(SpecError, match="model.dim"):
            ModelSpec(dim=True)

    def test_dataset_name_override_rejected(self):
        with pytest.raises(SpecError, match="dataset.options"):
            DatasetSpec(options={"name": "other"})

    def test_dataset_unknown_option_field_fails_at_construction(self):
        with pytest.raises(SpecError, match="num_entities"):
            DatasetSpec(options={"num_entity": 50})

    def test_dataset_invalid_option_value_fails_at_construction(self):
        with pytest.raises(SpecError, match="dataset.options"):
            DatasetSpec(options={"num_types": 1})  # generator needs >= 2

    def test_bad_dtype(self):
        with pytest.raises(SpecError, match="float32"):
            ModelSpec(dtype="float16")

    def test_serve_port_range(self):
        with pytest.raises(SpecError, match="serve.port"):
            ServeSpec(port=70000)

    def test_removed_serve_max_wait_ms_is_an_unknown_key(self):
        # The scheduler dispatches when idle; the batching deadline is gone.
        with pytest.raises(SpecError, match="unknown key 'max_wait_ms'"):
            ExperimentSpec.from_dict({"serve": {"max_wait_ms": 2.0}})

    def test_removed_training_use_fused_is_an_unknown_key(self):
        # The model's class decides the training path; the knob is gone.
        with pytest.raises(SpecError, match="unknown key 'use_fused'"):
            ExperimentSpec.from_dict({"training": {"use_fused": False}})

    def test_invalid_json_text(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            ExperimentSpec.from_json("{nope")


class TestSpecKey:
    def test_key_is_order_and_default_insensitive(self):
        minimal = ExperimentSpec.from_dict({"model": {"name": "transe"}})
        spelled = ExperimentSpec.from_dict(
            {
                "model": {"dtype": "float64", "name": "transe", "dim": 32, "seed": 0},
                "task": "evaluate",
            }
        )
        assert spec_key(minimal) == spec_key(spelled)

    def test_any_field_changes_the_key(self):
        base = ExperimentSpec()
        assert spec_key(base) != spec_key(base.replace(task="train"))
        changed = ExperimentSpec.from_dict(
            apply_overrides(base.to_dict(), {"training.lr": 0.051})
        )
        assert spec_key(base) != spec_key(changed)

    def test_key_matches_method(self):
        spec = ExperimentSpec()
        assert spec.key() == spec_key(spec)


class TestOverrides:
    def test_parse_set_expression_types(self):
        assert parse_set_expression("training.lr=0.1") == ("training.lr", 0.1)
        assert parse_set_expression("model.name=transe") == ("model.name", "transe")
        assert parse_set_expression("evaluation.compare_random=false") == (
            "evaluation.compare_random",
            False,
        )
        assert parse_set_expression("evaluation.num_samples=null") == (
            "evaluation.num_samples",
            None,
        )

    def test_parse_set_expression_rejects_bare_key(self):
        with pytest.raises(SpecError, match="KEY=VALUE"):
            parse_set_expression("training.lr")

    def test_apply_overrides_is_pure(self):
        payload = {"training": {"lr": 0.05}}
        out = apply_overrides(payload, {"training.lr": 0.1, "model.dim": 16})
        assert payload == {"training": {"lr": 0.05}}
        assert out == {"training": {"lr": 0.1}, "model": {"dim": 16}}

    def test_apply_overrides_rejects_descent_into_scalar(self):
        with pytest.raises(SpecError, match="not a section"):
            apply_overrides({"training": {"lr": 0.05}}, {"training.lr.deep": 1})
