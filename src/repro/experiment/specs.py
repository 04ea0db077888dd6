"""Typed, declarative experiment specs (the front door's vocabulary).

An :class:`ExperimentSpec` names everything the orchestrator needs —
dataset, model, training recipe, evaluation protocol, serving knobs — as
frozen dataclasses that round-trip losslessly through ``to_dict`` /
``from_dict`` and JSON.  Validation happens at construction: unknown
keys, misspelled enum values and names missing from the model /
recommender / dataset registries all fail immediately with an error that
names the offending field path and suggests the closest valid spelling.

The canonical dict form is also the spec's *identity*: hashing it (see
:func:`spec_key`) gives the deterministic key under which the store
journals spec-driven runs and sweeps label their variants.
"""

from __future__ import annotations

import dataclasses
import difflib
import json
import os
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.datasets.zoo import available_datasets
from repro.engine.chunking import DEFAULT_CHUNK_SIZE
from repro.models import available_losses, available_models
from repro.models.base import DTYPES
from repro.models.optim import OPTIMIZERS
from repro.models.training import TrainingConfig
from repro.recommenders.registry import available_recommenders

#: What a spec asks the orchestrator to do.
TASKS = ("train", "evaluate", "serve")

#: Negative-pool strategies of the evaluation protocol.
STRATEGIES = ("random", "probabilistic", "static")

#: Splits an evaluation may rank.
SPLITS = ("valid", "test")

#: Model storage backends: in-memory arrays, or mmap shards on disk.
BACKENDS = ("memory", "mmap")


class SpecError(ValueError):
    """A spec failed validation; the message names the field path."""


def _suggest(value: str, choices) -> str:
    matches = difflib.get_close_matches(str(value), [str(c) for c in choices], n=1)
    return f" (did you mean {matches[0]!r}?)" if matches else ""


def _check_choice(path: str, value: Any, choices) -> None:
    if value not in tuple(choices):
        raise SpecError(
            f"{path}: unknown value {value!r}{_suggest(value, choices)}; "
            f"valid choices: {', '.join(str(c) for c in choices)}"
        )


def _check_type(path: str, value: Any, types: tuple[type, ...], label: str) -> None:
    # bool is an int subclass; reject it where a number is expected.
    if isinstance(value, bool) and bool not in types:
        raise SpecError(f"{path}: expected {label}, got {value!r}")
    if not isinstance(value, types):
        raise SpecError(f"{path}: expected {label}, got {value!r}")


def _reject_unknown_keys(path: str, payload: Mapping[str, Any], known) -> None:
    for key in payload:
        if key not in known:
            raise SpecError(
                f"{path}: unknown key {key!r}{_suggest(key, known)}; "
                f"valid keys: {', '.join(sorted(known))}"
            )


def _pick(payload: Mapping[str, Any], spec_cls, path: str) -> dict[str, Any]:
    """Validate ``payload``'s keys against a spec dataclass and copy them."""
    names = tuple(f.name for f in fields(spec_cls))
    _reject_unknown_keys(path, payload, names)
    return dict(payload)


# ----------------------------------------------------------------------
# Section specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DatasetSpec:
    """Which graph to run on.

    ``options`` overrides fields of the zoo entry's
    :class:`~repro.datasets.synthetic.SyntheticConfig` (e.g. a larger
    ``num_entities`` for a scaling sweep); the overridden dataset is a
    distinct graph with its own content fingerprint, so store artifacts
    never collide with the unmodified zoo entry.
    """

    name: str = "codex-s-lite"
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_choice("dataset.name", self.name, available_datasets())
        _check_type("dataset.options", self.options, (dict,), "a mapping")
        if "name" in self.options:
            raise SpecError(
                "dataset.options: 'name' cannot be overridden — the zoo "
                "name identifies the base configuration"
            )
        if self.options:
            # Resolve the overridden generator config now (cheap — no
            # graph is generated), so a typo'd field name or invalid
            # value fails at spec construction, not mid-run.
            from repro.datasets.zoo import resolve_config

            try:
                resolve_config(self.name, dict(self.options))
            except (KeyError, TypeError, ValueError) as error:
                message = error.args[0] if error.args else str(error)
                raise SpecError(f"dataset.options: {message}") from error

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DatasetSpec":
        return cls(**_pick(payload, cls, "dataset"))

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "options": dict(self.options)}


@dataclass(frozen=True)
class ModelSpec:
    """Which KGE model to build (a ``repro.models`` registry entry).

    ``options`` holds extra constructor kwargs of the specific model
    class (e.g. ConvE's reshape sizes); they are forwarded verbatim to
    :func:`repro.models.build_model`.

    ``backend`` selects the parameter storage for evaluation:
    ``"memory"`` (default) keeps the trained arrays in process;
    ``"mmap"`` round-trips them through ``.npy`` shards
    (:func:`repro.models.io.save_sharded` / ``open_mmap``) so the
    evaluation reads file pages instead of resident memory — scores are
    bit-identical either way (see ``docs/scale.md``).
    """

    name: str = "complex"
    dim: int = 32
    seed: int = 0
    dtype: str = "float64"
    backend: str = "memory"
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_choice("model.name", self.name, available_models())
        _check_choice("model.dtype", self.dtype, sorted(DTYPES))
        _check_choice("model.backend", self.backend, BACKENDS)
        _check_type("model.dim", self.dim, (int,), "a positive int")
        if self.dim <= 0:
            raise SpecError(f"model.dim: must be positive, got {self.dim}")
        _check_type("model.seed", self.seed, (int,), "an int")
        _check_type("model.options", self.options, (dict,), "a mapping")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ModelSpec":
        return cls(**_pick(payload, cls, "model"))

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "dim": self.dim,
            "seed": self.seed,
            "dtype": self.dtype,
            "backend": self.backend,
            "options": dict(self.options),
        }


@dataclass(frozen=True)
class TrainingSpec:
    """The training recipe (mirrors :class:`repro.models.TrainingConfig`).

    Defaults follow the CLI front door (8 epochs, softplus loss) rather
    than the library-internal ``TrainingConfig`` defaults, so a minimal
    spec and a bare ``repro evaluate`` train the same model.
    """

    epochs: int = 8
    batch_size: int = 512
    num_negatives: int = 8
    lr: float = 0.05
    loss: str = "softplus"
    margin: float = 1.0
    optimizer: str = "adam"
    weight_decay: float = 0.0
    filter_false_negatives: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        _check_choice("training.loss", self.loss, available_losses())
        _check_choice("training.optimizer", self.optimizer, OPTIMIZERS)
        _check_type("training.epochs", self.epochs, (int,), "a non-negative int")
        if self.epochs < 0:
            raise SpecError(f"training.epochs: must be >= 0, got {self.epochs}")
        for name in ("batch_size", "num_negatives"):
            value = getattr(self, name)
            _check_type(f"training.{name}", value, (int,), "a positive int")
            if value <= 0:
                raise SpecError(f"training.{name}: must be positive, got {value}")
        for name in ("lr", "margin", "weight_decay"):
            _check_type(f"training.{name}", getattr(self, name), (int, float), "a number")
        _check_type("training.seed", self.seed, (int,), "an int")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TrainingSpec":
        return cls(**_pick(payload, cls, "training"))

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_config(self) -> TrainingConfig:
        """The :class:`~repro.models.TrainingConfig` this spec describes."""
        return TrainingConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            num_negatives=self.num_negatives,
            lr=self.lr,
            loss=self.loss,
            margin=self.margin,
            optimizer=self.optimizer,
            weight_decay=self.weight_decay,
            filter_false_negatives=self.filter_false_negatives,
            seed=self.seed,
        )


@dataclass(frozen=True)
class EvaluationSpec:
    """The evaluation protocol: recommender, strategy, sample size, engine.

    ``resample_seed`` redraws the pools *after* preparation (repeated-
    sampling confidence intervals); the protocol threads it into its
    store cache key, so resampled artifacts never collide with the
    original draw's.  ``compare_random`` adds the uniform-random
    baseline estimate next to the guided one (the CLI's comparison
    table).
    """

    recommender: str = "l-wd"
    strategy: str = "static"
    sample_fraction: float | None = 0.1
    num_samples: int | None = None
    split: str = "test"
    seed: int = 0
    resample_seed: int | None = None
    include_observed: bool = True
    compare_random: bool = True
    workers: int = 1
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        _check_choice("evaluation.recommender", self.recommender, available_recommenders())
        _check_choice("evaluation.strategy", self.strategy, STRATEGIES)
        _check_choice("evaluation.split", self.split, SPLITS)
        if (self.sample_fraction is None) == (self.num_samples is None):
            raise SpecError(
                "evaluation: exactly one of 'sample_fraction' and "
                "'num_samples' must be set"
            )
        if self.sample_fraction is not None:
            _check_type(
                "evaluation.sample_fraction", self.sample_fraction, (int, float), "a number"
            )
            if not 0.0 < float(self.sample_fraction) <= 1.0:
                raise SpecError(
                    f"evaluation.sample_fraction: must be in (0, 1], "
                    f"got {self.sample_fraction}"
                )
        if self.num_samples is not None:
            _check_type("evaluation.num_samples", self.num_samples, (int,), "a positive int")
            if self.num_samples <= 0:
                raise SpecError(
                    f"evaluation.num_samples: must be positive, got {self.num_samples}"
                )
        _check_type("evaluation.seed", self.seed, (int,), "an int")
        if self.resample_seed is not None:
            _check_type("evaluation.resample_seed", self.resample_seed, (int,), "an int")
        _check_type("evaluation.workers", self.workers, (int,), "an int")
        _check_type("evaluation.chunk_size", self.chunk_size, (int,), "a positive int")
        if self.chunk_size <= 0:
            raise SpecError(
                f"evaluation.chunk_size: must be positive, got {self.chunk_size}"
            )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EvaluationSpec":
        picked = _pick(payload, cls, "evaluation")
        # A spec naming only num_samples means "by count, not by fraction".
        if "num_samples" in picked and picked.get("num_samples") is not None:
            picked.setdefault("sample_fraction", None)
        return cls(**picked)

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ServeSpec:
    """Online-serving knobs (used when the spec's task is ``"serve"``).

    ``model_paths`` lists checkpoints as ``[NAME=]PATH`` strings exactly
    like the CLI's repeatable ``--model-path``; with none given (and no
    discoverable checkpoints) the orchestrator trains an ad-hoc model
    from the spec's ``model`` + ``training`` sections.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_batch: int = 64
    cache_size: int = 1024
    engine_workers: int = 1
    recommender: str = "l-wd"
    model_paths: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_choice("serve.recommender", self.recommender, available_recommenders())
        _check_type("serve.port", self.port, (int,), "an int")
        if not 0 <= self.port <= 65535:
            raise SpecError(f"serve.port: must be in [0, 65535], got {self.port}")
        _check_type("serve.max_batch", self.max_batch, (int,), "a positive int")
        if self.max_batch <= 0:
            raise SpecError(f"serve.max_batch: must be positive, got {self.max_batch}")
        _check_type("serve.cache_size", self.cache_size, (int,), "a non-negative int")
        if self.cache_size < 0:
            raise SpecError(f"serve.cache_size: must be >= 0, got {self.cache_size}")
        _check_type(
            "serve.engine_workers", self.engine_workers, (int,), "a positive int"
        )
        if self.engine_workers < 1:
            raise SpecError(
                f"serve.engine_workers: must be >= 1, got {self.engine_workers}"
            )
        object.__setattr__(self, "model_paths", tuple(self.model_paths))
        for path in self.model_paths:
            _check_type("serve.model_paths[]", path, (str,), "a string")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ServeSpec":
        picked = _pick(payload, cls, "serve")
        if "model_paths" in picked:
            value = picked["model_paths"]
            if not isinstance(value, (list, tuple)):
                raise SpecError(
                    f"serve.model_paths: expected a list of '[NAME=]PATH' "
                    f"strings, got {value!r}"
                )
            picked["model_paths"] = tuple(value)
        return cls(**picked)

    def to_dict(self) -> dict[str, Any]:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["model_paths"] = list(self.model_paths)
        return payload


# ----------------------------------------------------------------------
# The top-level spec
# ----------------------------------------------------------------------
_SECTIONS = {
    "dataset": DatasetSpec,
    "model": ModelSpec,
    "training": TrainingSpec,
    "evaluation": EvaluationSpec,
    "serve": ServeSpec,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment: what to run, on what, and how.

    ``task`` selects the workflow: ``"train"`` fits the model (writing
    ``checkpoint`` if set), ``"evaluate"`` additionally runs the full /
    random / guided evaluation comparison, ``"serve"`` stands up the
    online service.  All sections always carry fully resolved defaults,
    so ``to_dict()`` *is* the resolved configuration (what ``repro run
    --dry-run`` prints) and hashing it gives the spec's identity.
    """

    name: str = ""
    task: str = "evaluate"
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    training: TrainingSpec = field(default_factory=TrainingSpec)
    evaluation: EvaluationSpec = field(default_factory=EvaluationSpec)
    serve: ServeSpec = field(default_factory=ServeSpec)
    checkpoint: str | None = None

    def __post_init__(self) -> None:
        _check_type("name", self.name, (str,), "a string")
        _check_choice("task", self.task, TASKS)
        for section, cls in _SECTIONS.items():
            value = getattr(self, section)
            if not isinstance(value, cls):
                raise SpecError(
                    f"{section}: expected a {cls.__name__} (or mapping), got {value!r}"
                )
        if self.checkpoint is not None:
            _check_type("checkpoint", self.checkpoint, (str,), "a path string")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        known = tuple(f.name for f in fields(cls))
        _reject_unknown_keys("spec", payload, known)
        kwargs: dict[str, Any] = {}
        for key, value in payload.items():
            if key in _SECTIONS:
                if isinstance(value, Mapping):
                    value = _SECTIONS[key].from_dict(value)
                elif not isinstance(value, _SECTIONS[key]):
                    raise SpecError(
                        f"{key}: expected a mapping of {key} fields, got {value!r}"
                    )
            kwargs[key] = value
        return cls(**kwargs)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "task": self.task,
            "dataset": self.dataset.to_dict(),
            "model": self.model.to_dict(),
            "training": self.training.to_dict(),
            "evaluation": self.evaluation.to_dict(),
            "serve": self.serve.to_dict(),
            "checkpoint": self.checkpoint,
        }

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"spec is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise SpecError(f"spec must be a JSON object, got {type(payload).__name__}")
        return cls.from_dict(payload)

    def key(self) -> str:
        """Deterministic identity of this spec (see :func:`spec_key`)."""
        return spec_key(self)

    def replace(self, **overrides: Any) -> "ExperimentSpec":
        """A copy with top-level fields replaced (sections stay typed)."""
        return dataclasses.replace(self, **overrides)


def spec_key(spec: ExperimentSpec) -> str:
    """Stable hex key of a spec's canonical dict form.

    Two specs that resolve to the same configuration — regardless of the
    JSON field order or which defaults were spelled out — share a key;
    any differing field produces a different key.  Sweeps label their
    variants with it and the store journals spec-driven runs under it.
    """
    from repro.store.keys import experiment_key

    return experiment_key(spec.to_dict())


# ----------------------------------------------------------------------
# Dotted overrides and spec files
# ----------------------------------------------------------------------
def parse_set_expression(expression: str) -> tuple[str, Any]:
    """Parse one ``--set key=value`` into ``(dotted_key, value)``.

    Values parse as JSON when possible (numbers, booleans, null, lists),
    falling back to the raw string, so ``--set training.lr=0.1`` and
    ``--set model.name=transe`` both do the obvious thing.
    """
    key, sep, raw = expression.partition("=")
    key = key.strip()
    if not sep or not key:
        raise SpecError(
            f"--set expects KEY=VALUE with a dotted key (e.g. "
            f"training.lr=0.1), got {expression!r}"
        )
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def apply_overrides(
    payload: dict[str, Any], overrides: Mapping[str, Any]
) -> dict[str, Any]:
    """Apply dotted-path overrides to a nested spec payload (pure).

    ``{"training.lr": 0.1}`` sets ``payload["training"]["lr"]``.
    Intermediate mappings are created as needed; validation of the final
    values happens when the payload goes through ``from_dict``.
    """
    result = json.loads(json.dumps(payload))  # deep copy, JSON-typed
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        target = result
        for part in parts[:-1]:
            existing = target.get(part)
            if existing is None:
                existing = target[part] = {}
            elif not isinstance(existing, dict):
                raise SpecError(
                    f"--set {dotted}: {part!r} is not a section, cannot "
                    f"descend into it"
                )
            target = existing
        target[parts[-1]] = value
    return result


def load_spec_file(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Read a spec JSON file into its raw payload dict.

    The payload may carry a top-level ``"sweep"`` section; callers apply
    any ``--set`` overrides first (so ``sweep.*`` is overridable too)
    and then strip it with :func:`split_sweep` before ``from_dict``.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise SpecError(f"spec file {os.fspath(path)!r} does not exist") from None
    except json.JSONDecodeError as error:
        raise SpecError(f"spec file {os.fspath(path)!r} is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise SpecError(
            f"spec file {os.fspath(path)!r} must hold a JSON object, "
            f"got {type(payload).__name__}"
        )
    return payload


def split_sweep(
    payload: Mapping[str, Any],
) -> tuple[dict[str, Any], dict[str, Any] | None]:
    """Split the optional ``"sweep"`` section off a spec payload (pure).

    The sweep object (``{"grid": {...}, "zip": {...}}``) parameterises
    *many* specs, so it is not part of any single
    :class:`ExperimentSpec`; returns ``(spec_payload, sweep_section)``.
    """
    spec_payload = dict(payload)
    sweep_section = spec_payload.pop("sweep", None)
    if sweep_section is not None and not isinstance(sweep_section, dict):
        raise SpecError('"sweep" must be an object like {"grid": {...}}')
    return spec_payload, sweep_section
