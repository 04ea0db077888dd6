"""The spec orchestrator: one ``run(spec)`` behind every workflow.

``run`` expands an :class:`~repro.experiment.ExperimentSpec` into the
same pipeline the CLI subcommands used to hand-wire — load the dataset,
build and train the model, prepare the evaluation protocol, rank through
the parallel engine, cache and journal through the store — and returns a
structured :class:`ExperimentResult`.  The ``train``/``evaluate`` CLI
subcommands are thin shims over it, so a hand-written spec run through
``repro run`` is *bit-identical* (same metrics, same store keys) to the
equivalent flag invocation.

Serving specs go through :func:`build_registry`, which shares the same
dataset/model/training resolution and returns the populated
:class:`~repro.serve.ModelRegistry`.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.protocol import EvaluationProtocol, PreparationReport
from repro.datasets.zoo import load as load_zoo_dataset
from repro.engine.engine import EvaluationResult
from repro.experiment.specs import DatasetSpec, ExperimentSpec, spec_key
from repro.models import Trainer, TrainingHistory, build_model, save_model
from repro.models.base import KGEModel
from repro.obs import get_tracer

if TYPE_CHECKING:
    from repro.serve.registry import ModelRegistry
    from repro.store.store import ExperimentStore

#: Receives one-line progress messages (the CLI passes ``print``).
Progress = Callable[[str], None]


@dataclass
class ExperimentResult:
    """Everything one spec run produced, in one structured object.

    Evaluation fields are ``None`` for ``task="train"`` runs;
    ``random_estimate`` is additionally ``None`` when the spec disabled
    the random baseline (``evaluation.compare_random = false``).
    """

    spec: ExperimentSpec
    key: str
    model: KGEModel
    history: TrainingHistory
    train_seconds: float
    triples_per_epoch: int
    preparation: PreparationReport | None = None
    truth: EvaluationResult | None = None
    random_estimate: EvaluationResult | None = None
    guided_estimate: EvaluationResult | None = None
    checkpoint_path: str | None = None
    run_id: str | None = None
    seconds: float = 0.0
    cache_hit: bool = False

    @property
    def losses(self) -> list[float]:
        return self.history.losses

    def metric_summary(self) -> dict[str, float]:
        """The journal-friendly metric summary of this run."""
        if self.truth is None:
            return {"loss": self.losses[-1]} if self.losses else {}
        summary = {
            "mrr": self.truth.metrics.mrr,
            "hits@10": self.truth.metrics.hits_at(10),
        }
        if self.guided_estimate is not None:
            summary["estimated_mrr"] = self.guided_estimate.metrics.mrr
        return summary

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (the spec, the key and every metric)."""

        def _eval(result) -> dict[str, Any] | None:
            if result is None:
                return None
            return {
                "mrr": result.metrics.mrr,
                "hits@10": result.metrics.hits_at(10),
                "seconds": result.seconds,
                "num_scored": result.num_scored,
            }

        return {
            "spec": self.spec.to_dict(),
            "key": self.key,
            "losses": self.losses,
            "train_seconds": self.train_seconds,
            "full": _eval(self.truth),
            "random": _eval(self.random_estimate),
            "guided": _eval(self.guided_estimate),
            "checkpoint": self.checkpoint_path,
            "run_id": self.run_id,
            "seconds": self.seconds,
            "cache_hit": self.cache_hit,
        }


def load_dataset(spec: DatasetSpec):
    """Materialise the spec's dataset (zoo entry + overrides)."""
    return load_zoo_dataset(spec.name, overrides=dict(spec.options) or None)


def _journal_config(spec: ExperimentSpec) -> dict[str, Any]:
    """The flat config summary journalled next to the full spec."""
    config: dict[str, Any] = {
        "task": spec.task,
        "dataset": spec.dataset.name,
        "model": spec.model.name,
        "epochs": spec.training.epochs,
        "dim": spec.model.dim,
        "lr": spec.training.lr,
        "loss": spec.training.loss,
        "seed": spec.model.seed,
        "dtype": spec.model.dtype,
    }
    if spec.task == "evaluate":
        evaluation = spec.evaluation
        config.update(
            {
                "recommender": evaluation.recommender,
                "strategy": evaluation.strategy,
                "fraction": evaluation.sample_fraction,
                "num_samples": evaluation.num_samples,
                "workers": evaluation.workers,
            }
        )
    return config


def _train(
    spec: ExperimentSpec, graph, say: Progress
) -> tuple[KGEModel, TrainingHistory, float, int]:
    model = build_model(
        spec.model.name,
        graph.num_entities,
        graph.num_relations,
        dim=spec.model.dim,
        seed=spec.model.seed,
        dtype=spec.model.dtype,
        **spec.model.options,
    )
    config = spec.training.to_config()
    say(
        f"Training {spec.model.name} ({spec.model.dtype}) on {graph.name} "
        f"for {config.epochs} epochs ..."
    )
    start = time.perf_counter()
    history = Trainer(config).fit(model, graph)
    train_seconds = time.perf_counter() - start
    if history.losses:
        say(f"loss: {history.losses[0]:.3f} -> {history.losses[-1]:.3f}")
    # Reciprocal-relation models (ConvE) train on inverse-augmented batches.
    triples_per_epoch = len(graph.train) * (
        2 if getattr(model, "inverse_offset", None) is not None else 1
    )
    return model, history, train_seconds, triples_per_epoch


def _to_mmap_backend(
    model: KGEModel,
    spec: ExperimentSpec,
    store: "ExperimentStore | None",
    say: Progress,
) -> KGEModel:
    """Round-trip a trained model through ``.npy`` shards and reattach.

    With a store the shards live under ``<root>/mmap/<spec key>`` (stable
    across runs, so a re-run re-saves in place); without one they go to a
    fresh temp directory.  The returned model scores bit-identically to
    the in-memory original — only the page residency changes.
    """
    from repro.models.io import open_mmap, save_sharded

    if store is not None:
        directory = store.root / "mmap" / spec_key(spec)
    else:
        directory = tempfile.mkdtemp(prefix="repro-mmap-")
    source = save_sharded(model, directory)
    say(f"Sharded {model.name} to {source.directory} ({source.nbytes} bytes)")
    return open_mmap(source.directory)


def run(
    spec: ExperimentSpec,
    store: "ExperimentStore | None" = None,
    kind: str = "experiment:run",
    progress: Progress | None = None,
) -> ExperimentResult:
    """Execute one ``train`` or ``evaluate`` spec end to end.

    With a ``store``, evaluation artifacts (preparation, pools, ground
    truths) flow through the artifact cache and the run is journalled —
    including the originating spec, so ``repro runs show`` can replay
    it.  ``kind`` labels the journal entry (the CLI shims pass their
    command name); ``progress`` receives one-line status messages.
    """
    if spec.task == "serve":
        raise ValueError(
            "serve specs stand up a service, not an ExperimentResult; "
            "use repro.experiment.build_registry (or `repro serve` / "
            "`repro run` on the CLI)"
        )
    say: Progress = progress or (lambda message: None)
    tracer = get_tracer()
    if tracer.enabled:
        # Each journaled run carries only its own trace (sweep variants
        # that share the process each start from a clean tree).
        tracer.reset()
    wall_start = time.perf_counter()
    with tracer.span("experiment.task"):
        with tracer.span("dataset.load"):
            dataset = load_dataset(spec.dataset)
            graph = dataset.graph
        model, history, train_seconds, triples_per_epoch = _train(spec, graph, say)

        checkpoint_path: str | None = None
        if spec.checkpoint:
            save_model(model, spec.checkpoint)
            checkpoint_path = spec.checkpoint
            say(f"Saved checkpoint to {spec.checkpoint}")

        if spec.model.backend == "mmap":
            with tracer.span("model.shard"):
                model = _to_mmap_backend(model, spec, store, say)

        preparation = truth = random_estimate = guided_estimate = None
        if spec.task == "evaluate":
            evaluation = spec.evaluation
            guided = EvaluationProtocol(
                graph,
                recommender=evaluation.recommender,
                strategy=evaluation.strategy,
                num_samples=evaluation.num_samples,
                sample_fraction=evaluation.sample_fraction,
                types=dataset.types,
                include_observed=evaluation.include_observed,
                seed=evaluation.seed,
                store=store,
                workers=evaluation.workers,
                chunk_size=evaluation.chunk_size,
            )
            with tracer.span("evaluate.prepare"):
                preparation = guided.prepare()
                if evaluation.resample_seed is not None:
                    guided.resample(evaluation.resample_seed)
                    preparation = guided.preparation
            with tracer.span("evaluate.full"):
                truth = guided.evaluate_full(model, split=evaluation.split)
            if evaluation.compare_random:
                random_protocol = EvaluationProtocol(
                    graph,
                    strategy="random",
                    num_samples=evaluation.num_samples,
                    sample_fraction=evaluation.sample_fraction,
                    seed=evaluation.seed,
                    store=store,
                    workers=evaluation.workers,
                    chunk_size=evaluation.chunk_size,
                )
                if evaluation.resample_seed is not None:
                    random_protocol.resample(evaluation.resample_seed)
                with tracer.span("evaluate.random"):
                    random_estimate = random_protocol.evaluate(
                        model, split=evaluation.split
                    )
            with tracer.span("evaluate.guided"):
                guided_estimate = guided.evaluate(model, split=evaluation.split)

    result = ExperimentResult(
        spec=spec,
        key=spec_key(spec),
        model=model,
        history=history,
        train_seconds=train_seconds,
        triples_per_epoch=triples_per_epoch,
        preparation=preparation,
        truth=truth,
        random_estimate=random_estimate,
        guided_estimate=guided_estimate,
        checkpoint_path=checkpoint_path,
        cache_hit=preparation is not None and preparation.from_cache,
        seconds=time.perf_counter() - wall_start,
    )
    if store is not None:
        record = store.journal.append(
            kind,
            config=_journal_config(spec),
            seconds=result.seconds,
            metrics=result.metric_summary(),
            cache_hit=result.cache_hit,
            spec=spec.to_dict(),
            obs=tracer.summary() if tracer.enabled else None,
        )
        result.run_id = record.run_id
    return result


def build_registry(
    spec: ExperimentSpec,
    store: "ExperimentStore",
    progress: Progress | None = None,
) -> tuple["ModelRegistry", list[str]]:
    """Resolve a ``serve`` spec into a populated model registry.

    Registers every ``serve.model_paths`` checkpoint, discovers named
    checkpoints under the store's ``serve/`` directory, and — when both
    leave the registry empty — trains an ad-hoc model from the spec's
    ``model`` + ``training`` sections (persisting it for the next
    process).  Returns ``(registry, discovered_names)``.
    """
    from repro.serve.registry import ModelRegistry, parse_model_path

    say: Progress = progress or (lambda message: None)
    dataset = load_dataset(spec.dataset)
    registry = ModelRegistry(
        store,
        dataset.graph,
        types=dataset.types,
        recommender=spec.serve.recommender,
    )
    for item in spec.serve.model_paths:
        name, path = parse_model_path(item)
        registry.register_path(path, name=name)
    discovered = registry.discover()
    if not len(registry):
        say(
            f"Training an ad-hoc {spec.model.name} (no model paths given, "
            f"none under {registry.checkpoint_dir}) ..."
        )
        model, _, _, _ = _train(spec, dataset.graph, lambda message: None)
        registry.register(spec.model.name, model)
    return registry, discovered
