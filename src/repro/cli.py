"""Command-line interface: the framework without writing Python.

``repro <command>`` exposes the workflows a downstream user reaches for
first:

* ``run``             — execute a declarative experiment spec (JSON):
  one file naming dataset, model, training recipe and evaluation
  protocol, with ``--set key=value`` dotted overrides, ``--dry-run``
  printing the fully resolved spec, and an optional ``"sweep"`` section
  expanding grid/zip variants;
* ``datasets``        — list the zoo with Table 4 statistics;
* ``generate``        — export a zoo dataset (triples + types) as TSV;
* ``recommenders``    — CR/RR/runtime comparison on one dataset (Table 5);
* ``easy-negatives``  — zero-score mining + false-negative audit (Tables 2/10);
* ``complexity``      — sampling-cost accounting (Table 3);
* ``train``           — train a model and write its checkpoint;
* ``evaluate``        — train a model, then compare the full ranking
  against the random and guided estimates (the quickstart as one command);
* ``serve``           — online link-prediction HTTP API over saved
  checkpoints, with micro-batching and candidate-filtered top-k;
* ``runs``            — list/show the experiment store's run journal
  (spec-driven runs print their originating spec JSON);
* ``cache``           — list or garbage-collect the artifact cache;
* ``trace``           — render the span trace a ``--trace`` run journaled
  (``show``), or export its timeline as Chrome ``trace_event`` JSON
  (``export --format chrome``, loadable in ``chrome://tracing``);
* ``top``             — live terminal dashboard over a serve instance's
  ``/metrics`` (qps, latency quantiles, batch occupancy, cache hit rate,
  pool worker utilisation, shm bytes), ``--once`` for scripting;
* ``bench``           — trend view over committed ``BENCH_*.json`` records
  and the perf-regression gate CI runs against them;
* ``ingest``          — stream TSV / N-Triples split files into a compact
  int32 triple store without materialising the raw files;
* ``lint``            — project-specific static analysis (seeded-RNG
  discipline, shm unlink pairing, lock discipline, worker import
  layering, hot-path determinism, metric/doc parity — docs/analysis.md),
  with ``--select``/``--ignore``, ``# repro: noqa[RULE]`` suppressions
  and a committed baseline that CI requires to stay empty;
* ``shard``           — convert a saved checkpoint into a directory of
  ``.npy`` mmap shards that ``repro.models.io.open_mmap`` opens for
  out-of-core evaluation (docs/scale.md).

``train``, ``evaluate`` and ``serve`` are thin shims: each builds an
:class:`repro.experiment.ExperimentSpec` from its flags and hands it to
the same orchestrator behind ``repro run``, so a flag invocation and the
equivalent spec produce identical results and identical store keys.

Every command prints the same fixed-width tables the benchmark suite
writes, so CLI output and ``benchmarks/results/`` are directly comparable.

Store-aware commands resolve their root as ``--store`` > ``$REPRO_STORE``
> ``.repro_store``; with a store, repeated runs are served from the
artifact cache and journalled.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.experiments import (
    evaluation_comparison_rows,
    table2_easy_negatives,
    table4_dataset_statistics,
    table5_recommenders,
    table10_false_negative_audit,
)
from repro.bench.tables import render_table
from repro.core.complexity import sampling_complexity
from repro.engine.chunking import DEFAULT_CHUNK_SIZE
from repro.datasets.zoo import available_datasets, load
from repro.experiment import (
    DatasetSpec,
    EvaluationSpec,
    ExperimentResult,
    ExperimentSpec,
    ModelSpec,
    ServeSpec,
    SpecError,
    TrainingSpec,
    apply_overrides,
    build_registry,
    load_spec_file,
    parse_set_expression,
    split_sweep,
    sweep,
)
from repro.experiment import run as run_experiment
from repro.kg.io import save_graph_dir, write_types
from repro.models import available_models
from repro.obs import get_tracer, set_tracing
from repro.obs.trace import render_trace
from repro.recommenders.registry import available_recommenders
from repro.store import (
    ExperimentStore,
    render_cache,
    render_run_detail,
    render_runs,
)
from repro.store.report import FORMATS


# ----------------------------------------------------------------------
# Shared argument wiring
# ----------------------------------------------------------------------
def _add_dataset_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        default="codex-s-lite",
        choices=available_datasets(),
        help="zoo dataset name",
    )


def _add_format_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        default="table",
        choices=FORMATS,
        help="output format",
    )


def _store_parent() -> argparse.ArgumentParser:
    """Shared ``--store`` flag (optional value: env/default root)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--store",
        nargs="?",
        const="",
        default=None,
        help="experiment store root; without a value: $REPRO_STORE or "
        ".repro_store",
    )
    return parent


def _seed_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=0, help="model/pool seed")
    return parent


def _engine_parent() -> argparse.ArgumentParser:
    """Shared parallel-engine knobs."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers",
        type=int,
        default=1,
        help="scoring processes for the ranking passes "
        "(1 = serial, -1 = all cores; results are identical at any count)",
    )
    parent.add_argument(
        "--chunk-size",
        type=int,
        default=DEFAULT_CHUNK_SIZE,
        help="queries ranked per score-matrix chunk",
    )
    return parent


def _trace_parent() -> argparse.ArgumentParser:
    """Shared ``--trace`` opt-in for run/train/evaluate."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace",
        action="store_true",
        help="record a span trace (printed after the run; journaled with "
        "--store, then `repro trace show RUN` renders it back)",
    )
    return parent


def _start_tracing(args: argparse.Namespace) -> bool:
    """Enable the global tracer when the command asked for ``--trace``."""
    if getattr(args, "trace", False):
        set_tracing(True)
        return True
    return False


def _print_trace() -> None:
    summary = get_tracer().summary()
    if summary is not None:
        print()
        print(render_trace(summary, title="Span trace"))


def _dtype_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--dtype",
        default="float64",
        choices=("float32", "float64"),
        help="embedding parameter dtype (float32 halves memory)",
    )
    return parent


def _add_training_arguments(parser: argparse.ArgumentParser) -> None:
    """Knobs shared by ``train`` and ``evaluate``."""
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--lr", type=float, default=0.05)
    parser.add_argument("--loss", default="softplus")


def _required_store(args: argparse.Namespace) -> ExperimentStore:
    """The store for commands that always need one (serve/runs/cache)."""
    return ExperimentStore.from_env(args.store or None)


def _optional_store(args: argparse.Namespace) -> ExperimentStore | None:
    """The store for commands where ``--store`` opts in (run/train/evaluate)."""
    if args.store is None:
        return None
    return ExperimentStore.from_env(args.store or None)


# ----------------------------------------------------------------------
# Table / analysis commands
# ----------------------------------------------------------------------
def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = table4_dataset_statistics()
    print(render_table(rows, title="Zoo datasets (Table 4 statistics)"))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = load(args.dataset)
    out = Path(args.out)
    save_graph_dir(dataset.graph, out)
    write_types(out / "types.tsv", dataset.types, dataset.graph.entities)
    print(
        f"Wrote {dataset.graph.name}: train/valid/test.tsv + types.tsv under {out}"
    )
    return 0


def _cmd_recommenders(args: argparse.Namespace) -> int:
    names = tuple(args.recommenders) if args.recommenders else None
    rows = table5_recommenders((args.dataset,), names)
    print(render_table(rows, title=f"Recommenders on {args.dataset} (Table 5)"))
    return 0


def _cmd_easy_negatives(args: argparse.Namespace) -> int:
    rows, reports = table2_easy_negatives((args.dataset,))
    print(render_table(rows, title=f"Easy negatives on {args.dataset} (Table 2)"))
    audit = table10_false_negative_audit(reports)
    print()
    print(render_table(audit, title="False easy negatives (Table 10 audit)"))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.kg.analysis import (
        connectivity_summary,
        relation_profiles,
        unseen_candidate_exposure,
    )

    dataset = load(args.dataset)
    graph = dataset.graph
    profiles = relation_profiles(graph)
    print(
        render_table(
            [p.as_row() for p in profiles],
            title=f"Relation cardinality profiles of {graph.name}",
        )
    )
    counts: dict[str, int] = {}
    for profile in profiles:
        counts[profile.cardinality.value] = counts.get(profile.cardinality.value, 0) + 1
    print(
        "\nCardinality classes: "
        + ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    )
    exposure = unseen_candidate_exposure(graph)
    print(
        f"Unseen test answers (the mass PT cannot recall): "
        f"heads {exposure['head']:.1%}, tails {exposure['tail']:.1%}"
    )
    print()
    print(
        render_table(
            [connectivity_summary(graph).as_row()],
            title="Connectivity of the training graph",
        )
    )
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    row = sampling_complexity(load(args.dataset).graph, args.fraction).as_row()
    print(
        render_table(
            [row], title=f"Sampling complexity at {args.fraction:.1%} (Table 3)"
        )
    )
    return 0


# ----------------------------------------------------------------------
# Spec-building shims: train / evaluate / serve
# ----------------------------------------------------------------------
def _spec_from_training_args(
    args: argparse.Namespace, task: str, checkpoint: str | None
) -> ExperimentSpec:
    """The spec equivalent of ``train``/``evaluate`` flags (the shim core)."""
    model = ModelSpec(
        name=args.model,
        dim=args.dim,
        seed=args.seed,
        dtype=args.dtype,
        backend=getattr(args, "backend", ModelSpec.backend),
    )
    training = TrainingSpec(
        epochs=args.epochs,
        batch_size=getattr(args, "batch_size", TrainingSpec.batch_size),
        lr=args.lr,
        loss=args.loss,
        optimizer=getattr(args, "optimizer", TrainingSpec.optimizer),
        seed=args.seed,
    )
    evaluation = EvaluationSpec(
        recommender=getattr(args, "recommender", EvaluationSpec.recommender),
        strategy=getattr(args, "strategy", EvaluationSpec.strategy),
        sample_fraction=getattr(args, "fraction", EvaluationSpec.sample_fraction),
        seed=args.seed,
        workers=getattr(args, "workers", 1),
        chunk_size=getattr(args, "chunk_size", DEFAULT_CHUNK_SIZE),
    )
    return ExperimentSpec(
        task=task,
        dataset=DatasetSpec(name=args.dataset),
        model=model,
        training=training,
        evaluation=evaluation,
        checkpoint=checkpoint,
    )


def _print_train_summary(result: ExperimentResult, epochs: int) -> None:
    seconds = result.train_seconds
    triples = result.triples_per_epoch * epochs
    if triples:
        print(f"{seconds:.2f} s ({triples / max(seconds, 1e-9):,.0f} triples/s)")
    else:
        print(f"{seconds:.2f} s (0 epochs: nothing trained)")


def _print_evaluation_summary(
    result: ExperimentResult, store: ExperimentStore | None
) -> None:
    print()
    print(render_table(evaluation_comparison_rows(result), title="Evaluation comparison"))
    assert result.truth is not None and result.guided_estimate is not None
    guided_error = abs(result.guided_estimate.metrics.mrr - result.truth.metrics.mrr)
    if result.random_estimate is not None:
        random_error = abs(result.random_estimate.metrics.mrr - result.truth.metrics.mrr)
        print(f"\nMRR error: random={random_error:.3f}, guided={guided_error:.3f}")
    else:
        print(f"\nMRR error: guided={guided_error:.3f}")
    if store is not None and result.run_id is not None:
        print(f"Journaled run {result.run_id} in {store.root}")


def _cmd_train(args: argparse.Namespace) -> int:
    spec = _spec_from_training_args(args, task="train", checkpoint=args.out)
    traced = _start_tracing(args)
    result = run_experiment(
        spec, store=_optional_store(args), kind="cli:train", progress=print
    )
    _print_train_summary(result, spec.training.epochs)
    if traced:
        _print_trace()
    print(f"Serve the checkpoint with `repro serve --model-path {args.out}`")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    spec = _spec_from_training_args(
        args, task="evaluate", checkpoint=args.save_model or None
    )
    store = _optional_store(args)
    traced = _start_tracing(args)
    result = run_experiment(spec, store=store, kind="cli:evaluate", progress=print)
    _print_evaluation_summary(result, store)
    if traced:
        _print_trace()
    return 0


def _serve_from_spec(
    spec: ExperimentSpec, store: ExperimentStore, dry_run: bool
) -> int:
    """Stand up (or dry-run) the serving stack behind a ``serve`` spec."""
    from repro.serve import LinkPredictionService, run_server

    registry, discovered = build_registry(spec, store, progress=print)
    if discovered:
        print(
            f"Discovered checkpoints in {registry.checkpoint_dir}: "
            f"{', '.join(discovered)}"
        )
    rows = [
        {
            "Name": row["name"],
            "Model": row["model"],
            "Dim": row["dim"],
            "Params": row["parameters"],
            "Recommender": row["recommender"],
            "Checkpoint": row["checkpoint"] or "(in-memory)",
        }
        for row in registry.rows()
    ]
    print(
        render_table(
            rows, title=f"Serving {registry.graph.name} ({len(registry)} models)"
        )
    )
    if dry_run:
        print("Dry run: not binding the port.")
        return 0
    serve = spec.serve
    service = LinkPredictionService(
        registry,
        max_batch_size=serve.max_batch,
        cache_size=serve.cache_size,
        engine_workers=serve.engine_workers,
    )
    print(
        f"Serving on http://{serve.host}:{serve.port} "
        f"(max batch {serve.max_batch}) — Ctrl-C stops."
    )
    run_server(service, host=serve.host, port=serve.port)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        task="serve",
        dataset=DatasetSpec(name=args.dataset),
        model=ModelSpec(name=args.model, dim=args.dim, seed=args.seed),
        # loss="margin": the ad-hoc fallback has always trained with the
        # TrainingConfig default, not the spec/CLI default of softplus —
        # keep the served model identical across the spec migration.
        training=TrainingSpec(epochs=args.epochs, seed=args.seed, loss="margin"),
        serve=ServeSpec(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            cache_size=args.cache_size,
            engine_workers=args.engine_workers,
            recommender=args.recommender,
            model_paths=tuple(args.model_path or ()),
        ),
    )
    return _serve_from_spec(spec, _required_store(args), dry_run=args.dry_run)


# ----------------------------------------------------------------------
# repro run — the declarative front door
# ----------------------------------------------------------------------
def _sweep_variants(spec: ExperimentSpec, sweep_section: dict | None):
    if not sweep_section:
        return None
    unknown = sorted(set(sweep_section) - {"grid", "zip"})
    if unknown:
        raise SpecError(
            f"sweep: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"valid keys: grid, zip"
        )
    return sweep(
        spec, grid=sweep_section.get("grid"), zip_=sweep_section.get("zip")
    )


def _run_sweep(variants, store: ExperimentStore | None) -> int:
    rows = []
    for index, variant in enumerate(variants):
        print(f"[{index + 1}/{len(variants)}] {variant.label}  ({variant.key[:12]})")
        result = run_experiment(
            variant.spec, store=store, kind="cli:run", progress=print
        )
        row: dict = {
            "Variant": variant.label,
            "Key": variant.key[:12],
        }
        if result.truth is not None:
            row["MRR"] = result.truth.metrics.mrr
            row["Hits@10"] = result.truth.metrics.hits_at(10)
        if result.guided_estimate is not None:
            row["Est MRR"] = result.guided_estimate.metrics.mrr
        if result.truth is None and result.losses:
            row["Loss"] = round(result.losses[-1], 4)
        row["Seconds"] = round(result.seconds, 2)
        row["Cache"] = "hit" if result.cache_hit else "miss"
        rows.append(row)
        print()
    print(render_table(rows, title=f"Sweep summary ({len(rows)} variants)"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        payload = load_spec_file(args.spec)
        overrides = dict(parse_set_expression(item) for item in args.overrides)
        if overrides:
            # Before the sweep split, so `--set sweep.grid=...` works too.
            payload = apply_overrides(payload, overrides)
        payload, sweep_section = split_sweep(payload)
        spec = ExperimentSpec.from_dict(payload)
        variants = _sweep_variants(spec, sweep_section)
        if variants and spec.task == "serve":
            raise SpecError("sweep: serve specs cannot be swept")
    except SpecError as error:
        print(f"spec error: {error}", file=sys.stderr)
        return 2
    if args.dry_run:
        print(spec.to_json())
        if variants:
            rows = [{"Variant": v.label, "Key": v.key} for v in variants]
            print()
            print(render_table(rows, title=f"Sweep: {len(variants)} variants"))
        else:
            print(f"\nSpec key: {spec.key()}")
        print("Dry run: nothing executed.")
        return 0
    if spec.task == "serve":
        return _serve_from_spec(spec, _required_store(args), dry_run=False)
    store = _optional_store(args)
    traced = _start_tracing(args)
    if variants:
        return _run_sweep(variants, store)
    result = run_experiment(spec, store=store, kind="cli:run", progress=print)
    if spec.task == "evaluate":
        _print_evaluation_summary(result, store)
    else:
        _print_train_summary(result, spec.training.epochs)
        if store is not None and result.run_id is not None:
            print(f"Journaled run {result.run_id} in {store.root}")
    if traced:
        _print_trace()
    return 0


# ----------------------------------------------------------------------
# Out-of-core commands: ingest / shard
# ----------------------------------------------------------------------
def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.datasets.ingest import IngestError, ingest_directory

    try:
        result = ingest_directory(
            args.input_dir, args.out, fmt=args.format, name=args.name
        )
    except IngestError as error:
        print(f"ingest error: {error}", file=sys.stderr)
        return 2
    rows = []
    for split, count in result.splits.items():
        stats = result.stats.get(split, {})
        rows.append(
            {
                "Split": split,
                "Triples": count,
                "Duplicates": stats.get("duplicates", 0),
                "Unseen entities": (
                    "-"
                    if split == "train"
                    else stats.get("unseen_in_train_entities", 0)
                ),
            }
        )
    print(
        render_table(
            rows,
            title=f"Ingested {result.name}: {result.num_entities:,} entities, "
            f"{result.num_relations:,} relations",
        )
    )
    print(f"Compact store written to {result.directory}")
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.models import load_model
    from repro.models.io import save_sharded

    model = load_model(args.checkpoint)
    source = save_sharded(model, args.out)
    print(
        f"Sharded {model.name} ({model.num_entities:,} entities, dim {model.dim}) "
        f"to {source.directory}: {source.nbytes:,} bytes, digest {source.digest[:16]}"
    )
    print(
        f"Open it out of core with `repro.models.io.open_mmap({source.directory!r})` "
        "and pass the model to evaluate_full / evaluate_sampled."
    )
    return 0


# ----------------------------------------------------------------------
# Store commands
# ----------------------------------------------------------------------
def _cmd_runs(args: argparse.Namespace) -> int:
    store = _required_store(args)
    if args.runs_command == "list":
        print(render_runs(store.journal, fmt=args.format, limit=args.limit))
        return 0
    record = store.journal.get(args.run_id)
    if record is None:
        print(f"no run matching {args.run_id!r} in {store.journal.path}")
        return 1
    print(render_run_detail(record))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    store = _required_store(args)
    record = store.journal.get(args.run_id)
    if record is None:
        print(f"no run matching {args.run_id!r} in {store.journal.path}")
        return 1
    if record.obs is None:
        print(
            f"run {record.run_id} carries no trace — re-run it with --trace "
            f"to record one"
        )
        return 1
    if args.trace_command == "export":
        import json as json_module

        from repro.obs.trace import chrome_trace

        events = record.obs.get("events", [])
        if not events:
            print(
                f"run {record.run_id} has no timeline events — traces recorded "
                f"before timeline support carry only the aggregate span tree"
            )
            return 1
        payload = chrome_trace(
            events, metadata={"run_id": record.run_id, "kind": record.kind}
        )
        text = json_module.dumps(payload, indent=2)
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
            print(
                f"wrote {len(events)} events to {args.out} "
                f"(open in chrome://tracing or Perfetto)"
            )
        else:
            print(text)
        return 0
    print(
        render_trace(
            record.obs, title=f"Span trace of run {record.run_id} ({record.kind})"
        )
    )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import run_top

    return run_top(source=args.url, interval=args.interval, once=args.once)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.bench import gate_records, load_bench_records, trend_rows
    from repro.store.report import render_rows

    if args.bench_command == "trend":
        records = load_bench_records(args.results)
        if not records:
            print(f"no BENCH_*.json records under {args.results}", file=sys.stderr)
            return 1
        title = f"Bench trend ({len(records)} records) — {args.results}"
        print(
            render_rows(
                trend_rows(records),
                fmt=args.format,
                title=title if args.format == "table" else None,
            )
        )
        return 0
    try:
        rows, regressions = gate_records(
            args.baseline,
            args.candidate,
            max_regression=args.max_regression,
            absolute=args.absolute,
        )
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    title = f"Bench gate: {args.candidate} vs baseline {args.baseline}"
    print(
        render_rows(
            rows, fmt=args.format, title=title if args.format == "table" else None
        )
    )
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} metric(s) regressed more than "
            f"{args.max_regression:.0%}: {', '.join(regressions)}"
        )
        return 1
    print(f"\nOK: no metric regressed more than {args.max_regression:.0%}.")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    store = _required_store(args)
    if args.cache_command == "ls":
        print(render_cache(store.artifacts, fmt=args.format))
        return 0
    report = store.gc()
    print(
        f"Removed {report.num_removed} orphaned files "
        f"({report.freed_bytes / 1024:.1f} KB) from {store.artifacts.root}"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        UnknownRuleError,
        load_baseline,
        run_analysis,
        split_by_baseline,
        write_baseline,
    )
    from repro.analysis.baseline import BaselineError
    from repro.analysis.report import render_json, render_rule_catalog, render_table

    if args.list_rules:
        print(render_rule_catalog())
        return 0
    root = Path(args.root).resolve()
    paths = [Path(p) for p in args.paths or ["src"]]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    try:
        report = run_analysis(paths, root, select=select, ignore=ignore)
    except UnknownRuleError as error:
        print(f"lint: {error}", file=sys.stderr)
        return 2
    baseline_path = Path(args.baseline)
    if args.write_baseline:
        write_baseline(baseline_path, report.violations)
        print(
            f"wrote {len(report.violations)} violation(s) to {baseline_path}"
        )
        return 0
    try:
        baseline = load_baseline(baseline_path)
    except BaselineError as error:
        print(f"lint: {error}", file=sys.stderr)
        return 2
    if args.strict and baseline:
        print(
            f"lint: --strict requires an empty baseline, but "
            f"{baseline_path} grandfathers {len(baseline)} violation(s)",
            file=sys.stderr,
        )
        return 1
    new, baselined = split_by_baseline(report.violations, baseline)
    if args.format == "json":
        report.violations = new
        print(render_json(report, baselined=len(baselined)))
    else:
        print(
            render_table(
                new,
                files_checked=report.files_checked,
                suppressed=report.suppressed,
                baselined=len(baselined),
            )
        )
    return 1 if new else 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast, accurate evaluation of knowledge graph link predictors.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    store_parent = _store_parent()
    seed_parent = _seed_parent()
    engine_parent = _engine_parent()
    dtype_parent = _dtype_parent()
    trace_parent = _trace_parent()

    run_parser = commands.add_parser(
        "run",
        parents=[store_parent, trace_parent],
        help="execute a declarative experiment spec (JSON)",
    )
    run_parser.add_argument("spec", metavar="SPEC.json", help="experiment spec file")
    run_parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted override (repeatable), e.g. --set training.lr=0.1",
    )
    run_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the fully resolved spec (and sweep variants) without running",
    )

    commands.add_parser("datasets", help="list zoo datasets with statistics")

    generate = commands.add_parser("generate", help="export a dataset as TSV")
    _add_dataset_argument(generate)
    generate.add_argument("--out", required=True, help="output directory")

    recommenders = commands.add_parser(
        "recommenders", help="compare relation recommenders (Table 5)"
    )
    _add_dataset_argument(recommenders)
    recommenders.add_argument(
        "--recommenders",
        nargs="+",
        choices=available_recommenders(),
        help="subset to compare (default: all)",
    )

    easy = commands.add_parser(
        "easy-negatives", help="mine easy negatives + audit (Tables 2/10)"
    )
    _add_dataset_argument(easy)

    complexity = commands.add_parser(
        "complexity", help="sampling-cost accounting (Table 3)"
    )
    _add_dataset_argument(complexity)
    complexity.add_argument("--fraction", type=float, default=0.025)

    analyze = commands.add_parser(
        "analyze", help="relation cardinalities + connectivity of a dataset"
    )
    _add_dataset_argument(analyze)

    train = commands.add_parser(
        "train",
        parents=[seed_parent, dtype_parent, store_parent, trace_parent],
        help="train a model and save its checkpoint",
    )
    _add_dataset_argument(train)
    train.add_argument("--model", default="complex", choices=available_models())
    _add_training_arguments(train)
    train.add_argument("--batch-size", type=int, default=512)
    train.add_argument(
        "--optimizer", default="adam", choices=("adagrad", "adam", "sgd")
    )
    train.add_argument(
        "--out", required=True, metavar="PATH", help="checkpoint .npz path to write"
    )

    evaluate = commands.add_parser(
        "evaluate",
        parents=[seed_parent, dtype_parent, engine_parent, store_parent, trace_parent],
        help="train a model and compare evaluation protocols",
    )
    _add_dataset_argument(evaluate)
    evaluate.add_argument("--model", default="complex", choices=available_models())
    _add_training_arguments(evaluate)
    evaluate.add_argument(
        "--recommender", default="l-wd", choices=available_recommenders()
    )
    evaluate.add_argument(
        "--strategy", default="static", choices=("random", "probabilistic", "static")
    )
    evaluate.add_argument("--fraction", type=float, default=0.1)
    evaluate.add_argument(
        "--backend",
        default="memory",
        choices=("memory", "mmap"),
        help="parameter storage for the ranking passes: in-memory arrays, "
        "or a .npy mmap round-trip (out-of-core; bit-identical metrics)",
    )
    evaluate.add_argument(
        "--save-model",
        "--save",  # original spelling, kept as an alias
        dest="save_model",
        metavar="PATH",
        help="write the trained checkpoint to this .npz path "
        "(serve it with `repro serve --model-path PATH`)",
    )

    serve = commands.add_parser(
        "serve",
        parents=[seed_parent, store_parent],
        help="serve link prediction over HTTP (micro-batched)",
    )
    _add_dataset_argument(serve)
    serve.add_argument(
        "--model-path",
        action="append",
        metavar="[NAME=]PATH",
        help="checkpoint to serve (repeatable; bare paths are named by "
        "file stem); e.g. the output of `repro evaluate --save-model`",
    )
    serve.add_argument(
        "--model",
        default="distmult",
        choices=available_models(),
        help="model trained ad hoc when no checkpoint is given",
    )
    serve.add_argument("--epochs", type=int, default=4, help="ad-hoc training epochs")
    serve.add_argument("--dim", type=int, default=32, help="ad-hoc embedding dim")
    serve.add_argument(
        "--recommender",
        default="l-wd",
        choices=available_recommenders(),
        help="candidate-set recommender for filtered ranking",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="most concurrent requests coalesced into one scoring call",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="LRU top-k result cache entries (0 disables)",
    )
    serve.add_argument(
        "--engine-workers",
        type=int,
        default=1,
        help="persistent pool workers for /v1/evaluate (1 = in-process)",
    )
    serve.add_argument(
        "--dry-run",
        action="store_true",
        help="load models and print the serving table without binding the port",
    )

    ingest = commands.add_parser(
        "ingest",
        help="stream TSV / N-Triples files into a compact triple store",
    )
    ingest.add_argument(
        "input_dir",
        metavar="INPUT_DIR",
        help="directory holding train/valid/test .tsv/.txt/.nt files "
        "(optionally .gz; valid/test optional)",
    )
    ingest.add_argument("--out", required=True, help="compact store directory to write")
    ingest.add_argument(
        "--format",
        default="auto",
        choices=("auto", "tsv", "nt"),
        help="input format (auto: .nt files parse as N-Triples, rest as TSV)",
    )
    ingest.add_argument(
        "--name",
        default=None,
        help="graph name in the store manifest (default: input directory name)",
    )

    shard = commands.add_parser(
        "shard",
        help="convert a checkpoint into .npy mmap shards (out-of-core eval)",
    )
    shard.add_argument(
        "checkpoint", metavar="CHECKPOINT", help=".npz checkpoint to shard"
    )
    shard.add_argument("--out", required=True, help="shard directory to write")

    runs = commands.add_parser("runs", help="inspect the run journal")
    runs_commands = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_commands.add_parser(
        "list", parents=[store_parent], help="list journaled runs"
    )
    _add_format_argument(runs_list)
    runs_list.add_argument(
        "--limit", type=int, default=None, help="only the most recent N runs"
    )
    runs_show = runs_commands.add_parser(
        "show", parents=[store_parent], help="show one run in full"
    )
    runs_show.add_argument("run_id", help="run id (prefixes accepted)")

    cache = commands.add_parser("cache", help="inspect the artifact cache")
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    cache_ls = cache_commands.add_parser(
        "ls", parents=[store_parent], help="list cached artifacts"
    )
    _add_format_argument(cache_ls)
    cache_commands.add_parser(
        "gc",
        parents=[store_parent],
        help="remove orphaned artifacts (interrupted writes)",
    )

    trace = commands.add_parser("trace", help="inspect journaled span traces")
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    trace_show = trace_commands.add_parser(
        "show", parents=[store_parent], help="render one run's span trace"
    )
    trace_show.add_argument("run_id", help="run id (prefixes accepted)")
    trace_export = trace_commands.add_parser(
        "export",
        parents=[store_parent],
        help="export one run's timeline as Chrome trace_event JSON",
    )
    trace_export.add_argument("run_id", help="run id (prefixes accepted)")
    trace_export.add_argument(
        "--format",
        choices=("chrome",),
        default="chrome",
        help="export format (chrome trace_event JSON)",
    )
    trace_export.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the JSON here instead of stdout",
    )

    top = commands.add_parser(
        "top", help="live dashboard over a serve instance's /metrics"
    )
    top.add_argument(
        "--url",
        default="http://127.0.0.1:8080/metrics",
        help="metrics endpoint to poll",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between scrapes",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (scripting / CI)",
    )

    lint = commands.add_parser(
        "lint",
        help="project-specific static analysis (rule catalog: docs/analysis.md)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to analyse (default: src)",
    )
    lint.add_argument(
        "--root",
        default=".",
        metavar="DIR",
        help="project root violations are reported relative to",
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule codes to run (default: all)",
    )
    lint.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule codes to skip",
    )
    lint.add_argument(
        "--baseline",
        default="analysis-baseline.json",
        metavar="FILE",
        help="baseline file of grandfathered violations",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="fail if the baseline file is non-empty (CI mode)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    _add_format_argument(lint)

    bench = commands.add_parser(
        "bench", help="benchmark records: trend view + regression gate"
    )
    bench_commands = bench.add_subparsers(dest="bench_command", required=True)
    bench_trend = bench_commands.add_parser(
        "trend", help="every trackable metric across BENCH_*.json records"
    )
    bench_trend.add_argument(
        "--results",
        default="benchmarks/results",
        metavar="DIR",
        help="directory holding BENCH_*.json records",
    )
    _add_format_argument(bench_trend)
    bench_gate = bench_commands.add_parser(
        "gate", help="fail when fresh bench records regress vs a baseline"
    )
    bench_gate.add_argument(
        "--baseline",
        required=True,
        metavar="DIR",
        help="committed baseline BENCH_*.json directory",
    )
    bench_gate.add_argument(
        "--candidate",
        default="benchmarks/results",
        metavar="DIR",
        help="freshly produced BENCH_*.json directory to judge",
    )
    bench_gate.add_argument(
        "--max-regression",
        type=float,
        default=0.2,
        metavar="FRACTION",
        help="largest tolerated relative regression (0.2 = 20%%)",
    )
    bench_gate.add_argument(
        "--absolute",
        action="store_true",
        help="also gate absolute timings (seconds/latency); off by default "
        "because wall clock is machine-dependent",
    )
    _add_format_argument(bench_gate)
    return parser


_HANDLERS = {
    "run": _cmd_run,
    "datasets": _cmd_datasets,
    "generate": _cmd_generate,
    "recommenders": _cmd_recommenders,
    "easy-negatives": _cmd_easy_negatives,
    "complexity": _cmd_complexity,
    "analyze": _cmd_analyze,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "serve": _cmd_serve,
    "ingest": _cmd_ingest,
    "lint": _cmd_lint,
    "shard": _cmd_shard,
    "runs": _cmd_runs,
    "cache": _cmd_cache,
    "trace": _cmd_trace,
    "top": _cmd_top,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv if argv is not None else sys.argv[1:])
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
