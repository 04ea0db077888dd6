"""Out-of-core benchmark driver: flat-RSS evaluation at million-entity scale.

Runnable as ``python -m repro.bench.out_of_core``.  Each stage is a
subcommand that prints one JSON result line (including its own peak RSS
from ``resource.getrusage``), and ``all`` chains the stages **as separate
subprocesses** so every stage's peak RSS is measured in isolation — a
parent that generated 1.5M triples would otherwise pollute the evaluation
stage's high-water mark.

Stages::

    generate   stream synthetic TSV splits to disk (datasets/scale.py)
    ingest     stream the TSVs into a compact int32 store (datasets/ingest.py)
    shard      initialise an mmap model directory without building the model
    evaluate   sampled evaluation with the mmap backend; asserts an RSS ceiling
    compare    mmap vs in-memory throughput + rank equality at a smaller scale
    all        run every stage and print the combined record

``benchmarks/bench_out_of_core.py`` wraps ``all`` under pytest and emits
``BENCH_out_of_core.json`` for the bench gate.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Default scale of the headline run (>= 1M entities per the bench contract).
DEFAULT_ENTITIES = 1_000_000
DEFAULT_RELATIONS = 50
DEFAULT_TRAIN = 1_500_000
DEFAULT_EVAL = 5_000

#: Peak-RSS ceiling for the million-entity sampled evaluation stage.  An
#: in-memory run at the same scale needs the full dict filter index plus a
#: materialised embedding table — well over a gigabyte — so a flat mmap
#: path clears this with headroom while a regression to materialisation
#: cannot.
DEFAULT_CEILING_MB = 700.0

#: Compare-stage floor: mmap throughput within 2x of in-memory.
DEFAULT_MIN_THROUGHPUT_RATIO = 0.5


def peak_rss_mb() -> float:
    """This process's peak resident set in MB (Linux reports KB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover — ru_maxrss is bytes there
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def _emit(record: dict) -> dict:
    record = dict(record, peak_rss_mb=round(peak_rss_mb(), 2))
    print(json.dumps(record))
    return record


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------
def stage_generate(args: argparse.Namespace) -> dict:
    from repro.datasets.scale import SyntheticScaleConfig, generate_scale_tsv

    start = time.perf_counter()
    config = SyntheticScaleConfig(
        num_entities=args.entities,
        num_relations=args.relations,
        num_train=args.train,
        num_valid=args.eval_triples,
        num_test=args.eval_triples,
        seed=args.seed,
    )
    paths = generate_scale_tsv(args.raw_dir, config)
    return _emit(
        {
            "stage": "generate",
            "entities": config.num_entities,
            "train_triples": config.num_train,
            "seconds": round(time.perf_counter() - start, 3),
            "files": {split: str(path) for split, path in paths.items()},
        }
    )


def stage_ingest(args: argparse.Namespace) -> dict:
    from repro.datasets.ingest import ingest_directory

    start = time.perf_counter()
    result = ingest_directory(args.raw_dir, args.store_dir, name="oom-synthetic")
    return _emit(
        {
            "stage": "ingest",
            "num_entities": result.num_entities,
            "num_relations": result.num_relations,
            "splits": result.splits,
            "seconds": round(time.perf_counter() - start, 3),
        }
    )


def stage_shard(args: argparse.Namespace) -> dict:
    from repro.kg.triples import open_compact
    from repro.models.io import init_sharded

    start = time.perf_counter()
    graph = open_compact(args.store_dir)
    source = init_sharded(
        args.model,
        graph.num_entities,
        graph.num_relations,
        directory=args.shard_dir,
        dim=args.dim,
        seed=args.seed,
        dtype=args.dtype,
    )
    return _emit(
        {
            "stage": "shard",
            "model": args.model,
            "dim": args.dim,
            "dtype": args.dtype,
            "nbytes": source.nbytes,
            "seconds": round(time.perf_counter() - start, 3),
        }
    )


def _sampled_run(model, graph, workers: int, num_samples: int, seed: int):
    """One warmed sampled evaluation; returns (queries/s, EvaluationResult)."""
    import numpy as np

    from repro.core.sampling import build_pools
    from repro.engine.engine import EvaluationEngine

    pools = build_pools(
        graph, "random", np.random.default_rng(seed), num_samples=num_samples
    )
    engine = EvaluationEngine(workers=workers)
    engine.run(model, graph, "test", pools=pools)  # warm
    run = engine.run(model, graph, "test", pools=pools)
    return run.num_queries / max(run.seconds, 1e-9), run


def stage_evaluate(args: argparse.Namespace) -> dict:
    from repro.engine.pool import shutdown_engine_pools
    from repro.kg.triples import open_compact
    from repro.models.io import open_mmap
    from repro.obs import get_registry

    graph = open_compact(args.store_dir)
    model = open_mmap(args.shard_dir)
    start = time.perf_counter()
    qps, run = _sampled_run(model, graph, args.workers, args.num_samples, args.seed)
    shutdown_engine_pools()
    record = _emit(
        {
            "stage": "evaluate",
            "entities": graph.num_entities,
            "queries": run.num_queries,
            "workers": args.workers,
            "num_samples": args.num_samples,
            "mrr": round(run.metrics.mrr, 6),
            "queries_per_second": round(qps, 2),
            "mmap_bytes": get_registry()
            .gauge("repro_engine_mmap_bytes")
            .value(),
            "seconds": round(time.perf_counter() - start, 3),
        }
    )
    if args.ceiling_mb is not None and record["peak_rss_mb"] > args.ceiling_mb:
        print(
            f"FAIL: peak RSS {record['peak_rss_mb']} MB exceeds ceiling "
            f"{args.ceiling_mb} MB",
            file=sys.stderr,
        )
        raise SystemExit(1)
    return record


def stage_compare(args: argparse.Namespace) -> dict:
    """mmap vs in-memory on one model: rank equality + throughput ratio.

    Runs at a deliberately smaller scale than ``evaluate`` so the
    in-memory twin is buildable, with the *same* worker count, which is
    what makes the throughput ratio a like-for-like comparison.
    """
    import numpy as np

    from repro.core.sampling import build_pools
    from repro.datasets.ingest import ingest_directory
    from repro.datasets.scale import SyntheticScaleConfig, generate_scale_tsv
    from repro.engine.engine import EvaluationEngine
    from repro.engine.pool import shutdown_engine_pools
    from repro.kg.triples import open_compact
    from repro.models import build_model
    from repro.models.io import open_mmap, save_sharded

    with tempfile.TemporaryDirectory(prefix="repro-oom-compare-") as tmp:
        tmp_path = Path(tmp)
        config = SyntheticScaleConfig(
            num_entities=args.entities,
            num_relations=args.relations,
            num_train=args.train,
            num_valid=args.eval_triples,
            num_test=args.eval_triples,
            seed=args.seed,
        )
        generate_scale_tsv(tmp_path / "raw", config)
        ingest_directory(tmp_path / "raw", tmp_path / "store")
        graph = open_compact(tmp_path / "store")
        memory_model = build_model(
            args.model,
            graph.num_entities,
            graph.num_relations,
            dim=args.dim,
            seed=args.seed,
            dtype=args.dtype,
        )
        save_sharded(memory_model, tmp_path / "shards")
        mmap_model = open_mmap(tmp_path / "shards")

        pools = build_pools(
            graph,
            "random",
            np.random.default_rng(args.seed),
            num_samples=args.num_samples,
        )
        engine = EvaluationEngine(workers=args.workers)
        runs = {}
        for tag, model in (("memory", memory_model), ("mmap", mmap_model)):
            engine.run(model, graph, "test", pools=pools)  # warm
            runs[tag] = engine.run(model, graph, "test", pools=pools)
        shutdown_engine_pools()
        ranks_equal = runs["memory"].ranks == runs["mmap"].ranks
        qps = {
            tag: run.num_queries / max(run.seconds, 1e-9)
            for tag, run in runs.items()
        }
        ratio = qps["mmap"] / qps["memory"]
    record = _emit(
        {
            "stage": "compare",
            "entities": args.entities,
            "workers": args.workers,
            "queries": runs["mmap"].num_queries,
            "ranks_equal": bool(ranks_equal),
            "memory_queries_per_second": round(qps["memory"], 2),
            "mmap_queries_per_second": round(qps["mmap"], 2),
            "throughput_ratio": round(ratio, 4),
        }
    )
    if not ranks_equal:
        print("FAIL: mmap ranks differ from in-memory ranks", file=sys.stderr)
        raise SystemExit(1)
    if args.min_ratio is not None and ratio < args.min_ratio:
        print(
            f"FAIL: mmap/in-memory throughput ratio {ratio:.3f} below "
            f"{args.min_ratio}",
            file=sys.stderr,
        )
        raise SystemExit(1)
    return record


def _run_stage(argv: list[str]) -> dict:
    """Run one stage as a subprocess; return its parsed JSON result line."""
    command = [sys.executable, "-m", "repro.bench.out_of_core", *argv]
    result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(
            f"stage {argv[0]!r} failed (exit {result.returncode}):\n"
            f"{result.stdout}\n{result.stderr}"
        )
    for line in reversed(result.stdout.strip().splitlines()):
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            continue
    raise RuntimeError(f"stage {argv[0]!r} printed no JSON record:\n{result.stdout}")


def run_all(args: argparse.Namespace) -> dict:
    """Chain every stage in isolated subprocesses; returns the summary."""
    work = Path(args.work_dir) if args.work_dir else None
    context = (
        tempfile.TemporaryDirectory(prefix="repro-oom-")
        if work is None
        else None
    )
    root = Path(context.name) if context is not None else work
    try:
        root.mkdir(parents=True, exist_ok=True)
        raw, store, shards = root / "raw", root / "store", root / "shards"
        scale = [
            "--entities", str(args.entities),
            "--relations", str(args.relations),
            "--train", str(args.train),
            "--eval-triples", str(args.eval_triples),
            "--seed", str(args.seed),
        ]
        model = [
            "--model", args.model,
            "--dim", str(args.dim),
            "--dtype", args.dtype,
            "--seed", str(args.seed),
        ]
        stages = {
            "generate": _run_stage(["generate", "--raw-dir", str(raw), *scale]),
            "ingest": _run_stage(
                ["ingest", "--raw-dir", str(raw), "--store-dir", str(store)]
            ),
            "shard": _run_stage(
                ["shard", "--store-dir", str(store), "--shard-dir", str(shards), *model]
            ),
            "evaluate": _run_stage(
                [
                    "evaluate",
                    "--store-dir", str(store),
                    "--shard-dir", str(shards),
                    "--workers", str(args.workers),
                    "--num-samples", str(args.num_samples),
                    "--seed", str(args.seed),
                    "--ceiling-mb", str(args.ceiling_mb),
                ]
            ),
            "compare": _run_stage(
                [
                    "compare",
                    "--entities", str(args.compare_entities),
                    "--relations", str(args.relations),
                    "--train", str(args.compare_train),
                    "--eval-triples", str(args.compare_eval_triples),
                    "--workers", str(args.workers),
                    "--num-samples", str(args.num_samples),
                    "--min-ratio", str(args.min_ratio),
                    *model,
                ]
            ),
        }
    finally:
        if context is not None:
            context.cleanup()
    evaluate = stages["evaluate"]
    compare = stages["compare"]
    summary = {
        "stage": "all",
        "entities": args.entities,
        "train_triples": args.train,
        "workers": args.workers,
        "ceiling_mb": args.ceiling_mb,
        "evaluate_peak_rss_mb": evaluate["peak_rss_mb"],
        "rss_headroom": round(args.ceiling_mb / evaluate["peak_rss_mb"], 4),
        "queries_per_second": evaluate["queries_per_second"],
        "throughput_ratio": compare["throughput_ratio"],
        "ranks_equal": compare["ranks_equal"],
        "stages": stages,
    }
    print(json.dumps(summary))
    return summary


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--entities", type=int, default=DEFAULT_ENTITIES)
    parser.add_argument("--relations", type=int, default=DEFAULT_RELATIONS)
    parser.add_argument("--train", type=int, default=DEFAULT_TRAIN)
    parser.add_argument("--eval-triples", type=int, default=DEFAULT_EVAL)


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="distmult")
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--dtype", default="float32")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.out_of_core",
        description=__doc__.split("\n\n")[0],
    )
    sub = parser.add_subparsers(dest="stage", required=True)

    def add_stage(name: str, help_: str) -> argparse.ArgumentParser:
        stage = sub.add_parser(name, help=help_)
        stage.add_argument("--seed", type=int, default=0)
        return stage

    generate = add_stage("generate", "stream synthetic TSVs to disk")
    generate.add_argument("--raw-dir", required=True)
    _add_scale_args(generate)

    ingest = add_stage("ingest", "ingest TSVs into a compact store")
    ingest.add_argument("--raw-dir", required=True)
    ingest.add_argument("--store-dir", required=True)

    shard = add_stage("shard", "initialise an mmap model directory")
    shard.add_argument("--store-dir", required=True)
    shard.add_argument("--shard-dir", required=True)
    _add_model_args(shard)

    evaluate = add_stage("evaluate", "sampled mmap evaluation + RSS gate")
    evaluate.add_argument("--store-dir", required=True)
    evaluate.add_argument("--shard-dir", required=True)
    evaluate.add_argument("--workers", type=int, default=4)
    evaluate.add_argument("--num-samples", type=int, default=1000)
    evaluate.add_argument("--ceiling-mb", type=float, default=None)

    compare = add_stage("compare", "mmap vs in-memory at small scale")
    _add_scale_args(compare)
    _add_model_args(compare)
    compare.add_argument("--workers", type=int, default=4)
    compare.add_argument("--num-samples", type=int, default=1000)
    compare.add_argument("--min-ratio", type=float, default=None)

    everything = add_stage("all", "run every stage in subprocesses")
    _add_scale_args(everything)
    _add_model_args(everything)
    everything.add_argument("--workers", type=int, default=4)
    everything.add_argument("--num-samples", type=int, default=1000)
    everything.add_argument("--ceiling-mb", type=float, default=DEFAULT_CEILING_MB)
    everything.add_argument(
        "--min-ratio", type=float, default=DEFAULT_MIN_THROUGHPUT_RATIO
    )
    everything.add_argument("--compare-entities", type=int, default=50_000)
    everything.add_argument("--compare-train", type=int, default=100_000)
    everything.add_argument("--compare-eval-triples", type=int, default=1_000)
    everything.add_argument(
        "--work-dir",
        default=None,
        help="keep stage outputs here instead of a temp directory",
    )
    return parser


_STAGES = {
    "generate": stage_generate,
    "ingest": stage_ingest,
    "shard": stage_shard,
    "evaluate": stage_evaluate,
    "compare": stage_compare,
    "all": run_all,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _STAGES[args.stage](args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
