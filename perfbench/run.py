"""Benchmark entry point: one workload, one seed, untraced or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sampled-eval --seed 0 --seconds 20 --trace 0

The last line of standard output is the result, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
they are the per-layer metrics of a traced run.  The line before it is the
run record (inputs, configuration, host diagnostics), prefixed with
``record:``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread for this process and every pool worker it starts, so busy
# threads never exceed the cores.  Set before numpy is first imported.
BLAS_THREADS = 1
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_variable] = str(BLAS_THREADS)

import argparse  # noqa: E402
import atexit  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sampled-eval", "full-eval", "serve-mix")

#: End-to-end metrics of an untraced run: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of a traced run: name -> unit.  A layer the workload
#: does not exercise reports 0.
PER_LAYER = {
    "kg.filter_index_s": "s",
    "recommenders.fit_s": "s",
    "candidates.build_s": "s",
    "sampling.pools_s": "s",
    "sampling.pool_entities": "count",
    "engine.group_ms": "ms",
    "engine.gather_ms": "ms",
    "engine.known_ids": "count",
    "engine.rank_ms": "ms",
    "engine.score_ms": "ms",
    "engine.score_roofline_frac": "frac",
    "engine.aggregate_ms": "ms",
    "engine.chunks": "count",
    "engine.queries": "count",
    "engine.entities_scored": "count",
    "pool.publish_ms": "ms",
    "pool.merge_wait_ms": "ms",
    "pool.worker_queue_wait_ms": "ms",
    "pool.worker_busy_frac": "frac",
    "serve.cache_hit_ratio": "frac",
    "serve.cache_hit_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.mean_batch_size": "requests",
    "serve.batch_ms": "ms",
    "serve.score_ms": "ms",
    "serve.rank_ms": "ms",
    "serve.topk_ms": "ms",
    "table9.speedup_x": "x",
    "host.gemm_gflops": "GFLOP/s",
    "host.steal_frac": "frac",
    "unattributed_frac": "frac",
    "tracing.overhead_frac": "frac",
}

#: Set-up layer sections -> per-layer metric (median over the set-ups).
SETUP_LAYERS = {
    "kg.filter_index": "kg.filter_index_s",
    "recommenders.fit": "recommenders.fit_s",
    "candidates.build": "candidates.build_s",
    "sampling.pools": "sampling.pools_s",
}

#: Measured blocks per run.  Each block runs on a fresh set-up, so the
#: set-ups that ``setup_s`` takes the median of are spread over the run.
#: In a traced run the odd blocks are traced and the even ones are not.
BLOCKS = {"full": 6, "tiny": 2}

def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    Shared memory starts the tracker as a child process that is never
    waited for and outlives this process by a moment.  Closing its pipe
    ends it; ``_stop`` does that and reaps it (a private but stable API).
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(
    workload_name: str, seed: int, seconds: float, trace: bool, scale: str = "full"
) -> tuple[dict, dict]:
    """Run one workload; returns ``(result, record)``.

    ``scale`` is ``"full"`` for the benchmark and ``"tiny"`` (a 400-entity
    graph) for the smoke tests.
    """
    import numpy as np

    import measure
    from inputs import make_inputs
    from layers import LayerClock
    from repro.engine.pool import shutdown_engine_pools
    from repro.obs import get_tracer
    from workloads import WORKLOADS, score_roofline

    inputs = make_inputs(seed, scale)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workload = WORKLOADS[workload_name](inputs, workdir)
    clock = LayerClock()
    tracer = get_tracer()
    rotation = measure.CoreRotation() if workload.rotate_cores else None
    try:
        blocks = BLOCKS[scale]
        setups: list[float] = []
        setup_layers: dict[str, list[float]] = {}
        phases: dict[str, list[list]] = {"untraced": [], "traced": []}
        next_index = [0] * workload.clients
        gflops = [measure.gemm_gflops()]
        cpu_before = measure.cpu_times()
        wall = 0.0
        if trace:
            tracer.reset()
            tracer.timeline = False
        for block in range(blocks):
            traced = trace and block % 2 == 1
            if block:
                workload.close()
            gc.collect()
            setup_clock = LayerClock()
            if trace:
                workload.wrap_setup(setup_clock)
            start = time.perf_counter()
            try:
                workload.setup(setup_clock)
            finally:
                setups.append(time.perf_counter() - start)
                setup_clock.restore()
            for section, seconds_spent in setup_clock.seconds.items():
                setup_layers.setdefault(section, []).append(seconds_spent)
            if not block:
                workload.prepare_checks()
            gc.collect()
            if traced:
                workload.wrap_ops(clock)
                tracer.enabled = True
            try:
                block_ops, block_wall = measure.closed_loop(
                    workload.op,
                    workload.verify,
                    workload.clients,
                    seconds / blocks,
                    min_ops=-(-measure.min_samples_for(0.9) // blocks),
                    keep_records=traced,
                    next_index=next_index,
                    before_op=rotation,
                )
            finally:
                if rotation is not None:
                    rotation.restore()
                tracer.enabled = False
                clock.restore()
            workload.end_block(traced)
            phases["traced" if traced else "untraced"].append(block_ops)
            wall += block_wall
        steal = measure.steal_fraction(cpu_before, measure.cpu_times())
        gflops.append(measure.gemm_gflops())
        # Peak memory comes from an untimed pass after the measured blocks,
        # so sampling it never slows an op that is timed.
        peak_rss = workload.peak_memory_mb()

        untraced = [op for block_ops in phases["untraced"] for op in block_ops]
        traced_ops = [op for block_ops in phases["traced"] for op in block_ops]
        ops = untraced + traced_ops
        failed = sum(not op.ok for op in ops)
        errors = sorted({op.error for op in ops if op.error is not None})
        latencies = [op.latency for op in untraced]
        if not trace:
            metrics = {
                "setup_s": statistics.median(setups),
                "p50_ms": measure.percentile_ms(latencies, 0.5),
                "p90_ms": measure.percentile_ms(latencies, 0.9),
                "throughput_per_s": sum(op.units for op in ops) / wall,
                "peak_rss_mb": peak_rss,
            }
            units = END_TO_END
        else:
            summary = tracer.summary()
            layers = workload.layer_metrics(clock, summary, traced_ops)
            attributed, op_wall = workload.attributed_seconds(clock, traced_ops)
            layers.update(workload.extra_layer_metrics())
            metrics = {name: 0.0 for name in PER_LAYER}
            for section, metric in SETUP_LAYERS.items():
                if section in setup_layers:
                    metrics[metric] = statistics.median(setup_layers[section])
            metrics.update(layers)
            metrics["host.gemm_gflops"] = statistics.median(gflops)
            if metrics["engine.score_ms"] > 0:
                metrics["engine.score_roofline_frac"] = score_roofline(
                    metrics["engine.entities_scored"],
                    metrics["engine.score_ms"],
                    metrics["host.gemm_gflops"],
                )
            metrics["host.steal_frac"] = steal
            metrics["unattributed_frac"] = measure.unattributed_fraction(op_wall, attributed)
            traced_p50 = measure.percentile_ms([op.latency for op in traced_ops], 0.5)
            metrics["tracing.overhead_frac"] = traced_p50 / measure.percentile_ms(latencies, 0.5) - 1.0
            units = PER_LAYER
        result = {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
            },
        }
        record = {
            "workload": workload_name,
            "seed": seed,
            "trace": int(trace),
            "scale": scale,
            "seconds": seconds,
            "inputs": inputs.describe(),
            "config": {
                **workload.config(),
                "nproc": os.cpu_count(),
                "blas_threads": BLAS_THREADS,
                "blocks": blocks,
            },
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "host": {"gemm_gflops": gflops, "steal_frac": steal},
            "setup_s": setups,
            "ops": {name: sum(map(len, phase)) for name, phase in phases.items()},
            "p90_samples_beyond": measure.samples_beyond(len(latencies), 0.9),
            "errors": errors[:5],
        }
        return result, record
    finally:
        if rotation is not None:
            rotation.restore()
        tracer.enabled = False
        clock.restore()
        workload.close()
        shutdown_engine_pools()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run's directory is still there, or none was made
            pass


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # A terminated run still stops its pool workers and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # Registered before the program is imported, so it runs after the
    # program's own exit hooks, which may still unlink shared memory.
    atexit.register(stop_resource_tracker)
    try:
        result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_resource_tracker()
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
