"""Parallel evaluation engine: latency-bound speed-up and exactness.

Two claims, both asserted:

1. **Exactness** — ``workers=4`` on the persistent shared-memory pool
   produces bitwise-identical per-query ranks (and therefore identical
   metrics) to the serial path, on the full protocol and the sampled
   estimator alike, for cold and warm pools under both the spawn and
   the fork start method.  Parallelism is purely an execution knob.
2. **Concurrency** — with a scoring backend whose per-batch latency
   dominates (the regime the engine exists for: million-entity score
   matrices, models served from an accelerator or a remote process), 4
   workers complete the same chunk schedule >= 2x faster than 1.  The
   latency-bound scorer pins the per-batch cost to a fixed,
   hardware-independent floor, so the asserted ratio measures the
   engine's chunk fan-out rather than how many idle cores this
   particular machine happens to have.

Parallel-vs-serial scaling of genuinely CPU-bound work depends on the
host's free cores, not on the engine, so it is reported
(``cpu_bound_parallel_vs_serial``, 4 warm spawn workers vs serial) but
not asserted.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import LatencyBoundScorer, render_table
from repro.core.ranking import evaluate_full
from repro.core.estimators import evaluate_sampled
from repro.core.protocol import EvaluationProtocol
from repro.datasets import SyntheticConfig, generate
from repro.engine import shutdown_engine_pools
from repro.models import build_model
from repro.obs import get_registry
from repro.obs.top import label_values, scrape, sum_family

#: Acceptance floor at 4 workers: latency-bound fan-out vs 1 worker.
MIN_SPEEDUP = 2.0

WORKERS = 4
CHUNK_SIZE = 64

#: Emulated per-batch scoring latency (seconds).  20 ms is the order of a
#: single large-graph score-matrix slab or one RPC to a scoring service.
BATCH_LATENCY = 0.02


def _large_synthetic():
    """A synthetic large graph: ~3.8k entities, ~1.8k test queries."""
    config = SyntheticConfig(
        num_entities=4000,
        num_relations=24,
        num_types=8,
        num_triples=24000,
        num_communities=3,
        seed=7,
        name="engine-bench",
    )
    return generate(config)


def _timed_full(model, graph, **kwargs):
    """One ``evaluate_full`` plus its wall time (the run's own clock)."""
    start = time.perf_counter()
    result = evaluate_full(model, graph, chunk_size=CHUNK_SIZE, **kwargs)
    return result, time.perf_counter() - start


def test_parallel_engine_speedup(emit, emit_json):
    dataset = _large_synthetic()
    graph = dataset.graph
    model = build_model(
        "distmult", graph.num_entities, graph.num_relations, dim=32, seed=0
    )
    graph.filter_index  # noqa: B018 — warm once, outside every timed region

    # -- Exactness: serial and pooled runs agree bit for bit. ------------
    serial, serial_seconds = _timed_full(model, graph, workers=1)
    warmup, _ = _timed_full(model, graph, workers=WORKERS, start_method="spawn")
    assert warmup.ranks == serial.ranks  # cold run (pays pool + publish)
    shm, shm_seconds = _timed_full(
        model, graph, workers=WORKERS, start_method="spawn"
    )
    assert shm.ranks == serial.ranks
    assert shm.metrics == serial.metrics
    cpu_parallel_vs_serial = serial_seconds / max(shm_seconds, 1e-9)

    # The same cold and warm runs under fork.
    fork_warmup, _ = _timed_full(model, graph, workers=WORKERS)
    fork_shm, _ = _timed_full(model, graph, workers=WORKERS)
    assert fork_warmup.ranks == serial.ranks
    assert fork_shm.ranks == serial.ranks

    # -- Concurrency: latency-bound scorer, the engine's target regime. -
    throttled = LatencyBoundScorer(model, delay=BATCH_LATENCY)
    slow_serial, slow_serial_seconds = _timed_full(throttled, graph, workers=1)
    slow_parallel, slow_parallel_seconds = _timed_full(
        throttled, graph, workers=WORKERS
    )
    assert slow_parallel.ranks == slow_serial.ranks
    assert slow_serial.ranks == serial.ranks  # the wrapper changes nothing
    latency_speedup = slow_serial_seconds / max(slow_parallel_seconds, 1e-9)

    rows = [
        {
            "Regime": "latency-bound (20 ms/batch), 4 workers vs 1",
            "Baseline (s)": round(slow_serial_seconds, 2),
            "Engine (s)": round(slow_parallel_seconds, 2),
            "Speed-up": round(latency_speedup, 2),
            "Ranks equal": "yes",
        },
        {
            "Regime": "CPU-bound numpy, 4 shm workers vs serial (informational)",
            "Baseline (s)": round(serial_seconds, 2),
            "Engine (s)": round(shm_seconds, 2),
            "Speed-up": round(cpu_parallel_vs_serial, 2),
            "Ranks equal": "yes",
        },
    ]
    emit(
        "parallel_engine",
        render_table(
            rows,
            title=(
                f"Parallel engine, full ranking of {graph.name} "
                f"({graph.num_entities} entities, {2 * len(graph.test)} queries)"
            ),
        ),
    )
    emit_json(
        "parallel_engine",
        {
            "bench": "bench_parallel_engine",
            "workers": WORKERS,
            "latency_bound_speedup": latency_speedup,
            "cpu_bound_parallel_vs_serial": cpu_parallel_vs_serial,
            "min_speedup_asserted": MIN_SPEEDUP,
            "ranks_equal": True,
        },
        config={
            "workers": WORKERS,
            "chunk_size": CHUNK_SIZE,
            "batch_latency": BATCH_LATENCY,
            "model": "distmult",
            "dim": 32,
        },
    )
    assert latency_speedup >= MIN_SPEEDUP
    shutdown_engine_pools()  # leave no pool (or segment) behind for later benches


#: Telemetry acceptance: the workers' merged busy seconds must account
#: for >= 80% of a steady-state run's wall time — proof the spans measure
#: where the time really goes.
MIN_BUSY_ACCOUNTING = 0.8


def test_worker_telemetry_accounting(emit, emit_json):
    """Worker telemetry: complete accounting, exact ranks.

    Over one steady-state CPU-bound run, the
    ``repro_engine_worker_busy_seconds_total`` amounts merged from the
    workers cover >= 80% of the run's wall time (workers overlap, so the
    ratio can legitimately exceed 1 on multi-core hosts), no one worker's
    amount exceeds that wall time, and the run's ranks are bitwise the
    serial path's.  The run publishes no state, so every busy second it
    adds was spent on one of its chunks: a worker busier than the run is
    long means replies were merged more than once.
    """
    dataset = _large_synthetic()
    graph = dataset.graph
    model = build_model(
        "distmult", graph.num_entities, graph.num_relations, dim=32, seed=0
    )
    graph.filter_index  # noqa: B018 — warm once, outside every timed region
    registry = get_registry()
    family = "repro_engine_worker_busy_seconds_total"

    def _busy_by_worker() -> dict[str, float]:
        samples = scrape(registry)
        return {
            worker: sum_family(samples, family, worker=worker)
            for worker in label_values(samples, family, "worker")
        }

    serial, _ = _timed_full(model, graph, workers=1)
    warmup, _ = _timed_full(model, graph, workers=WORKERS)  # pool start + publish
    assert warmup.ranks == serial.ranks

    busy_before = _busy_by_worker()
    accounted_run, accounting_wall = _timed_full(model, graph, workers=WORKERS)
    worker_deltas = [
        busy - busy_before.get(worker, 0.0) for worker, busy in _busy_by_worker().items()
    ]
    busy_delta = sum(worker_deltas)
    accounting = busy_delta / max(accounting_wall, 1e-9)
    assert accounted_run.ranks == serial.ranks

    rows = [
        {
            "Claim": "busy-seconds accounting of one run's wall time",
            "Measured": f"{accounting:.2f}x",
            "Floor": f">= {MIN_BUSY_ACCOUNTING}x",
            "Ranks equal": "yes",
        },
    ]
    emit(
        "worker_telemetry",
        render_table(
            rows,
            title=(
                f"Worker telemetry, full ranking of {graph.name} at "
                f"{WORKERS} shm workers"
            ),
        ),
    )
    emit_json(
        "worker_telemetry",
        {
            "bench": "bench_parallel_engine::worker_telemetry",
            "workers": WORKERS,
            "busy_accounting_ratio": accounting,
            "busy_seconds": busy_delta,
            "accounting_wall_seconds": accounting_wall,
            "min_busy_accounting": MIN_BUSY_ACCOUNTING,
            "ranks_equal": True,
        },
        config={
            "workers": WORKERS,
            "chunk_size": CHUNK_SIZE,
            "model": "distmult",
            "dim": 32,
        },
    )
    assert accounting >= MIN_BUSY_ACCOUNTING
    assert max(worker_deltas) <= accounting_wall, (worker_deltas, accounting_wall)
    shutdown_engine_pools()


def test_parallel_sampled_matches_serial():
    """The sampled estimator is also exact under parallel execution."""
    dataset = _large_synthetic()
    graph = dataset.graph
    model = build_model(
        "complex", graph.num_entities, graph.num_relations, dim=16, seed=1
    )
    protocol = EvaluationProtocol(
        graph, strategy="static", sample_fraction=0.05, types=dataset.types, seed=3
    )
    protocol.prepare()
    assert protocol.pools is not None
    serial = evaluate_sampled(model, graph, protocol.pools, workers=1)
    parallel = evaluate_sampled(
        model, graph, protocol.pools, workers=WORKERS, chunk_size=CHUNK_SIZE
    )
    assert parallel.ranks == serial.ranks
    # Different chunk sizes cannot change a rank either: chunks partition
    # the query axis and each query's rank is computed row-locally.
    rechunked = evaluate_sampled(model, graph, protocol.pools, chunk_size=17)
    assert rechunked.ranks == serial.ranks
    assert np.isfinite(serial.metrics.mrr)
    shutdown_engine_pools()
