"""Fused training: speed-up, exactness, and float32.

Four claims, all asserted:

1. **Gradient exactness** — for *every* (fused model, loss) pair, the
   fused gradients (the inference forward plus hand-written VJPs) match
   the autodiff engine's to 1e-9 in float64 (they agree to ~1e-15; the
   bound absorbs accumulation-order rounding).
2. **Throughput** — on a 5k-entity synthetic graph, a fused float64
   training epoch (ComplEx, the paper's headline model, with its
   canonical softplus loss and the trainer's default Adam) sustains
   >= 4x the epoch throughput of the autodiff path (the same model with
   its query-vector VJP withheld, which is what routes it to autodiff),
   each path's best single epoch of 3 interleaved rounds.
3. **Same destination** — fused and autodiff SGD runs from identical
   seeds land on the same final MRR (sparse SGD *is* dense SGD when the
   gradients agree; only ~1e-16 rounding separates the trajectories).
4. **float32** — the reduced-precision fused path finishes within 1e-3
   MRR of its float64 twin (while cutting parameter memory in half).

The measured ratios are persisted to ``benchmarks/results/
BENCH_training.json`` so the perf trajectory is tracked across PRs.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from repro.bench import render_table
from repro.core.ranking import evaluate_full
from repro.datasets import SyntheticConfig, generate
from repro.models import ComplEx, Trainer, TrainingConfig, available_models, build_model
from repro.models.fused import autodiff_gradients, fused_gradients, trains_fused

#: Acceptance floor: fused vs autodiff epoch throughput (float64, Adam).
MIN_SPEEDUP = 4.0

#: Gradient equivalence bound (float64, every model x loss pair).
GRAD_TOL = 1e-9

#: float32 vs float64 final-MRR tolerance.
FLOAT32_MRR_TOL = 1e-3

LOSSES = ("margin", "bce", "softplus")

#: The benched training configuration (paper-style: ComplEx + softplus).
MODEL = "complex"
DIM = 64
BATCH_SIZE = 128
NUM_NEGATIVES = 8
EPOCHS = 2

_GRAPH = None


class AutodiffComplEx(ComplEx):
    """ComplEx re-declaring ``query_vectors`` without its VJP: the same
    model and initial parameters, trained through the autodiff engine."""

    def query_vectors(self, anchors, relation, side):
        return super().query_vectors(anchors, relation, side)


def _graph():
    """The 5k-entity synthetic benchmark graph (built once per process)."""
    global _GRAPH
    if _GRAPH is None:
        _GRAPH = generate(
            SyntheticConfig(
                num_entities=5000, num_relations=20, num_triples=20000, seed=0
            )
        ).graph
    return _GRAPH


def _train(graph, fused, optimizer="adam", dtype="float64", loss="softplus", epochs=EPOCHS):
    model_cls = ComplEx if fused else AutodiffComplEx
    model = model_cls(graph.num_entities, graph.num_relations, dim=DIM, seed=0, dtype=dtype)
    assert trains_fused(model) == fused
    config = TrainingConfig(
        epochs=epochs,
        batch_size=BATCH_SIZE,
        num_negatives=NUM_NEGATIVES,
        lr=0.05,
        loss=loss,
        optimizer=optimizer,
        seed=0,
        # Collision filtering is an orthogonal (and identical) cost on
        # both paths; keep the measurement about the training step.
        filter_false_negatives=False,
    )
    start = time.perf_counter()
    history = Trainer(config).fit(model, graph)
    seconds = time.perf_counter() - start
    return model, history, seconds / epochs


def test_gradient_equivalence_every_model_and_loss():
    """Claim 1: fused == autodiff to 1e-9 for all (model, loss) pairs."""
    rng = np.random.default_rng(7)
    num_entities, num_relations, b, k = 50, 6, 32, 6
    batch = (
        rng.integers(num_entities, size=b),
        rng.integers(num_relations, size=b),
        rng.integers(num_entities, size=b),
        rng.integers(num_entities, size=(b, k)),
        rng.random(b) < 0.5,
    )
    worst = 0.0
    pairs = 0
    fused_models = [
        name for name in available_models() if trains_fused(build_model(name, 10, 2, dim=8))
    ]
    for name in fused_models:
        variants = [{"norm": 1}, {"norm": 2}] if name == "transe" else [{}]
        for extra in variants:
            model = build_model(name, num_entities, num_relations, dim=8, seed=1, **extra)
            for loss in LOSSES:
                loss_a, grads_a = autodiff_gradients(model, loss, *batch, margin=1.0)
                loss_f, grads_f = fused_gradients(model, loss, *batch, margin=1.0)
                assert abs(loss_a - loss_f) <= GRAD_TOL, (name, loss)
                for key in grads_a:
                    diff = float(np.abs(grads_a[key] - grads_f[key]).max())
                    worst = max(worst, diff)
                    assert diff <= GRAD_TOL, f"{name}/{loss}/{key}: {diff:.3e}"
                pairs += 1
    assert pairs >= len(fused_models) * len(LOSSES)
    print(f"\n{pairs} (model, loss) pairs; worst gradient difference {worst:.2e}")


def test_training_speedup_and_metric_parity(emit, emit_json, best_seconds_interleaved):
    """Claims 2-4: >= 4x epoch throughput, same MRR, float32 within 1e-3."""
    graph = _graph()
    triples_per_epoch = len(graph.train)

    # -- Throughput: the trainer's default Adam, float64. ---------------
    # One epoch per call; each path's best of 3 interleaved rounds.
    fused_epoch, auto_epoch, f32_epoch = best_seconds_interleaved(
        [
            partial(_train, graph, True, epochs=1),
            partial(_train, graph, False, epochs=1),
            partial(_train, graph, True, dtype="float32", epochs=1),
        ],
        rounds=3,
    )
    speedup = auto_epoch / fused_epoch

    # -- Destination parity: SGD, where sparse == dense exactly. --------
    sgd_fused_model, fused_history, _ = _train(graph, True, optimizer="sgd")
    sgd_auto_model, auto_history, _ = _train(graph, False, optimizer="sgd")
    mrr_fused = evaluate_full(sgd_fused_model, graph).metrics.mrr
    mrr_auto = evaluate_full(sgd_auto_model, graph).metrics.mrr

    # -- float32 vs float64 on the fused path. --------------------------
    f32_model, _, _ = _train(graph, True, dtype="float32")
    f64_model, _, _ = _train(graph, True)
    mrr_f32 = evaluate_full(f32_model, graph).metrics.mrr
    mrr_f64 = evaluate_full(f64_model, graph).metrics.mrr

    rows = [
        {
            "Path": "autodiff (graph + dense grads)",
            "s/epoch": round(auto_epoch, 3),
            "Triples/s": round(triples_per_epoch / auto_epoch),
            "Speed-up": 1.0,
        },
        {
            "Path": "fused (sparse rows)",
            "s/epoch": round(fused_epoch, 3),
            "Triples/s": round(triples_per_epoch / fused_epoch),
            "Speed-up": round(speedup, 2),
        },
        {
            "Path": "fused, float32",
            "s/epoch": round(f32_epoch, 3),
            "Triples/s": round(triples_per_epoch / f32_epoch),
            "Speed-up": round(auto_epoch / f32_epoch, 2),
        },
    ]
    emit(
        "training_speedup",
        render_table(
            rows,
            title=(
                f"Fused training: {MODEL} dim={DIM} on {graph.name} "
                f"(|E|={graph.num_entities}, {triples_per_epoch} train triples, "
                f"batch {BATCH_SIZE}, {NUM_NEGATIVES} negatives, adam)"
            ),
        ),
    )
    emit_json(
        "training",
        {
            "bench": "bench_training",
            "model": MODEL,
            "dim": DIM,
            "batch_size": BATCH_SIZE,
            "num_entities": graph.num_entities,
            "train_triples": triples_per_epoch,
            "autodiff_seconds_per_epoch": auto_epoch,
            "fused_seconds_per_epoch": fused_epoch,
            "fused_float32_seconds_per_epoch": f32_epoch,
            "speedup_fused_vs_autodiff": speedup,
            "speedup_float32_vs_autodiff": auto_epoch / f32_epoch,
            "min_speedup_asserted": MIN_SPEEDUP,
            "mrr_sgd_fused": mrr_fused,
            "mrr_sgd_autodiff": mrr_auto,
            "mrr_float32": mrr_f32,
            "mrr_float64": mrr_f64,
        },
        config={
            "model": MODEL,
            "dim": DIM,
            "batch_size": BATCH_SIZE,
            "num_negatives": NUM_NEGATIVES,
            "epochs": EPOCHS,
            "num_entities": 5000,
            "num_triples": 20000,
        },
    )

    assert np.array_equal(fused_history.losses, auto_history.losses) or np.allclose(
        fused_history.losses, auto_history.losses, atol=1e-9
    )
    assert abs(mrr_fused - mrr_auto) <= 1e-3, (mrr_fused, mrr_auto)
    assert abs(mrr_f32 - mrr_f64) <= FLOAT32_MRR_TOL, (mrr_f32, mrr_f64)
    assert speedup >= MIN_SPEEDUP, (
        f"fused path only {speedup:.2f}x faster (floor {MIN_SPEEDUP}x); "
        f"autodiff {auto_epoch:.3f}s vs fused {fused_epoch:.3f}s per epoch"
    )


def test_tracing_overhead_under_five_percent(best_seconds_interleaved):
    """Enabled span tracing costs <5% of a fused training epoch.

    The tracer's spans sit permanently in ``Trainer.fit``'s hot loop, so
    this is the acceptance bound that keeps them there.  Losses must
    also match bitwise — tracing never touches the RNG stream.  Every
    round trains one untraced and one traced epoch, and each side's best
    round is compared, so host drift during the run reaches both sides
    alike; the bound gets a small absolute slack for scheduler noise.
    """
    from repro.obs import set_tracing

    graph = _graph()

    def epoch(traced):
        set_tracing(traced)
        _train(graph, fused=True, epochs=1)

    set_tracing(False)
    _, baseline_history, _ = _train(graph, fused=True)
    try:
        set_tracing(True)
        _, traced_history, _ = _train(graph, fused=True)
        baseline, traced = best_seconds_interleaved(
            [partial(epoch, False), partial(epoch, True)]
        )
    finally:
        set_tracing(False)

    assert np.array_equal(baseline_history.losses, traced_history.losses), (
        "tracing must not perturb training"
    )
    assert traced <= baseline * 1.05 + 0.02, (
        f"tracing overhead too high: {traced:.4f}s vs {baseline:.4f}s per epoch "
        f"({traced / baseline - 1:+.1%})"
    )
    print(
        f"\ntracing overhead: {traced / baseline - 1:+.2%} "
        f"({baseline:.4f}s -> {traced:.4f}s per epoch)"
    )


def test_fallback_models_unchanged():
    """ConvE (no VJPs) trains through autodiff, bit-identically run to run."""
    graph = generate(
        SyntheticConfig(num_entities=300, num_relations=6, num_triples=1500, seed=1)
    ).graph

    def run():
        model = build_model("conve", graph.num_entities, graph.num_relations, dim=16, seed=0)
        assert not trains_fused(model)
        Trainer(TrainingConfig(epochs=1, loss="bce", seed=0)).fit(model, graph)
        return model.entity.data

    np.testing.assert_array_equal(run(), run())
