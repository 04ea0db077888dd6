"""Benchmark fixtures: result emission and the shared training-study cache.

Benchmarks print their paper-style tables *and* persist them under
``benchmarks/results/`` so a run leaves a durable reproduction record
(``EXPERIMENTS.md`` quotes those files).  Speed-up benches additionally
write machine-readable ``BENCH_<name>.json`` records (the ``emit_json``
fixture) so the perf trajectory is trackable across PRs.

The training studies behind Tables 6-9 are expensive (train a model,
evaluate it fully every epoch), so they are computed once per pytest
process and shared by every bench that consumes them — and routed through
a persistent :class:`repro.store.ExperimentStore` under
``benchmarks/results/store``, so a *re-run* of the suite (same code, same
configs) reloads every study from the artifact cache instead of
retraining, and the fig/table benches share pools and ground truths.
Delete that directory (or run ``repro cache gc``) to force a cold run.
"""

from __future__ import annotations

import json
import os
import time
from functools import lru_cache
from pathlib import Path

import pytest

from repro.bench import run_training_study, stamp_bench_record
from repro.store import ExperimentStore

RESULTS_DIR = Path(__file__).parent / "results"

#: Where BENCH_*.json perf records land; the CI gate redirects fresh
#: candidate records away from the committed baselines with this.
BENCH_RESULTS_DIR = Path(os.environ.get("REPRO_BENCH_RESULTS", RESULTS_DIR))

#: The persistent store every benchmark study goes through.
STORE = ExperimentStore(RESULTS_DIR / "store")

#: The (dataset, model) grid the correlation/MAE/speed-up benches train.
STUDY_GRID: tuple[tuple[str, str], ...] = (
    ("codex-s-lite", "transe"),
    ("codex-s-lite", "distmult"),
    ("codex-s-lite", "complex"),
    ("codex-s-lite", "rescal"),
    ("codex-m-lite", "complex"),
    ("codex-m-lite", "conve"),
)

STUDY_EPOCHS = 6


@lru_cache(maxsize=None)
def _study(dataset_name: str, model_name: str):
    return run_training_study(
        dataset_name,
        model_name,
        epochs=STUDY_EPOCHS,
        dim=16,
        sample_fraction=0.1,
        with_kp=True,
        kp_triples=150,
        seed=0,
        store=STORE,
    )


@pytest.fixture(scope="session")
def studies():
    """All grid studies (trained lazily, cached for the whole session)."""
    return [_study(dataset, model) for dataset, model in STUDY_GRID]


@pytest.fixture(scope="session")
def codex_s_studies():
    """The >= 3-model single-dataset slice Table 8 needs."""
    return [
        _study(dataset, model)
        for dataset, model in STUDY_GRID
        if dataset == "codex-s-lite"
    ]


@pytest.fixture
def emit():
    """Print a rendered table and persist it under benchmarks/results/."""

    def _emit(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n")

    return _emit


def _jsonable(value):
    """numpy scalars/arrays -> plain Python for json.dumps."""
    if hasattr(value, "item") and getattr(value, "size", 1) == 1:
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"not JSON-serialisable: {type(value)!r}")


@pytest.fixture
def emit_json():
    """Persist a machine-readable perf record as BENCH_<name>.json.

    Records are stamped (schema version, timestamp, config fingerprint
    when the bench passes ``config=``) and land in ``BENCH_RESULTS_DIR``
    — ``benchmarks/results/`` unless ``$REPRO_BENCH_RESULTS`` redirects
    them (the CI gate's candidate directory).
    """

    def _emit(name: str, payload: dict, config: dict | None = None) -> None:
        BENCH_RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = BENCH_RESULTS_DIR / f"BENCH_{name}.json"
        stamped = stamp_bench_record(payload, config=config)
        path.write_text(
            json.dumps(stamped, indent=2, sort_keys=True, default=_jsonable) + "\n",
            encoding="utf-8",
        )
        print(f"\n[perf record] {path}")

    return _emit


@pytest.fixture
def best_seconds_interleaved():
    """``best(calls, rounds=5)``: each call's fastest of ``rounds`` timed
    runs, the calls alternating round by round.  A burst of host
    contention then slows one round of every call, not every round of
    one, so it cannot decide their ratios.  Every other round runs the
    calls in reverse order, so no call always runs first or always
    follows the same neighbour.  Every timing assert that compares two
    sides of a bench times them this way."""

    def best(calls, rounds: int = 5) -> list[float]:
        seconds = [float("inf")] * len(calls)
        order = list(range(len(calls)))
        for _ in range(rounds):
            for index in order:
                start = time.perf_counter()
                calls[index]()
                seconds[index] = min(seconds[index], time.perf_counter() - start)
            order.reverse()
        return seconds

    return best
