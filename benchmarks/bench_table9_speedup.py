"""Tables 9 / 11: evaluation speed-up over the full filtered ranking.

Paper shape: small datasets leave little room (2-8x, sometimes < 1 for
KP variants); the wikikg2 column reaches two orders of magnitude.  The
scale trend is benched separately in fig3a; here we reproduce the
per-(dataset, model) table on the training studies plus one large-scale
row measured directly.
"""

from functools import partial

import numpy as np

from repro.bench import render_table, table9_speedup
from repro.core import EvaluationProtocol
from repro.datasets import load
from repro.models import build_model


def test_table9_speedup_small_datasets(benchmark, emit, emit_json, studies):
    rows = benchmark.pedantic(table9_speedup, args=(studies,), rounds=1, iterations=1)
    emit(
        "table9_speedup",
        render_table(rows, title="Table 9: evaluation speed-up vs full ranking"),
    )
    emit_json(
        "table9_speedup",
        {"bench": "bench_table9_speedup", "rows": rows},
    )
    assert len(rows) == len(studies)


def test_table9_large_scale_row(benchmark, emit, emit_json, best_seconds_interleaved):
    """The ogbl-wikikg2 column: speed-up grows with scale."""

    def measure():
        cases = []
        for name, fraction in (("wikikg2-lite", 0.02), ("wikikg2-xl", 0.02)):
            graph = load(name).graph
            model = build_model("complex", graph.num_entities, graph.num_relations, dim=32)
            protocol = EvaluationProtocol(
                graph, strategy="probabilistic", sample_fraction=fraction, seed=0
            )
            protocol.prepare()
            cases.append((name, graph.num_entities, protocol, model))
        # Both datasets' full and sampled calls share every round, so the
        # growth across datasets is timed under the same load too.
        calls = []
        for _, _, protocol, model in cases:
            calls += [partial(protocol.evaluate_full, model), partial(protocol.evaluate, model)]
        seconds = best_seconds_interleaved(calls)
        return [
            (name, entities, seconds[2 * index], seconds[2 * index + 1])
            for index, (name, entities, _, _) in enumerate(cases)
        ]

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        {
            "Dataset": name,
            "|E|": entities,
            "Full eval (s)": round(full, 2),
            "Sampled (s)": round(sampled, 3),
            "Speed-up (x)": round(full / sampled, 1),
        }
        for name, entities, full, sampled in measured
    ]
    emit(
        "table9_large_scale",
        render_table(rows, title="Table 9 (large-scale): probabilistic @ 2% of |E|"),
    )
    record = {"bench": "bench_table9_speedup"}
    for name, _, full, sampled in measured:
        prefix = name.replace("-", "_")
        record[f"{prefix}_full_seconds"] = full
        record[f"{prefix}_sampled_seconds"] = sampled
        record[f"{prefix}_speedup"] = full / sampled
    emit_json(
        "table9_large_scale",
        record,
        config={"model": "complex", "dim": 32, "strategy": "probabilistic", "fraction": 0.02},
    )
    speedups = [row["Speed-up (x)"] for row in rows]
    assert all(s > 2.0 for s in speedups)
    assert speedups[-1] > speedups[0]  # grows with |E|
