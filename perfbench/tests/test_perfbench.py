"""Tests of the benchmark's own code: statistics, checks and tiny-graph smoke runs.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import measure  # noqa: E402
import run  # noqa: E402
from inputs import make_inputs  # noqa: E402
from layers import LayerClock  # noqa: E402
from workloads import WORKLOADS, FullEval, SampledEval, ServeMix  # noqa: E402


@pytest.fixture(scope="module")
def tiny():
    return make_inputs(3, "tiny")


def _built(workload_class, inputs, tmp_path):
    workload = workload_class(inputs, tmp_path)
    workload.setup(LayerClock())
    workload.prepare_checks()
    return workload


class TestTailRule:
    def test_p90_needs_one_hundred_samples(self):
        assert measure.min_samples_for(0.9) == 100
        assert measure.samples_beyond(100, 0.9) == 10
        assert measure.samples_beyond(99, 0.9) == 9

    def test_median_needs_twenty(self):
        assert measure.min_samples_for(0.5) == 20

    def test_percentile_in_milliseconds(self):
        latencies = [i / 1000 for i in range(1, 101)]
        assert measure.percentile_ms(latencies, 0.5) == pytest.approx(50.5)


class TestUnattributed:
    def test_share_not_covered_by_layers(self):
        assert measure.unattributed_fraction(2.0, 0.5 + 1.0) == pytest.approx(0.25)

    def test_fully_attributed_is_zero(self):
        assert measure.unattributed_fraction(1.5, 1.5) == 0.0

    def test_overclaiming_layers_go_negative(self):
        assert measure.unattributed_fraction(1.0, 1.25) == pytest.approx(-0.25)

    def test_zero_wall_rejected(self):
        with pytest.raises(ValueError):
            measure.unattributed_fraction(0.0, 0.0)


class TestLayerClock:
    def test_self_time_excludes_nested_calls(self):
        class Owner:
            @staticmethod
            def outer():
                return Owner.inner() + 1

            @staticmethod
            def inner():
                total = 0
                for i in range(20000):
                    total += i
                return total

        clock = LayerClock()
        clock.wrap(Owner, "outer", "outer")
        clock.wrap(Owner, "inner", "inner", count=lambda value: 1.0, count_name="calls")
        with clock.section("whole"):
            Owner.outer()
        assert clock.calls == {"whole": 1, "outer": 1, "inner": 1}
        assert clock.counts["calls"] == 1.0
        # Self times: the section and the outer call keep only their own
        # share, so the three never overlap.
        assert clock.seconds["inner"] > clock.seconds["outer"]
        assert clock.seconds["inner"] > clock.seconds["whole"]
        clock.restore()
        assert isinstance(vars(Owner)["outer"], staticmethod)
        assert Owner.outer() == sum(range(20000)) + 1
        assert clock.calls["outer"] == 1  # restored: no longer counted

    def test_restore_removes_instance_patch(self):
        class Thing:
            def value(self):
                return 1

        thing = Thing()
        clock = LayerClock()
        clock.wrap(thing, "value", "value")
        assert thing.value() == 1
        clock.restore()
        assert "value" not in vars(thing)


class TestFailedOps:
    def test_corrupted_sampled_rank_is_a_failed_op(self, tiny, tmp_path):
        workload = _built(SampledEval, tiny, tmp_path)
        units, record = workload.op(0, 0)
        checkpoint, ranks = record
        corrupted = (checkpoint, [(ranks[0][0], ranks[0][1] + 1.0)] + ranks[1:])
        assert measure.verified(workload.verify, record)
        assert not measure.verified(workload.verify, corrupted)

    def test_corrupted_full_rank_is_a_failed_op(self, tiny, tmp_path):
        workload = _built(FullEval, tiny, tmp_path)
        try:
            units, record = workload.op(0, 1)
            checkpoint, ranks = record
            corrupted = (checkpoint, ranks[:-1] + [(ranks[-1][0], ranks[-1][1] + 0.5)])
            assert measure.verified(workload.verify, record)
            assert not measure.verified(workload.verify, corrupted)
        finally:
            workload.close()

    def test_corrupted_serve_outputs_are_failed_ops(self, tiny, tmp_path):
        workload = _built(ServeMix, tiny, tmp_path)
        try:
            stream = tiny.requests[0]
            scored = next(j for j, kind in enumerate(stream.kinds) if kind == 2)
            ranked = next(j for j, kind in enumerate(stream.kinds) if kind == 0)
            _, score_record = workload.op(0, scored)
            _, rank_record = workload.op(0, ranked)
            kind, rows = score_record
            bad_score = (kind, [(rows[0][0], rows[0][1] + 1.0)] + rows[1:])
            anchor, relation, side, top, cached = rank_record[1]
            assert len(top) >= 2
            bad_order = ("rank", (anchor, relation, side, top[::-1], cached))
            bad_anchor = ("rank", (anchor, relation, side, [(anchor, top[0][1])] + top[1:], cached))
            checks = [
                measure.verified(workload.verify, record)
                for record in (score_record, rank_record, bad_score, bad_order, bad_anchor)
            ]
            assert checks == [True, True, False, False, False]
        finally:
            workload.close()

    def test_unverifiable_record_is_a_failed_check(self):
        def verify(record):
            raise KeyError(record)

        assert not measure.verified(verify, "anything")

    def test_closed_loop_counts_raising_and_corrupted_ops_as_failed(self):
        def op(client, index):
            if index == 0:
                raise RuntimeError("first op fails")
            return 1, ("corrupt" if index == 1 else "ok")

        ops, wall = measure.closed_loop(op, lambda record: record == "ok", 2, 0.05)
        assert wall >= 0.05
        assert sum(op.error is not None for op in ops) == 2
        assert sum(not op.ok for op in ops) == 4  # per client: one raised, one corrupted
        assert all(op.record is None for op in ops)  # dropped once checked

    def test_consecutive_loops_continue_each_clients_sequence(self):
        seen = []

        def op(client, index):
            seen.append((client, index))
            time.sleep(0.005)
            return 1, None

        next_index = [0, 0]
        for _ in range(2):
            measure.closed_loop(op, lambda record: True, 2, 0.03, next_index=next_index)
        for client in (0, 1):
            indices = [index for who, index in seen if who == client]
            assert indices == list(range(len(indices))) == list(range(next_index[client]))

    def test_closed_loop_runs_on_to_the_minimum_op_count(self):
        def op(client, index):
            time.sleep(0.02)
            return 1, None

        # About 5 ops fit in the 0.1 s run; the loop goes on to 7.
        ops, wall = measure.closed_loop(op, lambda record: True, 1, 0.1, min_ops=7)
        assert len(ops) >= 7
        assert wall < 0.25

    def test_closed_loop_extension_is_capped(self):
        def op(client, index):
            time.sleep(0.02)
            return 1, None

        # The minimum is out of reach: the loop stops at four run lengths.
        ops, wall = measure.closed_loop(op, lambda record: True, 1, 0.05, min_ops=1000)
        assert 0.2 <= wall < 0.3
        assert len(ops) < 1000


class TestSeeds:
    def test_same_seed_same_inputs(self, tiny):
        again = make_inputs(3, "tiny")
        for name in ("train", "valid", "test", "serve_queries"):
            assert np.array_equal(getattr(tiny, name), getattr(again, name))
        assert np.array_equal(tiny.requests[1].queries, again.requests[1].queries)
        assert tiny.pool_seed == again.pool_seed
        first = tiny.checkpoints[0].parameter_arrays()
        for name, array in again.checkpoints[0].parameter_arrays().items():
            assert np.array_equal(array, first[name])

    def test_other_seed_other_inputs(self, tiny):
        other = make_inputs(4, "tiny")
        assert not np.array_equal(tiny.train, other.train)
        assert tiny.pool_seed != other.pool_seed
        assert len(tiny.train) == len(other.train)  # splits cut to fixed sizes


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


COUNTS = [name for name, unit in run.PER_LAYER.items() if unit == "count"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7])
def test_smoke_untraced(workload, seed):
    result, record = run.run_workload(workload, seed, 1.0, trace=False, scale="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["seed"] == seed and record["config"]["blas_threads"] == 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced_counts_repeat(workload):
    first, _ = run.run_workload(workload, 5, 1.0, trace=True, scale="tiny")
    second, _ = run.run_workload(workload, 5, 1.0, trace=True, scale="tiny")
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == list(run.PER_LAYER)
        assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    exercised = {"sampled-eval": "engine.queries", "full-eval": "pool.publish_ms",
                 "serve-mix": "serve.batch_ms"}[workload]
    assert first["metrics"][exercised]["value"] > 0


def _child_pids() -> list[int]:
    """Pids of this process's live children, from ``/proc``."""
    children = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:  # ended while listed
                continue
            fields = stat.rsplit(")", 1)[1].split()
            if int(fields[1]) == os.getpid() and fields[0] != "Z":
                children.append(int(entry.name))
    return children


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_full_eval_leaves_no_process_running():
    run.run_workload("full-eval", 2, 1.0, trace=False, scale="tiny")
    run.stop_resource_tracker()
    assert _child_pids() == []


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full-eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
