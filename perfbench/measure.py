"""Timing statistics and host diagnostics for the benchmark.

Everything here is independent of the ``repro`` package: percentiles with
the tail-sample rule, the GEMM roofline probe, CPU steal time, and peak
memory of the benchmark process plus any worker processes it drives.
"""

from __future__ import annotations

import os
import resource
import threading
import time

import numpy as np

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def samples_beyond(count: int, quantile: float) -> int:
    """How many of ``count`` sorted samples lie strictly beyond ``quantile``."""
    return count - int(np.ceil(quantile * count))


def min_samples_for(quantile: float, tail: int = MIN_TAIL_SAMPLES) -> int:
    """The fewest samples that leave ``tail`` of them beyond ``quantile``."""
    count = tail
    while samples_beyond(count, quantile) < tail:
        count += 1
    return count


def percentile_ms(latencies: list[float], quantile: float) -> float:
    """The ``quantile`` of latencies given in seconds, in milliseconds."""
    return float(np.quantile(np.asarray(latencies, dtype=np.float64), quantile)) * 1e3


def unattributed_fraction(op_seconds: float, attributed_seconds: float) -> float:
    """Share of op wall time that no layer's self time covers.

    Layer self times never overlap, so their sum is the attributed part.
    A negative result would mean the layers claim more time than the ops
    took, which is a bookkeeping error rather than something to hide, so
    it is returned as is.
    """
    if op_seconds <= 0:
        raise ValueError(f"op wall time must be positive, got {op_seconds}")
    return 1.0 - attributed_seconds / op_seconds


def gemm_gflops(size: int = 192, repeats: int = 12) -> float:
    """Single-process float64 GEMM throughput, the host's compute roofline.

    Takes the best of ``repeats`` products so a descheduled repeat does not
    read as a slow host.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((size, size))
    b = rng.standard_normal((size, size))
    a @ b  # warm the BLAS code path
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return 2.0 * size**3 / best / 1e9


def cpu_times() -> tuple[int, int] | None:
    """``(steal, total)`` jiffies of all CPUs, or None where unavailable."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    values = [int(value) for value in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already included in user time.
    return steal, sum(values[:8])


def steal_fraction(before: tuple[int, int] | None, after: tuple[int, int] | None) -> float:
    """Share of CPU time the hypervisor stole between two ``cpu_times``."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def self_peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pss_mb(pid: int) -> float:
    """Proportional set size of one process: shared pages split among sharers."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class PssSampler:
    """Peak of the summed PSS of this process and the pids ``pids()`` names.

    Summing PSS counts a shared-memory segment once however many processes
    map it, which is what the pool workers' shared state needs.  A daemon
    thread samples every ``interval`` seconds until :meth:`stop`.
    """

    def __init__(self, pids, interval: float = 0.01):
        self._pids = pids
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="perfbench-pss", daemon=True)

    def sample(self) -> float:
        total = pss_mb(os.getpid()) + sum(pss_mb(pid) for pid in self._pids())
        self.peak_mb = max(self.peak_mb, total)
        return total

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self) -> "PssSampler":
        self.sample()
        self._thread.start()
        return self

    def stop(self) -> float:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.sample()
        return self.peak_mb


class Op:
    """One timed op: latency, work units, whether its output checked out.

    ``record`` (the op's output) is kept only when the caller asks for it;
    untraced runs drop it once checked, so the benchmark's own bookkeeping
    does not grow the memory it measures.
    """

    __slots__ = ("latency", "units", "ok", "error", "record")

    def __init__(self, latency: float, units: int, ok: bool, error: str | None, record=None):
        self.latency = latency
        self.units = units
        self.ok = ok
        self.error = error
        self.record = record


class CoreRotation:
    """Move the calling thread to the next allowed CPU before each op.

    A serial client that stays on one core runs fast while that core's
    private caches stay warm between ops and slow while another tenant of
    the host shares the core, and on a shared VM the two alternate for
    seconds to minutes.  Starting every op on the other core than the last
    puts each op on cold private caches, as an evaluation call after a
    training epoch is, and samples every core's conditions alike.
    """

    def __init__(self) -> None:
        self._original = (
            os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
        )
        self.cpus = sorted(self._original)

    def __call__(self, client: int, index: int) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[index % len(self.cpus)]})

    def restore(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, self._original)


def verified(verify, record) -> bool:
    """``verify(record)``, with an output it cannot check counted as wrong."""
    try:
        return bool(verify(record))
    except Exception:  # noqa: BLE001 — an uncheckable output is a failed op
        return False


def closed_loop(
    op,
    verify,
    clients: int,
    seconds: float,
    min_ops: int = 0,
    keep_records: bool = False,
    next_index: list[int] | None = None,
    before_op=None,
) -> tuple[list[Op], float]:
    """Run ``op(client, index)`` in ``clients`` closed loops for ``seconds``.

    Each client sends its next op only after the previous one returned and
    its output passed through ``verify`` (outside the op's latency).  When
    ``seconds`` ends before ``min_ops`` ops completed (long ops or a slow
    host), the loops go on until they have, for at most three times
    ``seconds`` more.  An op that raises is kept as a failed :class:`Op`, never
    re-raised.  Returns the ops of every client and the wall time until the
    last client stopped.

    ``next_index`` holds each client's next op index and is advanced in
    place, so consecutive loops continue the clients' op sequences.
    ``before_op(client, index)``, if given, runs before each op, untimed.
    """
    start = time.perf_counter()
    deadline, cutoff = start + seconds, start + 4 * seconds
    results: list[list[Op]] = [[] for _ in range(clients)]
    if next_index is None:
        next_index = [0] * clients

    def running() -> bool:
        now = time.perf_counter()
        if now < deadline:
            return True
        return now < cutoff and sum(len(done) for done in results) < min_ops

    def client(index: int) -> None:
        done = results[index]
        while running():
            count = next_index[index]
            if before_op is not None:
                before_op(index, count)
            began = time.perf_counter()
            try:
                units, record = op(index, count)
                error = None
            except Exception as exc:  # noqa: BLE001 — a failed op, counted
                units, record, error = 0, None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - began
            ok = error is None and verified(verify, record)
            done.append(Op(latency, units, ok, error, record if keep_records else None))
            next_index[index] = count + 1

    if clients == 1:
        client(0)
    else:
        threads = [
            threading.Thread(target=client, args=(index,), name=f"perfbench-client-{index}")
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - start
    return [item for per_client in results for item in per_client], wall
