"""Thread-safe runtime metrics with Prometheus text-format exposition.

Three metric kinds, the Prometheus core set:

* :class:`Counter` — a monotonically increasing total (requests served,
  chunks scored);
* :class:`Gauge` — a value that goes both ways (queue depth, worker
  count);
* :class:`Histogram` — fixed-bucket observations with ``sum``/``count``
  and interpolated quantiles (request latency, batch occupancy).

Every metric lives in a :class:`MetricsRegistry` and may carry a fixed
set of label names; one ``(name, label values)`` pair is one time
series.  :meth:`MetricsRegistry.render` emits the standard Prometheus
text format (``# HELP`` / ``# TYPE`` / samples, cumulative ``_bucket``
lines with ``le=`` labels), and :func:`parse_prometheus` reads it back —
the round trip is asserted in tests so any scraper sees exactly the
values the process recorded.

The implementation is deliberately dependency-free and lock-per-family:
updating a counter is a dict lookup and a float add under one small
lock, cheap enough to leave permanently enabled on the serving path.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from typing import Iterable

#: Default histogram buckets (seconds): Prometheus' canonical latency grid.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_PATTERN = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_PATTERN = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: One sample line: ``name{labels} value`` (labels optional).
_SAMPLE_PATTERN = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$"
)
_LABEL_PAIR_PATTERN = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape_label(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def _format_value(value: float) -> str:
    """Shortest exact representation (ints stay ints, floats round-trip)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared machinery: label validation and the per-family lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Iterable[str] = ()):
        if not _NAME_PATTERN.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        for label in self.label_names:
            if not _LABEL_PATTERN.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], object] = {}

    def _key(self, labels: dict[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _label_suffix(self, key: tuple[str, ...], extra: str = "") -> str:
        pairs = [
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(self.label_names, key)
        ]
        if extra:
            pairs.append(extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""

    def _header(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Metric):
    """A total that only goes up.

    Examples
    --------
    >>> counter = Counter("requests_total", labels=("endpoint",))
    >>> counter.inc(endpoint="rank")
    >>> counter.inc(3, endpoint="rank")
    >>> counter.value(endpoint="rank")
    4.0
    """

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))

    def _render(self) -> list[str]:
        lines = self._header()
        with self._lock:
            for key in sorted(self._series):
                lines.append(
                    f"{self.name}{self._label_suffix(key)} "
                    f"{_format_value(self._series[key])}"
                )
        return lines


class Gauge(_Metric):
    """A value that can rise and fall (queue depth, occupancy, config).

    Examples
    --------
    >>> gauge = Gauge("queue_depth")
    >>> gauge.set(4)
    >>> gauge.inc(2)
    >>> gauge.dec()
    >>> gauge.value()
    5.0
    """

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))

    def _render(self) -> list[str]:
        lines = self._header()
        with self._lock:
            for key in sorted(self._series):
                lines.append(
                    f"{self.name}{self._label_suffix(key)} "
                    f"{_format_value(self._series[key])}"
                )
        return lines


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, num_buckets: int):
        self.counts = [0] * num_buckets  # per-bucket, cumulated at render
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-bucket observations with interpolated quantiles.

    ``buckets`` are the ascending upper bounds of the finite buckets; an
    implicit ``+Inf`` bucket catches everything beyond the last bound.
    :meth:`quantile` interpolates linearly inside the bucket containing
    the requested rank — the standard Prometheus ``histogram_quantile``
    estimate — and clamps observations in the overflow bucket to the
    largest finite bound.

    Examples
    --------
    >>> histogram = Histogram("latency_seconds", buckets=(0.1, 1.0))
    >>> for value in (0.05, 0.05, 0.5, 2.0):
    ...     histogram.observe(value)
    >>> histogram.count()
    4
    >>> histogram.quantile(0.25)
    0.05
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help=help, labels=labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histograms need at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly ascending: {bounds}")
        self.buckets = bounds

    def _series_for_locked(self, labels: dict[str, object]) -> _HistogramSeries:
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series.setdefault(key, _HistogramSeries(len(self.buckets) + 1))
        return series  # type: ignore[return-value]

    def observe(self, value: float, **labels: object) -> None:
        index = bisect.bisect_left(self.buckets, float(value))
        with self._lock:
            series = self._series_for_locked(labels)
            series.counts[index] += 1
            series.sum += float(value)
            series.count += 1

    def count(self, **labels: object) -> int:
        with self._lock:
            series = self._series.get(self._key(labels))
            return series.count if series is not None else 0  # type: ignore[union-attr]

    def sum(self, **labels: object) -> float:
        with self._lock:
            series = self._series.get(self._key(labels))
            return series.sum if series is not None else 0.0  # type: ignore[union-attr]

    def quantile(self, q: float, **labels: object) -> float:
        """The interpolated ``q``-quantile (``0 <= q <= 1``); NaN if empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            series = self._series.get(self._key(labels))
            counts = list(series.counts) if series is not None else None
            total = series.count if series is not None else 0  # type: ignore[union-attr]
        if not total or counts is None:
            return math.nan
        target = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                if index >= len(self.buckets):
                    # Overflow bucket: no finite upper bound to interpolate
                    # toward; report the largest finite bound (Prometheus
                    # semantics).
                    return self.buckets[-1]
                lower = 0.0 if index == 0 else self.buckets[index - 1]
                upper = self.buckets[index]
                fraction = (target - previous) / bucket_count
                return lower + fraction * (upper - lower)
        return self.buckets[-1]

    def _render(self) -> list[str]:
        lines = self._header()
        with self._lock:
            for key in sorted(self._series):
                series: _HistogramSeries = self._series[key]  # type: ignore[assignment]
                cumulative = 0
                for bound, bucket_count in zip(self.buckets, series.counts):
                    cumulative += bucket_count
                    suffix = self._label_suffix(
                        key, f'le="{_format_value(bound)}"'
                    )
                    lines.append(f"{self.name}_bucket{suffix} {cumulative}")
                suffix = self._label_suffix(key, 'le="+Inf"')
                lines.append(f"{self.name}_bucket{suffix} {series.count}")
                plain = self._label_suffix(key)
                lines.append(f"{self.name}_sum{plain} {_format_value(series.sum)}")
                lines.append(f"{self.name}_count{plain} {series.count}")
        return lines


class MetricsRegistry:
    """Get-or-create home for a process' (or a service's) metrics.

    Re-requesting a name returns the existing instance — instrumented
    code can call ``registry.counter("x_total")`` at use sites without
    coordinating creation — but re-requesting with a *different* kind or
    label set is a programming error and raises.

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> registry.counter("chunks_total").inc(5)
    >>> registry.counter("chunks_total").value()
    5.0
    >>> print(registry.render(), end="")
    # TYPE chunks_total counter
    chunks_total 5
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, labels, **kwargs) -> _Metric:
        labels = tuple(labels)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.label_names != labels:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.label_names}"
                    )
                return existing
            metric = cls(name, help=help, labels=labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: Iterable[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labels: Iterable[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )  # type: ignore[return-value]

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def merge_counters(
        self,
        amounts: dict[str, float],
        labels: dict[str, object] | None = None,
        help_texts: dict[str, str] | None = None,
    ) -> None:
        """Fold amounts measured elsewhere into this registry's counters.

        Each ``name -> amount`` pair increments the same-named counter
        here, created on demand with ``labels``' names as its label set
        — the engine pool calls this with each worker reply's amounts
        and ``labels={"pool": ..., "worker": "0"}``, so every worker
        surfaces as one labelled series.  Non-positive amounts are
        skipped (counters only increase).

        Examples
        --------
        >>> registry = MetricsRegistry()
        >>> registry.merge_counters({"chunks_total": 2.0}, labels={"worker": "1"})
        >>> registry.counter("chunks_total", labels=("worker",)).value(worker="1")
        2.0
        """
        labels = dict(labels or {})
        label_names = tuple(labels)
        for name, amount in amounts.items():
            if not amount > 0.0:
                continue
            help_text = (help_texts or {}).get(name, "")
            self.counter(name, help_text, labels=label_names).inc(
                float(amount), **labels
            )

    def reset(self) -> None:
        """Forget every metric (tests; never called on a live service)."""
        with self._lock:
            self._metrics.clear()

    def render(self) -> str:
        """The Prometheus text-format exposition of every metric."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric._render())
        return "\n".join(lines) + "\n" if lines else ""

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} metrics)"


def parse_prometheus(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse Prometheus text format back into ``{(name, labels): value}``.

    Labels are a sorted tuple of ``(name, value)`` pairs so results are
    hashable and order-independent.  Comment and blank lines are
    skipped; malformed sample lines raise ``ValueError`` (the round-trip
    test exists to prove :meth:`MetricsRegistry.render` never emits one).

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> registry.counter("hits_total", labels=("kind",)).inc(2, kind="lru")
    >>> parse_prometheus(registry.render())
    {('hits_total', (('kind', 'lru'),)): 2.0}
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_PATTERN.match(line)
        if match is None:
            raise ValueError(f"unparseable sample line: {line!r}")
        name, raw_labels, raw_value = match.groups()
        labels: list[tuple[str, str]] = []
        if raw_labels:
            labels = [
                (label, _unescape_label(value))
                for label, value in _LABEL_PAIR_PATTERN.findall(raw_labels)
            ]
        value = math.inf if raw_value == "+Inf" else float(raw_value)
        samples[(name, tuple(sorted(labels)))] = value
    return samples
