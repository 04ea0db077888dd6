"""Per-layer timing from outside the program: wrap a layer's calls, sum self time.

:class:`LayerClock` replaces a function or method on its owner (module,
class or instance) with a timing wrapper and puts the original back on
:meth:`restore`.  Time is kept as *self* time: a wrapped call made inside
another wrapped call is subtracted from the outer one, so the layers'
seconds never overlap and can be summed against the op wall clock.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

_MISSING = object()


class LayerClock:
    """Self seconds, call counts and work counts of wrapped layer calls."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: Callable[[Any], float] | None = None,
        count_name: str | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` under ``name``.

        ``count(result)`` (optional) adds a work count under ``count_name``.
        """
        original = getattr(owner, attr)
        section = self.section

        def timed(*args, **kwargs):
            with section(name):
                result = original(*args, **kwargs)
            if count is not None:
                amount = count(result)
                with self._lock:
                    self.counts[count_name or name] += amount
            return result

        self.patch(owner, attr, timed)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr`` with ``replacement`` until :meth:`restore`."""
        own = vars(owner).get(attr, _MISSING) if hasattr(owner, "__dict__") else _MISSING
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, own))

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Time a block as layer ``name``, less the wrapped calls inside it."""
        stack = self._stack()
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            inner = stack.pop()
            if stack:
                stack[-1] += elapsed
            with self._lock:
                self.seconds[name] += elapsed - inner
                self.calls[name] += 1

    def restore(self) -> None:
        """Put every wrapped attribute back as it was."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def reset(self) -> None:
        """Forget the totals (the wrappers stay in place)."""
        with self._lock:
            self.seconds.clear()
            self.calls.clear()
            self.counts.clear()


def span_totals(summary: dict | None, name: str) -> tuple[float, int, dict[str, float]]:
    """Seconds, count and counters of every ``name`` span in a tracer summary."""
    seconds, count = 0.0, 0
    counters: dict[str, float] = defaultdict(float)
    pending = list((summary or {}).get("spans", []))
    while pending:
        node = pending.pop()
        if node["name"] == name:
            seconds += node["seconds"]
            count += node["count"]
            for key, value in node.get("counters", {}).items():
                counters[key] += value
        pending.extend(node.get("children", []))
    return seconds, count, dict(counters)
