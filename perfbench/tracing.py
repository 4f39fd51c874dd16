"""Per-layer tracing of the gradedload pipeline from outside the package.

Each traced function is wrapped by rebinding its name in the namespace of
the module that calls it (``gradedload.system.mellin_m`` is the name
``build_grid`` looks up), so the package itself is never edited.  A name
that a later version of the package no longer has is skipped and reports
zero calls.

The tracer keeps a stack of open spans.  On exit a span adds its duration to
its parent, so self time is the span's duration minus the time its traced
children covered.  Spans are aggregated in memory as they close: per name
the call count, total and self time and the error classes raised, and per
(parent, child) pair the call count.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

ROOT = "-"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: Counter = field(default_factory=Counter)


class Tracer:
    """Wraps functions in place and aggregates their spans.

    ``hooks`` maps a span name to ``hook(args, kwargs, result, sizes)``, called after
    each successful call so that a count can be computed from argument or
    result sizes at the boundary where the work happens.
    """

    def __init__(self, hooks: dict | None = None) -> None:
        self.hooks = hooks or {}
        self.stats: dict[str, SpanStats] = {}
        self.edges: Counter = Counter()
        self.sizes: Counter = Counter()
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def reset(self) -> None:
        self.stats.clear()
        self.edges.clear()
        self.sizes.clear()

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def install(self, points) -> None:
        """Rebind each ``(calling module, attribute, span name)`` point."""
        for module_name, attr, name in points:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def remove(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        stack = self._stack
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]  # span name, time covered by traced children
            stack.append(frame)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                duration = perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                stats = self.stats.get(name)
                if stats is None:
                    stats = self.stats[name] = SpanStats()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                if error is not None:
                    stats.errors[error] += 1
                self.edges[(parent[0] if parent else ROOT, name)] += 1
            if hook is not None:
                hook(args, kwargs, result, self.sizes)
            return result

        return traced

    def summary_lines(self, ops: int) -> list[str]:
        """Human-readable per-span table and call tree, per operation."""
        lines = ["trace: span calls/op total_s/op self_s/op errors"]
        for name, s in sorted(self.stats.items(), key=lambda kv: -kv[1].self_s):
            errors = ",".join(f"{k}:{v}" for k, v in sorted(s.errors.items())) or "-"
            lines.append(
                f"trace: {name} {s.calls / ops:.6g} {s.total_s / ops:.6g} "
                f"{s.self_s / ops:.6g} {errors}"
            )
        for (parent, child), calls in sorted(self.edges.items()):
            lines.append(f"trace-edge: {parent} > {child} {calls / ops:.6g}/op")
        return lines
