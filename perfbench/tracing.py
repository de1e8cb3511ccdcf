"""Spans around the benchmark's calls into rostop, kept in memory.

Spans are recorded from the benchmark's side of each call, so a span's time
is inclusive of everything the library does below it; work one layer does
inside another (for example ``asymptotics`` inside ``hardness_bound``) is not
separable here.  A disabled tracer only calls through, so the untraced
passes that give the end-to-end numbers pay one extra Python call per layer
call and nothing else.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    """One timed interval: ``parent`` is the id of the enclosing span or -1."""

    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int
    run_id: str
    size: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    """Records spans and per-run counters when ``enabled``; otherwise only calls through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = ""
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, size: int | None = None):
        """Call ``fn(*args)``; when enabled, record a span named ``<layer>.<function>``."""
        if not self.enabled:
            return fn(*args)
        start = time.perf_counter_ns()
        out = fn(*args)
        end = time.perf_counter_ns()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(len(self.spans), name, start, end, parent, self.run_id, size))
        return out

    @contextmanager
    def span(self, name: str):
        """Parent span for the calls made inside the ``with`` block."""
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        # placeholder keeps ids equal to list positions while children append
        self.spans.append(Span(idx, name, 0, 0, parent, self.run_id, None))
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = Span(idx, name, start, end, parent, self.run_id, None)

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counters[self.run_id][name] += amount

    def runs(self, prefix: str) -> list[str]:
        """Run ids starting with ``prefix``, in the order they were first seen."""
        return list(dict.fromkeys(s.run_id for s in self.spans if s.run_id.startswith(prefix)))

    def self_ms(self) -> dict[str, dict[str, float]]:
        """Per run id, each layer's self time: span time minus the time of its children."""
        child_ms = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child_ms[s.parent] += s.ms
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            out[s.run_id][s.layer] += s.ms - child_ms[s.id]
        return out

    def call_ms(self, name: str, run_prefix: str, size: int | None = None) -> list[float]:
        """Durations of every span called ``name`` in runs starting with ``run_prefix``."""
        return [
            s.ms
            for s in self.spans
            if s.name == name and s.run_id.startswith(run_prefix) and (size is None or s.size == size)
        ]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
