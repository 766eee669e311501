"""In-memory spans around calls into quditsim's public functions.

A span is `[name, start, end, parent, run_id]`: `name` is `<layer>.<function>`,
times come from `time.perf_counter`, `parent` is the index of the enclosing
span (-1 for none) and `run_id` names the timed call the span belongs to.
Spans stay in memory while the benchmark runs and are written out at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id: str | None = None
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        """`fn` with every call recorded as a span named `name`."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def patched(self, module, attr: str, name: str):
        """Replace `module.attr` by its traced wrapper for the block, so calls
        the module makes through that name are recorded too."""
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original, name))
        try:
            yield
        finally:
            setattr(module, attr, original)

    def call(self, run_id: str, name: str, fn, *args, **kwargs):
        """Call `fn` under a top-level span of a new run id."""
        self.run_id = run_id
        try:
            return self.wrap(fn, name)(*args, **kwargs)
        finally:
            self.run_id = None

    def of_run(self, run_id: str) -> list[list]:
        return [s for s in self.spans if s[4] == run_id]

    def totals(self, run_id: str, name: str) -> tuple[int, float]:
        """(count, summed duration) of the spans named `name` in one run."""
        durations = [s[2] - s[1] for s in self.of_run(run_id) if s[0] == name]
        return len(durations), sum(durations)

    def self_times(self, run_id: str) -> dict[str, float]:
        """Seconds per layer in one run, each span's duration less the part
        its direct children cover. They sum to the top-level spans' time."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span[4] == run_id and span[3] >= 0:
                child_time[span[3]] = child_time.get(span[3], 0.0) + span[2] - span[1]
        layers: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span[4] == run_id:
                layer = span[0].split(".", 1)[0]
                own = span[2] - span[1] - child_time.get(index, 0.0)
                layers[layer] = layers.get(layer, 0.0) + own
        return layers

    def dump(self, path: Path, **extra) -> None:
        """Write every span, times in ns from the first span, plus `extra`."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round((start - origin) * 1e9), round((end - origin) * 1e9), parent, run_id]
            for name, start, end, parent, run_id in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump({**extra, "span_fields": ["name", "start_ns", "end_ns", "parent", "run_id"], "spans": rows}, out)
