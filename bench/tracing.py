"""Outside-in tracing: spans around the package's public names.

``traced`` rebinds the names that ``trolldetect.cli``, ``trolldetect.pipeline``
and ``trolldetect.thread`` look up at call time, so the package itself is
not edited.  Coarse calls become one span each (name, start, end, parent);
hot leaf calls (``conflict`` runs once per message pair) are summed per
parent span into one record of call count and total time.  Everything is
kept in memory; ``Tracer.dump`` writes it out when the benchmark ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import trolldetect.cli as cli
import trolldetect.pipeline as pipeline
import trolldetect.thread as thread

# (module, attribute, span name, leaf?)
PATCHES = (
    (cli, "load_thread", "thread.load", False),
    (thread, "thread_from_dict", "thread.from_dict", False),
    (cli, "write_json_atomic", "thread.write", False),
    (cli, "thread_to_dict", "thread.to_dict", False),
    (cli, "generate", "simulate.generate", False),
    (cli, "analyze", "pipeline.analyze", False),
    (pipeline, "kmeans2", "clustering.kmeans2", False),
    (pipeline, "conflict", "conflict.conflict", True),
    (cli, "conflict", "conflict.conflict", True),
    (cli, "inclusion_degree", "conflict.inclusion_degree", True),
    (cli, "symmetric_inclusion", "conflict.symmetric_inclusion", True),
    (cli, "jousselme_distance", "belief.jousselme_distance", True),
)


class Tracer:
    """Spans of one traced pass, held in memory."""

    def __init__(self):
        self.spans: list[dict] = []  # id = index; parent = index or None
        self.leaves: dict[tuple[int | None, str], list] = {}  # -> [calls, seconds]
        self._stack: list[int] = []

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            record = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(record)
            self._stack.append(len(self.spans) - 1)
            record["start"] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record["end"] = perf_counter()
                self._stack.pop()

        return wrapper

    def leaf(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                key = (self._stack[-1] if self._stack else None, name)
                entry = self.leaves.get(key)
                if entry is None:
                    self.leaves[key] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

        return wrapper

    def total(self, name: str) -> float:
        """Summed duration of every span or leaf record with this name."""
        spans = sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)
        return spans + sum(v[1] for (_, n), v in self.leaves.items() if n == name)

    def calls(self, name: str) -> int:
        spans = sum(1 for s in self.spans if s["name"] == name)
        return spans + sum(v[0] for (_, n), v in self.leaves.items() if n == name)

    def self_times(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus the time its
        child spans and leaf records cover; leaves count whole."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        layers: dict[str, float] = {}
        for (parent, name), (_, seconds) in self.leaves.items():
            if parent is not None:
                child[parent] += seconds
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        for i, s in enumerate(self.spans):
            layer = s["name"].split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + s["end"] - s["start"] - child[i]
        return layers

    def to_dict(self) -> dict:
        return {
            "spans": [dict(s, id=i) for i, s in enumerate(self.spans)],
            "leaves": [
                {"parent": p, "name": n, "calls": c, "seconds": t}
                for (p, n), (c, t) in self.leaves.items()
            ],
        }


@contextmanager
def traced(tracer: Tracer):
    """Route the patched names through ``tracer`` for the duration."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in PATCHES]
    try:
        for module, attr, name, is_leaf in PATCHES:
            fn = getattr(module, attr)
            setattr(module, attr, (tracer.leaf if is_leaf else tracer.span)(name, fn))
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def dump(passes: list[Tracer], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([t.to_dict() for t in passes], fh)
