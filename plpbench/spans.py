"""Span tracing from outside the engine.

``install`` replaces each public function in ``TARGETS`` at the module
attribute through which the engine calls it (``credalplp.models.is_stable``
is looked up as a global inside ``stable_models``, so wrapping that attribute
sees every call). A span records its name, start, end, parent span and query
id; generator functions get one span per ``next()``, because the consumer runs
between items. Counts are taken in the same wrappers.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

# (module, attribute, span name, kind); several attributes may share a name
TARGETS = (
    ("credalplp.cli", "run", "cli.run", "call"),
    ("credalplp.syntax", "parse_program", "syntax.parse_program", "call"),
    ("credalplp.syntax", "parse_query", "syntax.parse_query", "call"),
    ("credalplp.grounding", "ground", "grounding.ground", "call"),
    ("credalplp.grounding", "dependency_graph", "grounding.classify", "call"),
    ("credalplp.grounding", "classify", "grounding.classify", "call"),
    ("credalplp.inference", "credal_unconditional", "inference.query", "call"),
    ("credalplp.inference", "credal_conditional", "inference.query", "call"),
    ("credalplp.inference", "wf_query", "inference.query", "call"),
    ("credalplp.inference", "total_choices", "inference.total_choices", "gen"),
    ("credalplp.inference", "program_for_choice", "inference.program_for_choice", "call"),
    ("credalplp.inference", "eval_event", "inference.event_eval", "call"),
    ("credalplp.inference", "truth3_in", "inference.event_eval", "call"),
    ("credalplp.inference", "stable_models", "models.stable_models", "gen"),
    ("credalplp.inference", "well_founded_model", "models.well_founded_model", "call"),
    ("credalplp.models", "well_founded_model", "models.well_founded_model", "call"),
    ("credalplp.models", "alternating_iterates", "models.alternating_iterates", "call"),
    ("credalplp.models", "is_stable", "models.is_stable", "call"),
    ("credalplp.models", "reduct", "models.reduct", "call"),
)


class Tracer:
    """Spans of every traced query, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[list] = []  # [query, span, parent, name, start, end]
        self.stack: list[list] = []
        self.counts: Counter = Counter()
        self.query = -1
        self._first = 0

    def open(self, name: str) -> list:
        parent = self.stack[-1][1] if self.stack else -1
        span = [self.query, len(self.spans), parent, name, time.perf_counter(), 0.0]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self.stack.pop()

    def begin(self, query: int) -> None:
        self.query = query
        self._first = len(self.spans)
        self.counts.clear()

    def summary(self) -> dict:
        """Per span name of the current query: total seconds, self seconds
        (duration minus the time its child spans cover) and calls; plus the
        counts."""
        spans = self.spans[self._first:]
        child = Counter()
        for span in spans:
            if span[2] >= 0:
                child[span[2]] += span[5] - span[4]
        names: dict[str, list] = {}
        for span in spans:
            duration = span[5] - span[4]
            row = names.setdefault(span[3], [0.0, 0.0, 0])
            row[0] += duration
            row[1] += duration - child[span[1]]
            row[2] += 1
        return {"spans": names, "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        keys = ("query", "span", "parent", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _call_wrapper(tracer, fn, name, on_result):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


class _TracedIterator:
    def __init__(self, tracer, name, iterator, on_item):
        self.tracer, self.name, self.iterator, self.on_item = tracer, name, iterator, on_item

    def __iter__(self):
        return self

    def __next__(self):
        span = self.tracer.open(self.name)
        try:
            item = next(self.iterator)
        finally:
            self.tracer.close(span)
        if self.on_item is not None:
            self.on_item(item)
        return item


def _gen_wrapper(tracer, fn, name, on_item):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TracedIterator(tracer, name, fn(*args, **kwargs), on_item)

    return wrapper


def _hooks(counts: Counter) -> dict:
    """Counts taken at the wrappers, keyed by (module, attribute); call
    counts come from the spans themselves. A model is one stable model
    yielded to inference, or one well-founded model computed by the
    well-founded sweep."""

    def ground(g):
        counts["grounding.atoms"] += g.n_atoms
        counts["grounding.rules"] += len(g.rules)
        counts["grounding.choice_points"] += len(g.choice_points)

    def choice(_):
        counts["inference.choices"] += 1

    def model(_):
        counts["models.models"] += 1

    def iterates(result):
        counts["models.fixpoint_rounds"] += len(result)

    def stable(result):
        counts["models.is_stable.true"] += result is True

    return {
        ("credalplp.grounding", "ground"): ground,
        ("credalplp.inference", "total_choices"): choice,
        ("credalplp.inference", "stable_models"): model,
        ("credalplp.inference", "well_founded_model"): model,
        ("credalplp.models", "alternating_iterates"): iterates,
        ("credalplp.models", "is_stable"): stable,
    }


def install(tracer: Tracer) -> None:
    """Wrap every target. Fails loudly when one is missing, so that a rename
    in the engine cannot silently report zero for a layer."""
    found = []
    for module_name, attr, name, kind in TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise RuntimeError(
                f"trace target {module_name}.{attr} is missing; "
                "update TARGETS in plpbench/spans.py"
            )
        found.append((module, attr, fn, name, kind))

    hooks = _hooks(tracer.counts)
    for module, attr, fn, name, kind in found:
        make = _gen_wrapper if kind == "gen" else _call_wrapper
        setattr(module, attr, make(tracer, fn, name, hooks.get((module.__name__, attr))))
