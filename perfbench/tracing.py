"""Spans and per-name aggregates around calls into sentbound's modules.

The tracer patches public functions where their callers look them up (a
module attribute, or a name a module imported with ``from ... import``), so
the package itself carries no tracing code. Every wrapped call adds to a
per-name aggregate of calls, inclusive time and self time; calls that are
not per-candidate also get a span record (name, start, end, parent). Spans are
capped per call edge (parent name, name), and a call whose parent span was
not kept keeps none either, so memory stays flat however many documents a run
segments while every kind of call still leaves spans.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from sentbound import corpus, evaluation, features, maxent, pipeline

# (module, attribute, traced name, per-candidate). A name listed twice is one
# function reached through two lookups; both add to the same aggregate.
PATCH_POINTS = [
    (corpus, "load_annotated", "corpus.load_annotated", False),
    (corpus, "load_raw", "corpus.load_raw", False),
    (corpus, "label_candidates", "corpus.label_candidates", False),
    (pipeline, "label_candidates", "corpus.label_candidates", False),
    (pipeline, "induce_abbreviations", "corpus.induce_abbreviations", False),
    (corpus, "scan", "candidates.scan", False),
    (pipeline, "scan", "candidates.scan", False),
    (pipeline, "tokenize_with_positions", "candidates.tokenize_with_positions", False),
    (features, "build_registry", "features.build_registry", False),
    (features, "extract_best", "features.extract", True),
    (features, "extract_portable", "features.extract", True),
    (features, "encode", "features.encode", True),
    (maxent, "merge_events", "maxent.merge_events", False),
    (maxent, "train_gis", "maxent.train_gis", False),
    (maxent, "classify", "maxent.classify", True),
    (maxent, "save_model", "maxent.save_model", False),
    (maxent, "load_model", "maxent.load_model", False),
    (pipeline, "train_model", "pipeline.train_model", False),
    (pipeline, "events_from_labeled", "pipeline.events_from_labeled", False),
    (pipeline, "segment_text", "pipeline.segment_text", False),
    (pipeline, "make_classifier", "pipeline.make_classifier", False),
    (evaluation, "make_classifier", "pipeline.make_classifier", False),
    (pipeline, "byte_offsets", "pipeline.byte_offsets", False),
    (evaluation, "evaluate", "evaluation.evaluate", False),
]

LAYERS = ("cli", "corpus", "candidates", "features", "maxent", "pipeline", "evaluation")

SPANS_PER_EDGE = 100


class Tracer:
    """Collects spans and aggregates while installed; see ``installed``."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.dropped_spans = 0
        # (parent name or None, name) -> spans kept on that call edge
        self.edge_spans: dict[tuple[str | None, str], int] = {}
        # name -> [calls, inclusive seconds, self seconds]
        self.agg: dict[str, list] = {}
        # Open frames: [child seconds, span id or None, name].
        self.stack: list[list] = []
        self.scan_candidates = 0
        self.encode_kept = 0
        self.encode_extracted = 0
        self.last_gis: tuple | None = None  # (events, registry, model) of the last train_gis

    def _enter(self, name: str, record: bool) -> tuple[list, float]:
        span_id = None
        if record:
            parent = self.stack[-1] if self.stack else None
            edge = (parent[2] if parent else None, name)
            kept = self.edge_spans.get(edge, 0)
            if kept < SPANS_PER_EDGE and (parent is None or parent[1] is not None):
                self.edge_spans[edge] = kept + 1
                span_id = len(self.spans)
                self.spans.append(None)  # filled on exit
            else:
                self.dropped_spans += 1
        frame = [0.0, span_id, name]
        self.stack.append(frame)
        return frame, perf_counter()

    def _exit(self, frame: list, t0: float) -> float:
        t1 = perf_counter()
        self.stack.pop()
        dur = t1 - t0
        name = frame[2]
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame[0]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[0] += dur
        if frame[1] is not None:
            parent_id = parent[1] if parent is not None else None
            self.spans[frame[1]] = (frame[1], parent_id, name, t0, t1)
        return dur

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one CLI call."""
        frame, t0 = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame, t0)

    def _wrap(self, name: str, fn, per_candidate: bool):
        after = {
            "candidates.scan": self._after_scan,
            "features.extract": self._after_extract,
            "features.encode": self._after_encode,
            "maxent.train_gis": self._after_train_gis,
        }.get(name)

        def traced(*args, **kwargs):
            frame, t0 = self._enter(name, not per_candidate)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, t0)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_scan(self, args, result) -> None:
        self.scan_candidates += len(result)

    def _at_inference(self) -> bool:
        return not any(frame[2] == "cli.train" for frame in self.stack)

    def _after_extract(self, args, result) -> None:
        if self.stack and self.stack[-1][2] == "features.encode" and self._at_inference():
            self.encode_extracted += len(result)

    def _after_encode(self, args, result) -> None:
        if self._at_inference():
            self.encode_kept += len(result)

    def _after_train_gis(self, args, result) -> None:
        self.last_gis = (args[0], args[1], result)

    @contextmanager
    def installed(self):
        """Patch every point in PATCH_POINTS for the duration of the block."""
        saved = []
        try:
            for module, attr, name, per_candidate in PATCH_POINTS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, per_candidate))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def calls(self, name: str) -> int:
        return self.agg.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[2]

    def layer_self_s(self, layer: str) -> float:
        """Self time of every traced name in a layer (``<layer>.<...>``)."""
        return sum(a[2] for n, a in self.agg.items() if n.split(".", 1)[0] == layer)

    def write(self, path: Path, extra: dict) -> None:
        """Write spans (start/end relative to the first span) and aggregates."""
        spans = [s for s in self.spans if s is not None]
        origin = min((s[3] for s in spans), default=0.0)
        doc = {
            "spans": [
                {"id": i, "parent": p, "name": n, "start_s": t0 - origin, "end_s": t1 - origin}
                for i, p, n, t0, t1 in spans
            ],
            "dropped_spans": self.dropped_spans,
            "aggregates": {
                n: {"calls": a[0], "total_s": a[1], "self_s": a[2]}
                for n, a in sorted(self.agg.items())
            },
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
