#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the sentbound package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload news-best --seed 1 --seconds 40 --trace 0

With ``--trace 0`` set-up and the workload's timed operations take turns
until ``--seconds`` is used up; the end-to-end metrics are medians over those
repeats. With ``--trace 1`` it runs each operation once
untraced, once with every public entry point wrapped (see tracing.py) and
once untraced again, and reports per-layer metrics from the traced pass,
workload properties and the tracing overhead. Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, whose names and units
must match BENCHMARK.json. Work files live under ``perfbench/_work/`` and are
removed at exit, except the trace file the traced run writes there.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext, redirect_stderr
from hashlib import sha256
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)


class Session:
    """One benchmark process: its work directory, samples and failure count."""

    def __init__(self, work: Path):
        self.work = work
        self.tracer = None
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: Counter[str] = Counter()
        self.digests: dict[str, str] = {}

    def op(self, ok: bool, problem: str) -> None:
        """Count one checked operation; count failures by their first ten kinds of problem."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if problem in self.problems or len(self.problems) < 10:
                self.problems[problem] += 1

    def same_digest(self, what: str, data: bytes) -> bool:
        """True unless ``data`` differs from the first output recorded as ``what``."""
        digest = sha256(data).hexdigest()
        return self.digests.setdefault(what, digest) == digest

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def cli(self, command: str, *argv: str) -> tuple[bool, float]:
        """Run ``sentbound <command> <argv>`` in-process with stderr to a log file."""
        from sentbound import cli

        log = self.work / f"{command}.log"
        with open(log, "w", encoding="utf-8") as fh, redirect_stderr(fh), self.span(f"cli.{command}"):
            t0 = perf_counter()
            try:
                rc = cli.main([command, *argv])
            except Exception:  # a traceback is a failed operation, not a crashed benchmark
                traceback.print_exc()
                rc = None
            dt = perf_counter() - t0
        self.samples[f"cli.{command}"].append(dt)
        if rc != 0:
            lines = log.read_text(encoding="utf-8").splitlines()
            self.op(False, f"sentbound {command} exited with {rc}: {lines[-1] if lines else ''}")
            return False, dt
        self.op(True, "")
        return True, dt


def _median(values: list[float]) -> float:
    return median(values) if values else 0.0


def tail_summary(samples: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if not n:
        return "n=0"
    ordered = sorted(samples)
    text = f"n={n} median={median(ordered):.6g}s"
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return text + f" p{p:g}={ordered[math.ceil(p / 100.0 * n) - 1]:.6g}s"
    return text + " (no percentile has ten samples beyond it)"


def split_shares(samples: dict[str, list[float]]) -> dict[str, float]:
    """Share of the last segmentation's boundaries that cut a token, by kind."""
    boundaries = samples["split.boundaries"][-1] if samples["split.boundaries"] else 0
    return {
        kind: samples[f"split.{kind}"][-1] / boundaries if boundaries else 0.0
        for kind in ("before_closer", "inner_mark")
    }


def end_to_end(samples: dict[str, list[float]], setup_s: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (_median(setup_s), "s"),
        "train_s": (_median(samples["train_s"]), "s"),
        "segment_words_per_s": (_median(samples["segment_words_per_s"]), "words/s"),
        "evaluate_candidates_per_s": (_median(samples["evaluate_candidates_per_s"]), "candidates/s"),
        "heldout_accuracy": (_median(samples["heldout_accuracy"]), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def timed_run(workload, session: Session, seed: int, seconds: int) -> dict:
    setup_s, digests = [], set()
    inputs = None

    def setup(session, _):
        nonlocal inputs
        t0 = perf_counter()
        inputs = workload.setup(session, seed)
        setup_s.append(perf_counter() - t0)
        digests.add(inputs.digest())

    # Run next whichever operation, set-up included, has had the least time so
    # far, so each gets about an equal share of the run and short ones give
    # many samples spread over all of it; on a shared host the speed of the
    # machine drifts over seconds, so where in the run a sample falls matters
    # as much as how many there are.
    ops = (("setup", setup), *workload.ops())
    spent = {name: 0.0 for name, _ in ops}
    last = dict(spent)
    runs = dict.fromkeys(spent, 0)
    start = perf_counter()
    while True:
        name, op = min(ops, key=lambda o: spent[o[0]])
        if runs[name] and perf_counter() - start + last[name] > seconds:
            break
        t0 = perf_counter()
        op(session, inputs)
        last[name] = perf_counter() - t0
        spent[name] += last[name]
        runs[name] += 1
    if len(digests) != 1:
        raise RuntimeError("the same seed gave different inputs")
    print(f"inputs sha256={digests.pop()} runs={runs}")
    print("boundaries cutting a token, last segmentation: "
          + " ".join(f"{k}={v:g}" for k, v in split_shares(session.samples).items()))
    print(f"timing setup: {tail_summary(setup_s)}")
    for name in sorted(session.samples):
        if name.startswith(("cli.", "pipeline.")):
            print(f"timing {name}: {tail_summary(session.samples[name])}")
    return end_to_end(session.samples, setup_s)


# Inclusive time of each traced name; ``.calls`` where per-document or
# per-candidate call counts matter.
TIMED_NAMES = (
    "corpus.load_annotated", "corpus.load_raw", "corpus.label_candidates",
    "corpus.induce_abbreviations", "candidates.tokenize_with_positions", "candidates.scan",
    "features.build_registry", "features.extract", "features.encode",
    "maxent.merge_events", "maxent.train_gis", "maxent.classify", "maxent.save_model",
    "maxent.load_model", "pipeline.events_from_labeled", "pipeline.make_classifier",
    "pipeline.byte_offsets", "evaluation.evaluate",
)
COUNTED_NAMES = (
    "candidates.tokenize_with_positions", "features.extract", "features.encode",
    "maxent.classify", "pipeline.make_classifier",
)
OVERHEAD_METRICS = ("setup_s", "train_s", "segment_words_per_s", "evaluate_candidates_per_s")


def traced_run(workload, session: Session, seed: int) -> dict:
    from sentbound import maxent
    from tracing import LAYERS, Tracer
    from workloads import properties

    def one_pass(tracer=None):
        """Set up and run each operation once: (end-to-end metrics, inputs)."""
        session.tracer, session.samples = tracer, defaultdict(list)
        t0 = perf_counter()
        with session.span("bench.setup"):
            inputs = workload.setup(session, seed)
        setup_s = perf_counter() - t0
        for _, op in workload.ops():
            op(session, inputs)
        session.tracer = None
        return end_to_end(session.samples, [setup_s]), inputs

    # Untraced, traced, untraced again: the traced pass is compared with the
    # mean of the passes around it, which cancels a steady drift in machine speed.
    before, _ = one_pass()
    tracer = Tracer()
    with tracer.installed():
        traced, _ = one_pass(tracer)
    after, inputs = one_pass()
    plain = {k: ((before[k][0] + after[k][0]) / 2, unit) for k, (_, unit) in before.items()}

    # GIS problem size and cost, from the last train_gis call the tracer saw.
    gis = dict.fromkeys(("build_s", "s_per_iter", "final_violation"), 0.0)
    gis.update(dict.fromkeys(("iterations", "contexts", "columns", "C"), 0))
    if tracer.last_gis is not None:
        events, registry, model = tracer.last_gis
        t0 = perf_counter()
        maxent.train_gis(events, registry, max_iters=0)
        gis["build_s"] = perf_counter() - t0
        gis["s_per_iter"] = (tracer.total_s("maxent.train_gis") - gis["build_s"]) / max(model.iterations, 1)
        gis["final_violation"] = model.history[-1][1]
        gis["iterations"] = model.iterations
        gis["contexts"] = len({ev.active_predicates for ev in events})
        gis["columns"] = len(model.log_alpha) + 2
        gis["C"] = model.C
    m: dict[str, tuple[float, str]] = {
        "maxent.gis.build_s": (gis["build_s"], "s"),
        "maxent.gis.s_per_iter": (gis["s_per_iter"], "s"),
        "maxent.gis.iterations": (gis["iterations"], "count"),
        "maxent.gis.final_violation": (gis["final_violation"], "ratio"),
        "maxent.gis.contexts": (gis["contexts"], "count"),
        "maxent.gis.columns": (gis["columns"], "count"),
        "maxent.gis.C": (gis["C"], "count"),
        "maxent.gis.dense_bytes_computed": (2 * gis["contexts"] * gis["columns"] * 8, "bytes"),
    }
    train_log = session.work / "train.log"
    log_lines = len(train_log.read_text(encoding="utf-8").splitlines()) if train_log.exists() else 0
    m["cli.train.log_lines"] = (log_lines, "count")
    m["maxent.model_file_bytes"] = (inputs.model.stat().st_size if inputs.model.exists() else 0, "bytes")
    for name in TIMED_NAMES:
        m[f"{name}.s"] = (tracer.total_s(name), "s")
    for name in COUNTED_NAMES:
        m[f"{name}.calls"] = (tracer.calls(name), "count")
    m["candidates.scan.candidates"] = (tracer.scan_candidates, "count")
    m["features.encode.kept_ratio"] = (tracer.encode_kept / max(tracer.encode_extracted, 1), "ratio")
    m["pipeline.segment_text.self_s"] = (tracer.self_s("pipeline.segment_text"), "s")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (tracer.layer_self_s(layer), "s")
    for name in OVERHEAD_METRICS:
        m[f"trace.overhead.{name}"] = (traced[name][0] - plain[name][0], plain[name][1])
    for kind, share in split_shares(session.samples).items():
        m[f"pipeline.split_{kind}.share"] = (share, "ratio")
    for name, (value, unit) in properties(session, inputs).items():
        m[f"workload.{name}"] = (value, unit)

    trace_file = BENCH_DIR / "_work" / "traces" / f"{workload.name}-seed{seed}.json"
    tracer.write(trace_file, {
        "workload": workload.name,
        "seed": seed,
        "untraced": {k: v for k, (v, _) in plain.items()},
        "traced": {k: v for k, (v, _) in traced.items()},
        "per_layer": {k: v for k, (v, _) in m.items()},
    })
    print(f"trace written to {trace_file.relative_to(ROOT)}")
    return m


def check_declared(metrics: dict, declared: list[dict]) -> str | None:
    want = {d["name"]: d["unit"] for d in declared}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if want == got:
        return None
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
    return f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}, unit mismatch {units}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "sentbound" / "__init__.py").is_file():
        print(f"error: no sentbound package under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import sentbound

    if Path(sentbound.__file__).resolve().parent != (src / "sentbound").resolve():
        print(f"error: imported sentbound from {sentbound.__file__}, not {src}", file=sys.stderr)
        return 2
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = BENCH_DIR / "_work" / f"run-{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(work)
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        if args.trace:
            metrics = traced_run(workload, session, args.seed)
        else:
            metrics = timed_run(workload, session, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = bench["per_layer" if args.trace else "end_to_end"]
    layer_map = {}
    if args.trace:
        layer_map = json.loads((BENCH_DIR / "layer_map.json").read_text(encoding="utf-8"))["per_layer"]
    for name, (value, unit) in metrics.items():
        moves = layer_map.get(name, {}).get("moves")
        note = f"  -> {'/'.join(moves)} on {'/'.join(layer_map[name]['on'])}" if moves else ""
        print(f"{name:<44} {value:>16.6g} {unit}{note}")
    for what, digest in sorted(session.digests.items()):
        print(f"sha256 {what}={digest}")
    print(f"failed {session.failed} of {session.attempted} operations")
    for problem, count in session.problems.items():
        print(f"FAILED {count}x: {problem}")
    problem = check_declared(metrics, declared)
    if args.trace and set(layer_map) != set(metrics):
        problem = f"layer_map.json does not cover {sorted(set(metrics) ^ set(layer_map))}"
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
