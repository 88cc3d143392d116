"""The benchmark wraps named functions of the package and reads fields of
what they return; each name must exist."""

import importlib.util
from pathlib import Path

from sentbound import maxent
from sentbound.corpus import label_candidates
from sentbound.features import Templates, build_registry, candidate_keys
from sentbound.pipeline import events_from_labeled
from sentbound.synthetic import make_corpus

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_patch_point_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCH_POINTS
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _name, _per_candidate in tracing.PATCH_POINTS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_gis_summary_fields():
    # perfbench/run.py times a second train_gis(events, registry, max_iters=0)
    # call as the GIS build, then reads these fields off the trained model.
    columns, labels = label_candidates(make_corpus(60, seed=2))
    keys = candidate_keys(Templates("portable"), columns)
    registry = build_registry(keys, Templates("portable"))
    events = events_from_labeled((keys, labels), registry)
    model = maxent.train_gis(events, registry, max_iters=5)
    build = maxent.train_gis(events, registry, max_iters=0)
    assert (build.iterations, len(build.history)) == (0, 1)
    assert model.iterations == 5
    assert model.history[-1][1] >= 0.0
    assert len(model.log_alpha) == len(registry)
    assert model.C >= 1
    assert len({ev.active_predicates for ev in events}) > 1
