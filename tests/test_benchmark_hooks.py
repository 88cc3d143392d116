"""The benchmark wraps named functions of the package; each name must exist."""

import importlib.util
from pathlib import Path

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
