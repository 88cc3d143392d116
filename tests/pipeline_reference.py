"""Reference segmentation: the whole-text ``boundary_offsets`` that
``sentbound.pipeline`` ran before it read raw text slice by slice, kept
unchanged. ``sentbound.pipeline.boundary_offsets`` must give the same offsets.
"""

from __future__ import annotations

from itertools import compress

from sentbound.candidates import scan
from sentbound.maxent import Model
from sentbound.pipeline import decide


def boundary_offsets(model: Model, text: str) -> list[int]:
    """Character offsets of the marks in raw text that the model calls
    boundaries, in text order."""
    cands = scan(text)
    return list(compress(cands.positions, decide(model, cands)))
