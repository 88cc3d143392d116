"""Trainable maximum-entropy sentence boundary detector."""

from .candidates import Candidate, Candidates, scan
from .corpus import (
    AnnotatedCorpus,
    induce_abbreviations,
    label_candidates,
    load_annotated,
    load_raw,
)
from .evaluation import EvaluationReport, evaluate, learning_curve
from .maxent import Model, classify, conditional_yes, load_model, save_model, train_gis
from .pipeline import segment_text, train_model

__version__ = "0.1.0"

__all__ = [
    "AnnotatedCorpus",
    "Candidate",
    "Candidates",
    "EvaluationReport",
    "Model",
    "classify",
    "conditional_yes",
    "evaluate",
    "induce_abbreviations",
    "label_candidates",
    "learning_curve",
    "load_annotated",
    "load_model",
    "load_raw",
    "save_model",
    "scan",
    "segment_text",
    "train_gis",
    "train_model",
]
