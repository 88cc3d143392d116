"""Command-line surface: train, segment, evaluate, induce-abbrevs, learning-curve.

Logs go to stderr; data to stdout or --output. Exit codes: 0 success, 2 IO
or bad command line, 3 format/contract, 4 training divergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Callable, Optional

from . import corpus as corpus_mod
from . import evaluation, features, maxent, pipeline

EXIT_OK = 0
EXIT_IO = 2
EXIT_FORMAT = 3
EXIT_TRAINING = 4


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _encoding(name: str) -> str:
    """argparse type: a text encoding the codec registry knows (utf8, latin1, ...).

    ``str.encode`` looks the name up as ``codecs.lookup`` does, and also
    refuses codecs that are not text encodings, such as base64.
    """
    try:
        "".encode(name)
    except LookupError:
        raise argparse.ArgumentTypeError(f"unknown text encoding: {name!r}") from None
    return name


def _at_least(convert: Callable[[str], float], low: float) -> Callable[[str], float]:
    """argparse type: ``convert(text)``, finite and at least ``low``."""

    def parse(text: str) -> float:
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or value < low:
            raise argparse.ArgumentTypeError(
                f"expected a finite {convert.__name__} >= {low}, got {text!r}"
            )
        return value

    return parse


def _sizes(text: str) -> list[int]:
    """argparse type: comma-separated, distinct training sizes, each at least 1."""
    try:
        sizes = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        sizes = []
    if not sizes or len(set(sizes)) != len(sizes) or min(sizes) < 1:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of distinct integers >= 1: {text!r}"
        )
    return sizes


def _file_path(text: str) -> str:
    """argparse type of every path flag: a path that names a file, which
    '', '.' and '/' do not."""
    if not Path(text).name:
        raise argparse.ArgumentTypeError(f"expected a file path, got {text!r}")
    return text


def _write_atomic(path: str, write: Callable[[Path], None]) -> None:
    """Let ``write`` fill a sibling .tmp file, then move it onto ``path``."""
    tmp = Path(path).with_suffix(Path(path).suffix + ".tmp")
    try:
        write(tmp)
        tmp.replace(path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def _write_output(text: str, output: Optional[str]) -> None:
    if output:
        _write_atomic(output, lambda tmp: tmp.write_text(text, encoding="utf-8"))
    else:
        sys.stdout.write(text)


def _lexicons(args) -> Optional[dict[str, frozenset[str]]]:
    if args.templates != "best":
        return None
    return features.load_lexicons(args.honorifics, args.designators)


def _log_warnings(corp: corpus_mod.AnnotatedCorpus) -> None:
    for warning in corpus_mod.label_warnings(corp):
        _log(f"warning: {warning}")


def cmd_train(args) -> int:
    corp = corpus_mod.load_annotated(args.corpus, encoding=args.encoding)
    model = pipeline.train_model(
        corp,
        args.templates,
        cutoff=args.cutoff,
        max_iters=args.max_iters,
        tolerance=args.tolerance,
        lexicons=_lexicons(args),
    )
    _log_warnings(corp)
    for i, (ll, viol) in enumerate(model.history):
        _log(f"iter {i}: log-likelihood {ll:.6f}  max-violation {viol:.6g}")
    n_features = sum(w is not None for pair in model.log_alpha for w in pair)
    _log(
        f"trained {args.templates} model: {len(model.registry)} predicates, "
        f"{n_features} features, C={model.C}, "
        f"{'converged' if model.converged else 'not converged'} "
        f"after {model.iterations} iterations"
    )
    _write_atomic(args.model, lambda tmp: maxent.save_model(model, tmp))
    return EXIT_OK


def cmd_segment(args) -> int:
    model = maxent.load_model(args.model)
    text = corpus_mod.load_raw(args.input, encoding=args.encoding)
    if args.offsets:
        offsets = pipeline.boundary_offsets(model, text)
        out = "".join(f"{off}\n" for off in pipeline.byte_offsets(text, offsets, args.encoding))
    else:
        out = "".join(line + "\n" for line in pipeline.segment_text(model, text).sentences)
    _write_output(out, args.output)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = maxent.load_model(args.model)
    corp = corpus_mod.load_annotated(args.corpus, encoding=args.encoding)
    report = evaluation.evaluate(model, corp)
    _log_warnings(corp)
    _write_output(evaluation.format_report(report), args.output)
    return EXIT_OK


def cmd_induce_abbrevs(args) -> int:
    corp = corpus_mod.load_annotated(args.corpus, encoding=args.encoding)
    groups = corpus_mod.label_groups(corp)
    abbrevs = frozenset().union(*map(corpus_mod.induce_abbreviations, groups))
    out = "".join(tok + "\n" for tok in sorted(abbrevs))
    _write_output(out, args.output)
    return EXIT_OK


def cmd_learning_curve(args) -> int:
    corp = corpus_mod.load_annotated(args.corpus, encoding=args.encoding)
    # Refused before the held-out corpus is read.
    evaluation.check_training_sizes(args.sizes, corp)
    eval_corp = corpus_mod.load_annotated(args.input, encoding=args.encoding)
    rows = evaluation.learning_curve(
        corp,
        eval_corp,
        args.sizes,
        args.templates,
        args.seed,
        lexicons=_lexicons(args),
        cutoff=args.cutoff,
        max_iters=args.max_iters,
        tolerance=args.tolerance,
    )
    _write_output(evaluation.format_learning_curve(rows), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentbound",
        description="Trainable maximum-entropy sentence boundary detector.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *, model=False, corpus=False, inp=False, output=True):
        p = sub.add_parser(name, help=help)
        if corpus:
            p.add_argument("--corpus", required=True, type=_file_path,
                           help="annotated corpus, one sentence per line")
        if model:
            p.add_argument("--model", required=True, type=_file_path, help="model file path")
        if inp:
            p.add_argument("--input", required=True, type=_file_path)
        if output:
            p.add_argument("--output", default=None, type=_file_path)
        p.add_argument("--encoding", default="utf-8", type=_encoding)
        p.set_defaults(func=func)
        return p

    def training(p):
        p.add_argument("--templates", choices=features.TEMPLATE_SETS, default="portable")
        p.add_argument("--cutoff", type=_at_least(int, 1), default=1)
        p.add_argument("--max-iters", type=_at_least(int, 0), default=maxent.DEFAULT_MAX_ITERS)
        p.add_argument("--tolerance", type=_at_least(float, 0), default=maxent.DEFAULT_TOLERANCE)
        p.add_argument("--honorifics", type=_file_path, default=None,
                       help="honorific lexicon file (best)")
        p.add_argument("--designators", type=_file_path, default=None,
                       help="corporate designator lexicon file (best)")

    training(command("train", cmd_train, "train a model on an annotated corpus",
                     model=True, corpus=True, output=False))

    p_seg = command("segment", cmd_segment, "segment raw text with a trained model",
                    model=True, inp=True)
    p_seg.add_argument("--offsets", action="store_true", help="emit byte offsets of boundary marks")

    command("evaluate", cmd_evaluate, "score a model against a labeled corpus",
            model=True, corpus=True)

    command("induce-abbrevs", cmd_induce_abbrevs, "induce the abbreviation list from a corpus",
            corpus=True)

    p_lc = command("learning-curve", cmd_learning_curve, "accuracy as a function of training size",
                   corpus=True, inp=True)
    training(p_lc)
    p_lc.add_argument("--sizes", required=True, type=_sizes, help="comma-separated training sizes")
    p_lc.add_argument("--seed", type=int, default=0, help="seed of the training-set shuffle")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("honorifics", "designators"):
        if getattr(args, flag, None) is not None and args.templates != "best":
            parser.error(f"--{flag} applies to --templates best only")
    try:
        return args.func(args)
    except (OSError, UnicodeError) as exc:
        _log(f"error: {exc}")
        return EXIT_IO
    except (corpus_mod.CorpusError, features.FeatureError, maxent.ModelFormatError) as exc:
        _log(f"error: {exc}")
        return EXIT_FORMAT
    except maxent.TrainingError as exc:
        _log(f"error: {exc}")
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
