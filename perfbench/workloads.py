"""The three benchmark workloads: inputs made from a seed, timed operations, checks.

Each workload writes its inputs into the run's work directory in ``setup``
and lists its timed operations, in dependency order, in ``ops``. Everything reaches
the package through ``sentbound.cli.main`` or ``sentbound.pipeline.segment_text``
(plus ``sentbound.maxent.load_model`` once in the short-documents set-up).
Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from sentbound import maxent, pipeline, synthetic

from zipf_corpus import ZipfCorpus

MARKS = ".?!"
_CLOSER_FINAL = re.compile(r"[.?!][\"')\]]+$")


@dataclass
class Inputs:
    """What one set-up produced; paths are inside the run's work directory."""

    train: Path
    heldout: Path
    model: Path
    sentences: list[str]  # source sentences of the text that is segmented
    words: int  # whitespace tokens in the text that is segmented
    raw: Path | None = None  # one document, segmented through the CLI
    docs: list[str] = field(default_factory=list)  # many documents, through segment_text
    loaded_model: maxent.Model | None = None

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in (self.train, self.heldout, self.raw):
            if path is not None:
                h.update(path.read_bytes())
        for doc in self.docs:
            h.update(doc.encode() + b"\n")
        return h.hexdigest()


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(s + "\n" for s in lines), encoding="utf-8")


SENTENCES_PER_PARAGRAPH = 8


def _document(sentences: list[str]) -> str:
    n = SENTENCES_PER_PARAGRAPH
    return "\n\n".join(" ".join(sentences[i : i + n]) for i in range(0, len(sentences), n)) + "\n"


def _report_fields(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _model_converged(model_path: Path) -> bool:
    for line in model_path.read_text(encoding="utf-8").splitlines()[:12]:
        if line.startswith("converged "):
            return line == "converged 1"
    return False


def offsets_problem(text: str | bytes, offsets: list[int]) -> str | None:
    """Why boundary ``offsets`` into ``text`` (characters or bytes) are wrong, or None."""
    marks = MARKS.encode() if isinstance(text, bytes) else MARKS
    prev = -1
    for off in offsets:
        if off <= prev:
            return f"offset {off} does not increase past {prev}"
        if off >= len(text) or text[off : off + 1] not in marks:
            return f"offset {off} is not a '.', '?' or '!'"
        prev = off
    return None


_SENTENCE_END = re.compile(r"[.?!][\"')\]]*$")


def segmentation_problem(doc: str, seg) -> str | None:
    """Why ``segment_text``'s result is not ``doc`` cut into one sentence per
    boundary mark, with its text kept in order, or None."""
    problem = offsets_problem(doc, seg.boundary_offsets)
    if problem:
        return f"segment_text: {problem}"
    if any(not s or s != " ".join(s.split()) for s in seg.sentences):
        return "segment_text gave an empty or not whitespace-normalised sentence"
    if "".join(seg.sentences).replace(" ", "") != "".join(doc.split()):
        return "segment_text's sentences do not rejoin to the document's text"
    if len(seg.sentences) - len(seg.boundary_offsets) not in (0, 1):
        return f"{len(seg.sentences)} sentences for {len(seg.boundary_offsets)} boundaries"
    if any(not _SENTENCE_END.search(s) for s in seg.sentences[: len(seg.boundary_offsets)]):
        return "a sentence before a boundary does not end in its mark"
    return None


_TOKEN_REST = {str: re.compile(r"\S*"), bytes: re.compile(rb"\S*")}
_CLOSERS = {str: "\"')]", bytes: b"\"')]"}


def split_kinds(text: str | bytes, offsets: list[int]) -> Counter:
    """Count the boundaries whose mark is not the end of its token:
    ``before_closer`` when only closing quotes or brackets follow it (the
    seed's segment_text then moves the closer onto the next sentence, ROADMAP
    item 4a), ``inner_mark`` otherwise (a decimal or an abbreviation called a
    boundary). Neither is a failed operation; accuracy covers wrong calls."""
    kinds: Counter = Counter()
    rest_re, closers = _TOKEN_REST[type(text)], _CLOSERS[type(text)]
    for off in offsets:
        rest = rest_re.match(text, off + 1).group()
        if rest:
            kinds["inner_mark" if rest.strip(closers) else "before_closer"] += 1
    return kinds


def record_splits(session, kinds: Counter, boundaries: int) -> None:
    """Keep one segmentation pass's boundary count and token-cutting boundaries."""
    session.samples["split.boundaries"].append(boundaries)
    for kind in ("before_closer", "inner_mark"):
        session.samples[f"split.{kind}"].append(kinds[kind])


def cli_train(session, inputs: Inputs, train_args: tuple[str, ...]) -> bool:
    """``sentbound train``; retraining must give the same model file."""
    ok, dt = session.cli(
        "train", "--corpus", str(inputs.train), "--model", str(inputs.model), *train_args,
    )
    if ok:
        session.samples["train_s"].append(dt)
        same = session.same_digest("model", inputs.model.read_bytes())
        session.op(same, "retraining gave a different model file")
    return ok


def evaluate(session, inputs: Inputs) -> None:
    """``sentbound evaluate`` on the held-out corpus; accuracy must beat both baselines."""
    report = session.work / "report.txt"
    ok, dt = session.cli(
        "evaluate", "--model", str(inputs.model), "--corpus", str(inputs.heldout),
        "--output", str(report),
    )
    if not ok:
        return
    kv = _report_fields(report.read_text(encoding="utf-8"))
    n = int(kv["candidates"])
    accuracy = (n - int(kv["fp"]) - int(kv["fn"])) / n
    beats = accuracy > float(kv["baseline_all_yes"]) and accuracy > float(kv["baseline_token_final"])
    session.op(beats, f"accuracy {accuracy:.4f} does not beat both baselines")
    session.samples["evaluate_candidates_per_s"].append(n / dt)
    session.samples["heldout_accuracy"].append(accuracy)


class CliWorkload:
    """Train, segment one large document with ``--offsets``, and evaluate,
    each as one in-process CLI call."""

    name = ""
    train_args: tuple[str, ...] = ()
    must_converge = False

    def make_sentences(self, seed: int) -> tuple[list[str], list[str], list[str]]:
        """(training, held-out, raw-text) sentences for ``seed``."""
        raise NotImplementedError

    def setup(self, session, seed: int) -> Inputs:
        train, heldout, raw = self.make_sentences(seed)
        inputs = Inputs(
            train=session.work / "train.txt",
            heldout=session.work / "heldout.txt",
            model=session.work / "model.txt",
            raw=session.work / "raw.txt",
            sentences=raw,
            words=sum(len(s.split()) for s in raw),
        )
        _write_lines(inputs.train, train)
        _write_lines(inputs.heldout, heldout)
        inputs.raw.write_text(_document(raw), encoding="utf-8")
        return inputs

    def ops(self):
        return (("train", self.train), ("segment", self.segment), ("evaluate", evaluate))

    def train(self, session, inputs: Inputs) -> None:
        if cli_train(session, inputs, self.train_args) and self.must_converge:
            session.op(_model_converged(inputs.model), "model did not converge")

    def segment(self, session, inputs: Inputs) -> None:
        offsets = session.work / "offsets.txt"
        ok, dt = session.cli(
            "segment", "--model", str(inputs.model), "--input", str(inputs.raw),
            "--offsets", "--output", str(offsets),
        )
        if ok:
            session.samples["segment_words_per_s"].append(inputs.words / dt)
            text = offsets.read_text(encoding="utf-8")
            raw, offs = inputs.raw.read_bytes(), [int(line) for line in text.splitlines()]
            problem = offsets_problem(raw, offs) if offs else "no boundary found in the whole document"
            session.op(problem is None, f"segment --offsets: {problem}")
            record_splits(session, split_kinds(raw, offs), len(offs))
            same = session.same_digest("offsets", text.encode())
            session.op(same, "segmenting again gave different offsets")


class NewsBest(CliWorkload):
    """The *best* system on the package's synthetic news text."""

    name = "news-best"
    TRAIN, HELDOUT, RAW = 2000, 5000, 10000  # sentences
    train_args = ("--templates", "best", "--tolerance", "1e-3", "--max-iters", "50000")
    must_converge = True

    def make_sentences(self, seed):
        return tuple(
            list(synthetic.make_corpus(n, 3 * seed + k).sentences)
            for k, n in enumerate((self.TRAIN, self.HELDOUT, self.RAW))
        )


VOCAB = 30000


class ZipfPortable(CliWorkload):
    """The *portable* system on a Zipfian 30k-word vocabulary."""

    name = "zipf-portable"
    TRAIN, HELDOUT, RAW = 2000, 4000, 10000  # sentences
    # An explicit budget, so training time does not follow DEFAULT_MAX_ITERS.
    train_args = ("--templates", "portable", "--max-iters", "100")

    def make_sentences(self, seed):
        zc = ZipfCorpus(VOCAB, seed)
        return tuple(
            zc.sentences(n, f"{seed}:{role}")
            for role, n in (("train", self.TRAIN), ("heldout", self.HELDOUT), ("raw", self.RAW))
        )


class ShortDocs:
    """Many short documents through ``pipeline.segment_text``, one call each,
    with a *portable* model trained during set-up."""

    name = "short-docs"
    TRAIN, HELDOUT, DOCS = 1000, 4000, 8000  # sentences, sentences, documents
    train_args = ("--templates", "portable", "--max-iters", "100")

    def setup(self, session, seed: int) -> Inputs:
        zc = ZipfCorpus(VOCAB, seed)
        rng = random.Random(f"{seed}:docs")
        docs_sents = [
            [zc.sentence(rng) for _ in range(rng.randint(1, 5))] for _ in range(self.DOCS)
        ]
        docs = [" ".join(sents) for sents in docs_sents]
        inputs = Inputs(
            train=session.work / "train.txt",
            heldout=session.work / "heldout.txt",
            model=session.work / "model.txt",
            sentences=[s for sents in docs_sents for s in sents],
            words=sum(len(d.split()) for d in docs),
            docs=docs,
        )
        _write_lines(inputs.train, zc.sentences(self.TRAIN, f"{seed}:train"))
        _write_lines(inputs.heldout, zc.sentences(self.HELDOUT, f"{seed}:heldout"))
        if cli_train(session, inputs, self.train_args):
            inputs.loaded_model = maxent.load_model(inputs.model)
        return inputs

    def ops(self):
        return (("segment_text", self.segment_docs), ("evaluate", evaluate))

    def segment_docs(self, session, inputs: Inputs) -> None:
        """One pass over all documents; one sample of words/s."""
        model = inputs.loaded_model
        if model is None:
            session.op(False, "no model to segment with")
            return
        times = session.samples["pipeline.segment_text"]
        h = hashlib.sha256()
        busy = 0.0
        kinds: Counter = Counter()
        boundaries = 0
        with session.span("bench.short_docs"):
            for doc in inputs.docs:
                t0 = perf_counter()
                seg = pipeline.segment_text(model, doc)
                dt = perf_counter() - t0
                busy += dt
                times.append(dt)
                problem = segmentation_problem(doc, seg)
                session.op(problem is None, problem)
                kinds += split_kinds(doc, seg.boundary_offsets)
                boundaries += len(seg.boundary_offsets)
                h.update(repr(seg.boundary_offsets).encode() + b"\n")
        record_splits(session, kinds, boundaries)
        session.samples["segment_words_per_s"].append(inputs.words / busy)
        same = session.same_digest("offsets", h.digest())
        session.op(same, "segmenting again gave different offsets")


WORKLOADS = {w.name: w for w in (NewsBest(), ZipfPortable(), ShortDocs())}


def properties(session, inputs: Inputs) -> dict[str, tuple[float, str]]:
    """Input properties a later optimisation may depend on, with units."""
    marks = sum(s.count(".") + s.count("?") + s.count("!") for s in inputs.sentences)
    types = {tok for s in inputs.sentences for tok in s.split()}
    n_docs = len(inputs.docs) or 1
    closer = sum(1 for s in inputs.sentences if _CLOSER_FINAL.search(s))

    abbrevs_path = session.work / "abbrevs.txt"
    ok, _ = session.cli(
        "induce-abbrevs", "--corpus", str(inputs.train), "--output", str(abbrevs_path)
    )
    abbrevs = set(abbrevs_path.read_text(encoding="utf-8").split()) if ok else set()
    held_cands = held_abbrev = 0
    for line in inputs.heldout.read_text(encoding="utf-8").splitlines():
        for tok in line.split():
            n = sum(tok.count(m) for m in MARKS)
            held_cands += n
            if tok in abbrevs:
                held_abbrev += n
    return {
        "candidates_per_1k_words": (1000.0 * marks / inputs.words, "count/kword"),
        "word_types": (len(types), "count"),
        "mean_doc_words": (inputs.words / n_docs, "words"),
        "closer_final_share": (closer / len(inputs.sentences), "ratio"),
        "heldout_abbrev_share": (held_abbrev / held_cands, "ratio"),
    }
