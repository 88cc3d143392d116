"""Pinned outputs: train best and portable on small seeded news and Zipfian
sets through ``cli.main``, and compare the sha256 of each model file and of
the ``segment``, ``segment --offsets`` and ``evaluate`` outputs with
literals; likewise each ``learning-curve`` and ``induce-abbrevs`` output.

Model weights follow numpy's SIMD ``exp`` and ``log`` kernels in their last
bits (see ``sentbound.gis``), so each model file is pinned with its
fingerprint, weight and correction fields masked. Every other line, and
every output here, was the same with numpy's AVX-512 and AVX2 kernels. The
weights are pinned apart, within ``WEIGHT_TOLERANCE``, through five sums
over the loaded model (``weight_sums``). A change that means to alter these
outputs updates the literals and says why.
"""

import hashlib
import importlib.util
import math
import re
from itertools import chain
from pathlib import Path

import pytest

from sentbound.cli import EXIT_OK, main
from sentbound.maxent import load_model
from sentbound.synthetic import make_corpus

ZIPF_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "zipf_corpus.py"

# A whole tab-separated field holding a float.hex() weight.
_WEIGHT = re.compile(r"(?<=\t)-?0x[0-9a-f.]+p[+-]\d+(?=\t|$)", re.M)

PINNED = {
    ("news", "best"): {
        "model": "0f2b57f8b8b67361f9abc1a31ea9d662972d868f08cdaa0b0999e05102d4c775",
        "segment": "c9422beac6008902f4984f597c80c3140cfbd755d13c36f78265887afe4fc861",
        "offsets": "8521e0210f989f3577a0cbb02eed699e353dc2d4d3c094e4fc3b2265df24ae07",
        "evaluate": "a32b51beb4628d0a2d6d02133be8051df5e71756bfdf78675050a04879f20151",
    },
    ("news", "portable"): {
        "model": "c3a45100e4ffc96e8a77bd898018342764ee3c7c65d6a03d39ee08a83e7c8bf2",
        "segment": "c9422beac6008902f4984f597c80c3140cfbd755d13c36f78265887afe4fc861",
        "offsets": "8521e0210f989f3577a0cbb02eed699e353dc2d4d3c094e4fc3b2265df24ae07",
        "evaluate": "a32b51beb4628d0a2d6d02133be8051df5e71756bfdf78675050a04879f20151",
    },
    ("zipf", "best"): {
        "model": "18fb5557b4e0b304751f6360a966a3833ba6488759cdf5d44a3968d8efff9667",
        "segment": "aa3da3a2308067263d4452e72d0bfd5ae1b9e74a5cf1e59973c926fb887502fa",
        "offsets": "4462bab8b57c951eb8d069ddf754740df678944a52bb81a9c1cfe797e8d9ceb4",
        "evaluate": "58ee0a237fa2b1a7ae6f179d72e0e8ceb4b31d9537a2eb05631de80c198c2d53",
    },
    ("zipf", "portable"): {
        "model": "cf3d58031a30982dfb0d292c197347c47aa01ec389b0add811a34e422d056762",
        "segment": "89461ed0dfa901d2e7d242a86faed4204515979f039a83562f99d2c06ab2702f",
        "offsets": "e784a2741228afae93f561ed18b2e882121b0b80506dd7bbdf0540fba59774c6",
        "evaluate": "fcd1a67c4dfa4cd4475b5f289bf422a54d61bc2f1ce29182e8a3c6aa00687c22",
    },
}

# ``learning-curve --sizes 100,300 --max-iters 5000`` per corpus kind and
# template set, and ``induce-abbrevs`` per corpus kind (it takes no template
# set).
PINNED_CURVES = {
    ("news", "best"): "1ddee4dd01324ab583f2ed433173cd628b857d45244ae569cb5f0a9187a55aa4",
    ("news", "portable"): "1f8b7e50285d64abdf513fc159b83fa25bbaec15dfb709ed62cc7a77853210f4",
    ("zipf", "best"): "932179235aa6fa3f88174a2441817fa4aa256abc6572e6de9437a488c66264cc",
    ("zipf", "portable"): "2c4655eaa598e2da47bb211c1a82a886f3918f0158047ec9fe3c82c743010fc1",
}
PINNED_ABBREVS = {
    "news": "6fb250fdabcae560e86f25aa6d56684e15ed5af90937e5324016890fc0b30cfd",
    "zipf": "c6b819c6d4a32dbd1b30f55e8b359704b872ad1101354907bab5c435a17813e8",
}

# ``weight_sums`` of each model of ``PINNED``. Between numpy's AVX-512 and
# AVX2 kernels these sums differed by at most 1.2e-13; no sum exceeds 2.3e3.
PINNED_WEIGHTS = {
    ("news", "best"): (
        -0.6162354873624575, -0.5211586297179764,
        69.86884541402227, 305.1282591274127, 49.12892004930113,
    ),
    ("news", "portable"): (
        -2.226672737321142, -0.889145913281143,
        125.39598421608082, 587.021729927084, 76.51661876846028,
    ),
    ("zipf", "best"): (
        -1.5481159391764236, -0.23077965662263134,
        408.9377035311968, 978.40803308075, 211.65648799430505,
    ),
    ("zipf", "portable"): (
        -1.903857191376771, -1.5528235090670892,
        995.5178874069634, 2207.267986703032, 509.9238318357766,
    ),
}
WEIGHT_TOLERANCE = 1e-10


def _zipf_sentences():
    spec = importlib.util.spec_from_file_location("perfbench_zipf_corpus", ZIPF_PATH)
    zipf_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(zipf_corpus)
    zc = zipf_corpus.ZipfCorpus(30000, 5)
    roles = (("train", 300), ("heldout", 300), ("raw", 100))
    return [zc.sentences(n, f"5:{role}") for role, n in roles]


def _news_sentences():
    return [list(make_corpus(n, seed).sentences) for n, seed in ((300, 15), (300, 16), (100, 17))]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Per corpus kind: (training, held-out, raw document) paths."""
    out = {}
    for kind, sentences in (("news", _news_sentences()), ("zipf", _zipf_sentences())):
        base = tmp_path_factory.mktemp(kind)
        train, heldout, raw = (base / name for name in ("train.txt", "heldout.txt", "raw.txt"))
        train.write_text("".join(s + "\n" for s in sentences[0]), encoding="utf-8")
        heldout.write_text("".join(s + "\n" for s in sentences[1]), encoding="utf-8")
        doc = sentences[2]
        raw.write_text("\n\n".join(" ".join(doc[i : i + 5]) for i in range(0, len(doc), 5)) + "\n",
                       encoding="utf-8")
        out[kind] = (train, heldout, raw)
    return out


def masked(model_text: str) -> str:
    """The model file with its fingerprint, weights and corrections masked."""
    return _WEIGHT.sub("*", re.sub(r"^fingerprint .*$", "fingerprint *", model_text, flags=re.M))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def weight_sums(model) -> tuple[float, ...]:
    """The (yes, no) corrections, then sums over the fitted weights w of the
    (yes, no) slots numbered i from 0 in registry order: of w, of w squared,
    and of (i + 1) * w divided by the number of slots, so that every value
    stays within a few times the weights' own sum."""
    slots = list(chain.from_iterable(model.log_alpha))
    fitted = [(i, w) for i, w in enumerate(slots) if w is not None]
    return (
        *model.corrections,
        math.fsum(w for _, w in fitted),
        math.fsum(w * w for _, w in fitted),
        math.fsum((i + 1) * w for i, w in fitted) / len(slots),
    )


@pytest.mark.parametrize("kind, templates", sorted(PINNED))
def test_outputs_match_the_pinned_digests(inputs, tmp_path, kind, templates):
    train, heldout, raw = inputs[kind]
    model = tmp_path / "model.txt"
    rc = main(["train", "--corpus", str(train), "--model", str(model),
               "--templates", templates, "--max-iters", "5000"])
    assert rc == EXIT_OK
    digests = {"model": _sha256(masked(model.read_text(encoding="utf-8")).encode())}
    for name, argv in (
        ("segment", ["segment", "--model", str(model), "--input", str(raw)]),
        ("offsets", ["segment", "--model", str(model), "--input", str(raw), "--offsets"]),
        ("evaluate", ["evaluate", "--model", str(model), "--corpus", str(heldout)]),
    ):
        out = tmp_path / f"{name}.txt"
        assert main([*argv, "--output", str(out)]) == EXIT_OK
        digests[name] = _sha256(out.read_bytes())
    assert digests == PINNED[kind, templates]


@pytest.mark.parametrize("kind, templates", sorted(PINNED_CURVES))
def test_learning_curve_matches_the_pinned_digest(inputs, tmp_path, kind, templates):
    train, heldout, _ = inputs[kind]
    out = tmp_path / "curve.csv"
    rc = main(["learning-curve", "--corpus", str(train), "--input", str(heldout),
               "--templates", templates, "--sizes", "100,300", "--max-iters", "5000",
               "--output", str(out)])
    assert rc == EXIT_OK
    assert _sha256(out.read_bytes()) == PINNED_CURVES[kind, templates]


@pytest.mark.parametrize("kind", sorted(PINNED_ABBREVS))
def test_induced_abbreviations_match_the_pinned_digest(inputs, tmp_path, kind):
    out = tmp_path / "abbrevs.txt"
    assert main(["induce-abbrevs", "--corpus", str(inputs[kind][0]), "--output", str(out)]) == EXIT_OK
    assert _sha256(out.read_bytes()) == PINNED_ABBREVS[kind]


@pytest.mark.parametrize("kind, templates", sorted(PINNED_WEIGHTS))
def test_weights_match_the_pinned_sums(inputs, tmp_path, kind, templates):
    # Loading the file also checks its fingerprint against its contents.
    model = tmp_path / "model.txt"
    rc = main(["train", "--corpus", str(inputs[kind][0]), "--model", str(model),
               "--templates", templates, "--max-iters", "5000"])
    assert rc == EXIT_OK
    sums = weight_sums(load_model(model))
    assert sums == pytest.approx(PINNED_WEIGHTS[kind, templates], rel=0, abs=WEIGHT_TOLERANCE)
