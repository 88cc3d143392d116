"""Pinned outputs: train best and portable on small seeded news and Zipfian
sets through ``cli.main``, and compare the sha256 of each model file and of
the ``segment``, ``segment --offsets`` and ``evaluate`` outputs with
literals.

Model weights follow numpy's SIMD ``exp`` and ``log`` kernels in their last
bits (see ``sentbound.gis``), so each model file is pinned with its
fingerprint, weight and correction fields masked. Every other line, and
every output here, was the same with numpy's AVX-512 and AVX2 kernels. A
change that means to alter these outputs updates the literals and says why.
"""

import hashlib
import importlib.util
import re
from pathlib import Path

import pytest

from sentbound.cli import EXIT_OK, main
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
