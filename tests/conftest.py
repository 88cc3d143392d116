import pytest

from sentbound.corpus import corpus_from_sentences, label_candidates
from sentbound.features import load_lexicons
from sentbound.maxent import _digest
from sentbound.synthetic import make_corpus

EXAMPLE1 = "ANLP Corp. chairman Dr. Smith resigned."
DC_SENTENCE = "He lives in Washington, D.C."


@pytest.fixture
def example1_corpus():
    return corpus_from_sentences([EXAMPLE1])


@pytest.fixture
def example1_labeled(example1_corpus):
    return label_candidates(example1_corpus)


@pytest.fixture
def dc_corpus():
    return corpus_from_sentences([DC_SENTENCE])


@pytest.fixture
def two_sentence_corpus():
    return corpus_from_sentences([EXAMPLE1, DC_SENTENCE])


@pytest.fixture(scope="session")
def lexicons():
    return load_lexicons()


@pytest.fixture(scope="session")
def synthetic_train():
    return make_corpus(500, seed=11)


@pytest.fixture(scope="session")
def synthetic_eval():
    return make_corpus(200, seed=977)


@pytest.fixture
def retag_template_set():
    """Rewrite a saved model file's template_set line and its fingerprint, so
    that only the template-set check can refuse the file."""

    def retag(path, name):
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[4].startswith("template_set ")
        lines[4] = f"template_set {name}"
        lines[1] = f"fingerprint {_digest(lines[4:-2])}"
        path.write_text("\n".join(lines), encoding="utf-8")

    return retag
