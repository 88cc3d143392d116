"""Seeded Zipfian large-vocabulary corpus with boundaries known by construction.

Words are drawn from a pseudo-word vocabulary with Zipf rank weights, so a
few types are frequent and most are rare, as in news text. Around them the
generator places the punctuation a boundary detector has to get right:

* abbreviations inside a sentence (``Dr.``, ``e.g.``, ``No.``, ``vs.``);
* ``U.S.``, ``Inc.`` and ``a.m.`` both inside a sentence and absorbed at its
  end, where one period is both the abbreviation's and the sentence's;
* decimals such as ``3.25``;
* sentences ending in ``?`` and ``!``;
* sentences ending in ``."`` and ``.)``, whose period the current corpus
  labeling marks as a non-boundary.

The vocabulary depends on ``(vocab_size, seed)``; each stream of sentences
has a seed of its own, so training, held-out and raw text share words but
not sentences.
"""

from __future__ import annotations

import random
from itertools import accumulate

ZIPF_EXPONENT = 1.0

_ONSETS = ["", "b", "br", "d", "f", "g", "h", "k", "l", "m", "n", "p", "pr",
           "r", "s", "st", "t", "tr", "v", "w", "z", "ch", "sh", "th"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ou"]
_CODAS = ["", "", "n", "r", "s", "l", "m", "t", "nd", "st"]

HONORIFICS = ["Dr.", "Mr.", "Mrs.", "Ms.", "Prof.", "Gen."]
MID_ABBREVS = ["e.g.", "i.e.", "vs.", "etc.", "approx."]
ABSORBABLE = ["U.S.", "Inc.", "a.m."]


def _pseudo_word(rng: random.Random) -> str:
    return "".join(
        rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
        for _ in range(rng.choice((1, 2, 2, 3, 3, 4)))
    )


def _distinct_words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        word = _pseudo_word(rng)
        if len(word) > 1 and word not in taken:
            taken.add(word)
            out.append(word)
    return out


class ZipfCorpus:
    """Sentence generator over a seeded Zipfian vocabulary of ``vocab_size`` words."""

    def __init__(self, vocab_size: int, seed: int):
        if vocab_size < 100:
            raise ValueError("vocab_size must be at least 100")
        rng = random.Random(f"zipf-vocab:{vocab_size}:{seed}")
        taken: set[str] = set()
        self.words = _distinct_words(rng, vocab_size, taken)
        self.names = [w.capitalize() for w in _distinct_words(rng, max(vocab_size // 20, 50), taken)]
        self._word_cum = list(accumulate(1.0 / r**ZIPF_EXPONENT for r in range(1, len(self.words) + 1)))
        self._name_cum = list(accumulate(1.0 / r**ZIPF_EXPONENT for r in range(1, len(self.names) + 1)))

    def _name(self, rng: random.Random) -> str:
        return rng.choices(self.names, cum_weights=self._name_cum)[0]

    def sentence(self, rng: random.Random) -> str:
        toks = rng.choices(self.words, cum_weights=self._word_cum, k=rng.randint(5, 20))
        toks[0] = toks[0].capitalize()

        def put(*new: str) -> None:
            i = rng.randint(1, len(toks) - 1)
            toks[i:i] = new

        if rng.random() < 0.15:
            put(rng.choice(HONORIFICS), self._name(rng))
        if rng.random() < 0.10:
            put(rng.choice(MID_ABBREVS))
        if rng.random() < 0.06:
            put("No.", str(rng.randint(1, 99)))
        if rng.random() < 0.08:
            put("the", "U.S.")
        if rng.random() < 0.06:
            put(self._name(rng), "Inc.")
        if rng.random() < 0.05:
            put("at", str(rng.randint(1, 12)), "a.m.")
        if rng.random() < 0.15:
            put(f"{rng.randint(0, 99)}.{rng.randint(1, 99)}")
        if rng.random() < 0.25:
            i = rng.randint(0, len(toks) - 2)
            toks[i] += ","

        end = rng.random()
        if end < 0.08:
            # Absorbed abbreviation: its period also ends the sentence.
            toks += {"U.S.": ["in", "the", "U.S."],
                     "Inc.": [self._name(rng), "Inc."],
                     "a.m.": ["at", str(rng.randint(1, 12)), "a.m."]}[rng.choice(ABSORBABLE)]
        elif end < 0.14:
            toks[-1] += "?"
        elif end < 0.18:
            toks[-1] += "!"
        elif end < 0.23:
            i = rng.randint(1, len(toks) - 1)
            toks[i] = '"' + toks[i]
            toks[-1] += '."'
        elif end < 0.27:
            i = rng.randint(1, len(toks) - 1)
            toks[i] = "(" + toks[i]
            toks[-1] += ".)"
        else:
            toks[-1] += "."
        return " ".join(toks)

    def sentences(self, n: int, stream_seed: str) -> list[str]:
        rng = random.Random(stream_seed)
        return [self.sentence(rng) for _ in range(n)]
