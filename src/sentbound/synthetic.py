"""Seeded synthetic news-style corpora with boundaries known by construction.

Sentences mix honorifics, corporate designators, decimals, embedded-period
abbreviations (including sentence-final absorption like "D.C."), questions and
exclamations, so both template systems have something to learn.
"""

from __future__ import annotations

import random

from .corpus import AnnotatedCorpus

FIRST_NAMES = ["John", "Mary", "Alice", "Robert", "Susan", "David", "Karen", "Peter"]
LAST_NAMES = ["Smith", "Jones", "Brown", "Chen", "Garcia", "Miller", "Davis", "Wilson"]
HONORIFICS = ["Dr.", "Mr.", "Mrs.", "Ms.", "Gen.", "Prof."]
DESIGNATORS = ["Corp.", "Inc.", "Co.", "Ltd."]
COMPANIES = ["Acme", "Globex", "Initech", "Stark", "Wayne", "Hooli"]
PLACES = ["Washington", "Boston", "Chicago", "Denver", "Austin"]
ABSORBED = ["D.C.", "U.S.", "U.K."]
DECIMALS = ["1.5", "2.25", "3.1", "4.75", "5.4", "7.2", "8.9", "10.5", "12.75", "0.8"]
VERBS = ["said", "reported", "announced", "confirmed", "denied"]
MONTHS = ["Jan.", "Feb.", "Mar.", "Oct.", "Nov.", "Dec."]


def _sentence(rng: random.Random) -> str:
    hon = rng.choice(HONORIFICS)
    first = rng.choice(FIRST_NAMES)
    last = rng.choice(LAST_NAMES)
    company = rng.choice(COMPANIES)
    desig = rng.choice(DESIGNATORS)
    place = rng.choice(PLACES)
    absorbed = rng.choice(ABSORBED)
    dec = rng.choice(DECIMALS)
    verb = rng.choice(VERBS)
    month = rng.choice(MONTHS)
    templates = [
        f"{hon} {last} of {company} {desig} {verb} profits rose {dec} percent.",
        f"{company} {desig} chairman {hon} {last} resigned yesterday.",
        f"{first} {last} moved to {place} , {absorbed}",
        f"Shares of {company} {desig} fell {dec} percent in {place} trading.",
        f"Did {hon} {last} meet {hon} {rng.choice(LAST_NAMES)} in {month} {rng.randint(1, 28)} ?",
        f"{hon} {last} {verb} the merger with {company} {desig} was off!",
        f"Analysts expect growth of {dec} percent , {hon} {last} {verb}.",
        f"The {absorbed} office of {company} {desig} opened on {month} {rng.randint(1, 28)} .",
        f"Who leads {company} {desig} now?",
        f"{first} {last} asked whether {company} shares hit {dec} dollars.",
    ]
    return rng.choice(templates)


def make_corpus(n_sentences: int, seed: int) -> AnnotatedCorpus:
    rng = random.Random(seed)
    return AnnotatedCorpus(tuple(_sentence(rng) for _ in range(n_sentences)))


def write_corpus(corpus: AnnotatedCorpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sent in corpus.sentences:
            fh.write(sent + "\n")
