#!/usr/bin/env python3
"""Generate a synthetic boundary-annotated corpus (one sentence per line)."""

import argparse

from sentbound.synthetic import make_corpus, write_corpus


def _positive(text: str) -> int:
    """argparse type: an integer of at least 1 (a corpus has a sentence)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", help="corpus file to write")
    parser.add_argument("--sentences", type=_positive, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    write_corpus(make_corpus(args.sentences, args.seed), args.output)
    print(f"wrote {args.sentences} sentences to {args.output}")


if __name__ == "__main__":
    main()
