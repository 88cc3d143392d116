"""The README's documented calls, run as written."""

import re
from pathlib import Path

from sentbound.synthetic import make_corpus, write_corpus

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_prints_its_sentences(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)\n```\n", section, re.S)[1]
    # The example reads train.txt from the working directory.
    write_corpus(make_corpus(200, seed=1), tmp_path / "train.txt")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README}", "exec"), {})
    assert capsys.readouterr().out == "['Dr. Smith resigned.', 'He left.']\n"
