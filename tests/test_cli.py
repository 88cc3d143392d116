import importlib.util
import json
import os
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from sentbound import pipeline
from sentbound.cli import EXIT_FORMAT, EXIT_IO, EXIT_OK, main
from sentbound.corpus import induce_abbreviations, label_candidates
from sentbound.maxent import ModelFormatError, _digest, load_model
from sentbound.synthetic import make_corpus, write_corpus


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.txt"
    write_corpus(make_corpus(120, seed=3), path)
    return path


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, corpus_file):
    path = tmp_path_factory.mktemp("model") / "model.txt"
    rc = main(
        ["train", "--corpus", str(corpus_file), "--model", str(path), "--max-iters", "300"]
    )
    assert rc == EXIT_OK
    return path


def test_train_produces_model(model_file):
    assert model_file.exists()
    assert model_file.read_text().startswith("sentbound-model v2")


def test_train_loglikelihood_logged_non_decreasing(tmp_path, corpus_file, capsys):
    out = tmp_path / "m.txt"
    rc = main(
        ["train", "--corpus", str(corpus_file), "--model", str(out), "--max-iters", "40"]
    )
    assert rc == EXIT_OK
    lls = [
        float(line.split("log-likelihood ")[1].split()[0])
        for line in capsys.readouterr().err.splitlines()
        if line.startswith("iter ")
    ]
    assert len(lls) > 1
    assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))


def test_retrain_byte_identical(tmp_path, corpus_file, model_file):
    again = tmp_path / "again.txt"
    rc = main(
        ["train", "--corpus", str(corpus_file), "--model", str(again), "--max-iters", "300"]
    )
    assert rc == EXIT_OK
    assert again.read_bytes() == model_file.read_bytes()


def test_retrain_byte_identical_whatever_the_blas_threads(tmp_path):
    # A 2000-sentence Zipfian set is large enough that a BLAS library would
    # split its products across threads; the model must not depend on that.
    root = Path(__file__).resolve().parent.parent
    zipf_path = root / "perfbench" / "zipf_corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_zipf_corpus", zipf_path)
    zipf_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(zipf_corpus)
    corpus = tmp_path / "train.txt"
    sentences = zipf_corpus.ZipfCorpus(30000, 5).sentences(2000, "5:train")
    corpus.write_text("".join(s + "\n" for s in sentences), encoding="utf-8")
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    models = []
    for threads in ("1", "2"):
        model = tmp_path / f"model-{threads}.txt"
        subprocess.run(
            [
                sys.executable, "-m", "sentbound.cli", "train", "--corpus", str(corpus),
                "--model", str(model), "--templates", "portable", "--max-iters", "100",
            ],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": pythonpath},
            check=True,
            capture_output=True,
        )
        models.append(model.read_bytes())
    assert models[0] == models[1]


# Runs each argv of the JSON list in sys.argv[1] through cli.main with numpy
# unimportable, and prints the exit codes.
WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None
import sentbound, sentbound.cli
print(json.dumps([sentbound.cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


@pytest.mark.parametrize("templates", ["best", "portable"])
def test_inference_runs_without_numpy(tmp_path, corpus_file, templates):
    model = tmp_path / "model.txt"
    rc = main(["train", "--corpus", str(corpus_file), "--model", str(model),
               "--templates", templates, "--max-iters", "50"])
    assert rc == EXIT_OK
    raw = tmp_path / "raw.txt"
    raw.write_text("Dr. Smith of Acme Corp. rose 5.4 percent. He went home!\n",
                   encoding="utf-8")

    def commands(out):
        out.mkdir()
        return [
            ["segment", "--model", str(model), "--input", str(raw),
             "--output", str(out / "segment")],
            ["segment", "--model", str(model), "--input", str(raw), "--offsets",
             "--output", str(out / "offsets")],
            ["evaluate", "--model", str(model), "--corpus", str(corpus_file),
             "--output", str(out / "evaluate")],
            ["induce-abbrevs", "--corpus", str(corpus_file), "--output", str(out / "abbrevs")],
        ]

    assert [main(argv) for argv in commands(tmp_path / "in_process")] == [EXIT_OK] * 4
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY, json.dumps(commands(tmp_path / "no_numpy"))],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [EXIT_OK] * 4
    for name in ("segment", "offsets", "evaluate", "abbrevs"):
        no_numpy, in_process = (tmp_path / run / name for run in ("no_numpy", "in_process"))
        assert no_numpy.read_bytes() == in_process.read_bytes()


def test_train_missing_corpus(tmp_path):
    rc = main(
        ["train", "--corpus", str(tmp_path / "nope.txt"), "--model", str(tmp_path / "m")]
    )
    assert rc == EXIT_IO


def test_train_best_with_missing_lexicon_file(tmp_path, corpus_file, capsys):
    rc = main(
        [
            "train", "--corpus", str(corpus_file), "--model", str(tmp_path / "m"),
            "--templates", "best", "--honorifics", str(tmp_path / "missing_lex.txt"),
        ]
    )
    assert rc == EXIT_IO
    assert "missing_lex" in capsys.readouterr().err


def test_segment_line_mode(tmp_path, model_file, capsys):
    inp = tmp_path / "raw.txt"
    inp.write_text("Acme Corp. chairman Dr. Smith resigned yesterday. Who leads Acme Corp. now?\n")
    rc = main(["segment", "--model", str(model_file), "--input", str(inp)])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2


def test_segment_no_candidates(tmp_path, model_file, capsys):
    inp = tmp_path / "raw.txt"
    inp.write_text("just words no marks\n")
    rc = main(["segment", "--model", str(model_file), "--input", str(inp)])
    assert rc == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_segment_offsets_mode_round_trip(tmp_path, model_file, capsys):
    text = "Shares of Globex Inc. fell 2.25 percent. Dr. Chen denied it!"
    inp = tmp_path / "raw.txt"
    inp.write_text(text)
    rc = main(["segment", "--model", str(model_file), "--input", str(inp), "--offsets"])
    assert rc == EXIT_OK
    offsets = [int(x) for x in capsys.readouterr().out.split()]
    data = text.encode()
    pieces, start = [], 0
    for off in offsets:
        pieces.append(data[start : off + 1])
        start = off + 1
    pieces.append(data[start:])
    assert b"".join(pieces) == data


def test_segment_offsets_builds_no_sentences(tmp_path, model_file, capsys, monkeypatch):
    text = "Shares of Globex Inc. fell 2.25 percent. Dr. Chen denied it! Ask him."
    inp = tmp_path / "raw.txt"
    inp.write_text(text)
    marks = pipeline.segment_text(load_model(model_file), text).boundary_offsets
    assert marks

    def no_sentences(model, text):
        raise AssertionError("segment --offsets joined sentences")

    monkeypatch.setattr(pipeline, "segment_text", no_sentences)
    rc = main(["segment", "--model", str(model_file), "--input", str(inp), "--offsets"])
    assert rc == EXIT_OK
    # ASCII text: byte offsets are character offsets.
    assert [int(x) for x in capsys.readouterr().out.split()] == marks


def test_segment_template_mismatch(model_file, tmp_path, capsys):
    # The model file's template_set line decides; a --templates flag is refused by
    # argparse before the model or the input is read.
    inp = tmp_path / "raw.txt"
    inp.write_text("Some text.")
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        main(
            ["segment", "--model", str(model_file), "--input", str(inp),
             "--output", str(out), "--templates", "best"]
        )
    assert exc.value.code == 2
    assert "--templates" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("templates", ["best", "portable"])
def test_evaluate_takes_no_templates_flag(model_file, corpus_file, tmp_path, templates,
                                          capsys):
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--model", str(model_file), "--corpus", str(corpus_file),
              "--output", str(out), "--templates", templates])
    assert exc.value.code == 2
    assert "--templates" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_on_training_corpus(corpus_file, model_file, capsys):
    rc = main(["evaluate", "--model", str(model_file), "--corpus", str(corpus_file)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    kv = dict(
        line.split("=", 1) for line in out.splitlines() if "=" in line and " " not in line
    )
    assert float(kv["accuracy"]) >= float(kv["baseline_token_final"])


def test_evaluate_logs_the_warnings_that_train_logs(tmp_path, model_file, capsys):
    corp = tmp_path / "c.txt"
    corp.write_text('He said "stop."\nDr. Smith left.\n', encoding="utf-8")
    assert main(["evaluate", "--model", str(model_file), "--corpus", str(corp)]) == EXIT_OK
    evaluated = capsys.readouterr()
    warnings = [line for line in evaluated.err.splitlines() if line.startswith("warning:")]
    assert warnings == [
        "warning: sentence 1 ends in token '\"stop.\"', whose last character is not a "
        "boundary mark, so it gets no boundary label"
    ]
    assert "warning:" not in evaluated.out and "candidates=3" in evaluated.out
    assert main(["train", "--corpus", str(corp), "--model", str(tmp_path / "m.txt"),
                 "--max-iters", "5"]) == EXIT_OK
    assert [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("warning:")] == warnings


def test_induce_abbrevs_example1(tmp_path, capsys):
    corp = tmp_path / "c.txt"
    corp.write_text("ANLP Corp. chairman Dr. Smith resigned.\n")
    out = tmp_path / "abbrevs.txt"
    rc = main(["induce-abbrevs", "--corpus", str(corp), "--output", str(out)])
    assert rc == EXIT_OK
    assert out.read_text() == "Corp.\nDr.\n"


def test_induce_abbrevs_memory_follows_a_group_not_the_corpus(tmp_path):
    # 10,000 synthetic sentences, written before tracing starts: 498,220
    # characters joined, and 31,011 candidates. The tracemalloc peak of this
    # call measured 8.05 MiB when the whole corpus was labeled at once, and
    # 3.24 MiB a group of 64 Ki characters at a time, most of it the corpus
    # itself.
    sentences = make_corpus(10_000, seed=2)
    corp, out = tmp_path / "c.txt", tmp_path / "abbrevs.txt"
    write_corpus(sentences, corp)
    tracemalloc.start()
    try:
        rc = main(["induce-abbrevs", "--corpus", str(corp), "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == EXIT_OK
    abbreviations = induce_abbreviations(label_candidates(sentences))
    assert out.read_text() == "".join(a + "\n" for a in sorted(abbreviations)) != ""
    assert peak < 5 * 2**20


def test_learning_curve_oversized_request(tmp_path, corpus_file, capsys):
    rc = main(
        [
            "learning-curve", "--corpus", str(corpus_file), "--input", str(corpus_file),
            "--sizes", "99999",
        ]
    )
    assert rc == EXIT_FORMAT


def test_learning_curve_oversized_request_is_refused_before_input_is_read(tmp_path, capsys):
    corpus = tmp_path / "train.txt"
    write_corpus(make_corpus(20, seed=3), corpus)
    rc = main(
        [
            "learning-curve", "--corpus", str(corpus), "--input", str(tmp_path / "missing.txt"),
            "--sizes", "21",
        ]
    )
    assert rc == EXIT_FORMAT
    assert "requested training size 21 exceeds corpus size 20" in capsys.readouterr().err


def test_learning_curve_runs(tmp_path, corpus_file, capsys):
    eval_file = tmp_path / "eval.txt"
    write_corpus(make_corpus(40, seed=8), eval_file)
    rc = main(
        [
            "learning-curve", "--corpus", str(corpus_file), "--input", str(eval_file),
            "--sizes", "30,120", "--max-iters", "100", "--seed", "7",
        ]
    )
    assert rc == EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert [r[0] for r in rows] == ["30", "120"]


def test_output_flag_writes_file(tmp_path, model_file, corpus_file):
    out = tmp_path / "report.txt"
    rc = main(
        ["evaluate", "--model", str(model_file), "--corpus", str(corpus_file), "--output", str(out)]
    )
    assert rc == EXIT_OK
    assert "accuracy=" in out.read_text()


def test_best_model_carries_its_lexicons(tmp_path, corpus_file):
    honorifics = tmp_path / "honorifics.txt"
    honorifics.write_text("Dr.\nGen.\n")
    model = tmp_path / "best.txt"
    rc = main(
        [
            "train", "--corpus", str(corpus_file), "--model", str(model),
            "--templates", "best", "--honorifics", str(honorifics), "--max-iters", "300",
        ]
    )
    assert rc == EXIT_OK
    assert load_model(model).registry.templates.honorifics == {"Dr.", "Gen."}
    raw = tmp_path / "raw.txt"
    raw.write_text("Mr. Smith met Dr. Chen of Acme Corp. today. Did Gen. Davis stay? No!\n")

    def offsets(name):
        out = tmp_path / name
        argv = ["segment", "--model", str(model), "--input", str(raw), "--offsets"]
        assert main(argv + ["--output", str(out)]) == EXIT_OK
        return out.read_bytes()

    before = offsets("before.txt")
    honorifics.unlink()
    assert offsets("after.txt") == before


def test_best_model_file_with_abbreviations_is_refused(tmp_path, corpus_file, capsys):
    model = tmp_path / "best.txt"
    argv = ["train", "--corpus", str(corpus_file), "--model", str(model), "--templates", "best"]
    assert main(argv + ["--max-iters", "5"]) == EXIT_OK
    # Add an abbreviation, and a fingerprint that matches it, so that only the
    # template set's own check can refuse the file.
    lines = model.read_text(encoding="utf-8").split("\n")
    at = lines.index("[abbreviations] 0")
    lines[at : at + 1] = ["[abbreviations] 1", "Mr."]
    lines[1] = f"fingerprint {_digest(lines[4:-2])}"
    model.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="best template set reads no abbreviations"):
        load_model(model)
    inp = tmp_path / "raw.txt"
    inp.write_text("Some text.")
    assert main(["segment", "--model", str(model), "--input", str(inp)]) == EXIT_FORMAT
    assert "best template set reads no abbreviations" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--honorifics", "x"], ["--max-iters", "5"]])
def test_segment_rejects_training_flags(tmp_path, model_file, flag):
    with pytest.raises(SystemExit) as exc:
        main(["segment", "--model", str(model_file), "--input", str(tmp_path / "raw.txt"), *flag])
    assert exc.value.code == 2


def test_segment_model_with_unknown_template_set(
    tmp_path, model_file, capsys, retag_template_set
):
    model = tmp_path / "model.txt"
    model.write_bytes(model_file.read_bytes())
    retag_template_set(model, "bogus")
    inp = tmp_path / "raw.txt"
    inp.write_text("Some text.")
    assert main(["segment", "--model", str(model), "--input", str(inp)]) == EXIT_FORMAT
    assert "unknown template set 'bogus'" in capsys.readouterr().err


def test_segment_v1_model_asks_for_retraining(tmp_path, capsys):
    old = tmp_path / "old.txt"
    old.write_text("sentbound-model v1\ntemplate_set portable\n")
    inp = tmp_path / "raw.txt"
    inp.write_text("Some text.")
    assert main(["segment", "--model", str(old), "--input", str(inp)]) == EXIT_FORMAT
    assert "retrain" in capsys.readouterr().err


def test_learning_curve_sizes_not_integers(corpus_file):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "learning-curve", "--corpus", str(corpus_file), "--input", str(corpus_file),
                "--sizes", "1,x",
            ]
        )
    assert exc.value.code == 2


def test_learning_curve_size_below_one(corpus_file, capsys):
    # Refused while parsing the command line, before either corpus is read.
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "learning-curve", "--corpus", str(corpus_file), "--input", str(corpus_file),
                "--sizes=-1,2",
            ]
        )
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_unknown_encoding_is_a_usage_error(tmp_path, model_file):
    inp = tmp_path / "raw.txt"
    inp.write_text("Some text.")
    for encoding in ("bogus", "base64"):
        with pytest.raises(SystemExit) as exc:
            main(["segment", "--model", str(model_file), "--input", str(inp), "--encoding", encoding])
        assert exc.value.code == 2


def test_segment_offsets_latin1_bytes(tmp_path, model_file, capsys):
    # One byte per character in latin-1; UTF-8 would count two for the é.
    text = "Café owner Dr. Smith resigned yesterday. Who leads Acme Corp. now?"
    inp = tmp_path / "raw.txt"
    inp.write_bytes(text.encode("latin-1"))
    argv = ["segment", "--model", str(model_file), "--input", str(inp), "--offsets"]
    assert main(argv + ["--encoding", "latin1"]) == EXIT_OK
    offsets = [int(line) for line in capsys.readouterr().out.split()]
    assert offsets == [text.index("yesterday.") + 9, len(text) - 1]


def test_segment_offsets_count_carriage_returns(tmp_path, model_file, capsys):
    # The offsets are into the file's bytes, so each CR LF counts two bytes.
    data = b"Dr. Smith resigned yesterday.\r\nWho leads Acme Corp. now?\r\n"
    inp = tmp_path / "raw.txt"
    inp.write_bytes(data)
    argv = ["segment", "--model", str(model_file), "--input", str(inp), "--offsets"]
    assert main(argv) == EXIT_OK
    offsets = [int(line) for line in capsys.readouterr().out.split()]
    assert offsets == [data.index(b"yesterday.") + 9, data.index(b"now?") + 3]


def test_output_onto_a_directory_leaves_no_tmp(tmp_path, corpus_file):
    target = tmp_path / "out"
    target.mkdir()
    argvs = [
        ["train", "--corpus", str(corpus_file), "--model", str(target), "--max-iters", "5"],
        ["induce-abbrevs", "--corpus", str(corpus_file), "--output", str(target)],
    ]
    for argv in argvs:
        assert main(argv) == EXIT_IO
        assert list(tmp_path.glob("*.tmp")) == []
        assert target.is_dir()


def written_path_argv(command, corpus_file, model_file):
    """argv of ``command`` without the flag it writes to."""
    return {
        "train": ["train", "--corpus", str(corpus_file), "--max-iters", "5"],
        "segment": ["segment", "--model", str(model_file), "--input", str(corpus_file)],
        "evaluate": ["evaluate", "--model", str(model_file), "--corpus", str(corpus_file)],
        "induce-abbrevs": ["induce-abbrevs", "--corpus", str(corpus_file)],
        "learning-curve": [
            "learning-curve", "--corpus", str(corpus_file), "--input", str(corpus_file),
            "--sizes", "30", "--max-iters", "5",
        ],
    }[command]


@pytest.mark.parametrize("path", ["", ".", "/"], ids=["empty", "dot", "root"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("train", "--model"),
        ("segment", "--output"),
        ("evaluate", "--output"),
        ("induce-abbrevs", "--output"),
        ("learning-curve", "--output"),
    ],
)
def test_a_written_path_that_names_no_file_exits_2(
    tmp_path, monkeypatch, corpus_file, model_file, command, flag, path, capsys
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*written_path_argv(command, corpus_file, model_file), flag, path])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: argument {flag}: expected a file path, got {path!r}" in err
    assert "Traceback" not in err
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize("command", ["segment", "evaluate"])
def test_undecodable_utf16_input_exits_2(tmp_path, model_file, command, capsys):
    # An even number of UTF-8 bytes with no byte-order mark: the UTF-16 codec
    # raises UnicodeError itself, not UnicodeDecodeError.
    data = tmp_path / "data.txt"
    data.write_bytes(b"The cat sat.\nIt ran off!\n\n")
    flag = "--input" if command == "segment" else "--corpus"
    argv = [command, "--model", str(model_file), flag, str(data), "--encoding", "utf-16"]
    assert main(argv) == EXIT_IO
    assert "BOM" in capsys.readouterr().err


def training_argv(command, corpus_file, model):
    if command == "train":
        return ["train", "--corpus", str(corpus_file), "--model", str(model)]
    return [
        "learning-curve", "--corpus", str(corpus_file), "--input", str(corpus_file),
        "--sizes", "30",
    ]


@pytest.mark.parametrize("command", ["train", "learning-curve"])
@pytest.mark.parametrize(
    "flag",
    [
        ["--cutoff", "0"],
        ["--cutoff", "-3"],
        ["--cutoff", "1.5"],
        ["--max-iters", "-1"],
        ["--tolerance", "nan"],
        ["--tolerance", "inf"],
        ["--tolerance", "-1"],
    ],
    ids="=".join,
)
def test_numeric_training_flags_are_checked(tmp_path, corpus_file, command, flag):
    argv = training_argv(command, corpus_file, tmp_path / "m.txt")
    with pytest.raises(SystemExit) as exc:
        main([*argv, *flag])
    assert exc.value.code == 2
    assert not (tmp_path / "m.txt").exists()


SYNTHETIC_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_synthetic_corpus.py"


@pytest.mark.parametrize("sentences", ["0", "-5", "2.5"])
def test_synthetic_corpus_script_refuses_a_count_below_one(tmp_path, monkeypatch, sentences):
    out = tmp_path / "corpus.txt"
    monkeypatch.setattr(sys, "argv", [str(SYNTHETIC_SCRIPT), str(out), "--sentences", sentences])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SYNTHETIC_SCRIPT), run_name="__main__")
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "learning-curve"])
@pytest.mark.parametrize("templates", [[], ["--templates", "portable"]], ids=["default", "portable"])
@pytest.mark.parametrize("flag", ["--honorifics", "--designators"])
def test_lexicon_flags_need_best_templates(tmp_path, corpus_file, command, templates, flag, capsys):
    argv = training_argv(command, corpus_file, tmp_path / "m.txt")
    with pytest.raises(SystemExit) as exc:
        main([*argv, *templates, flag, str(tmp_path / "missing.txt")])
    assert exc.value.code == 2
    assert f"{flag} applies to --templates best only" in capsys.readouterr().err
    assert not (tmp_path / "m.txt").exists()


@pytest.mark.parametrize("command", ["train", "learning-curve"])
@pytest.mark.parametrize("flag", ["--honorifics", "--designators"])
def test_empty_lexicon_path_is_refused(tmp_path, corpus_file, command, flag, capsys):
    argv = training_argv(command, corpus_file, tmp_path / "m.txt")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--templates", "best", flag, ""])
    assert exc.value.code == 2
    assert f"{flag}: expected a file path" in capsys.readouterr().err
    assert not (tmp_path / "m.txt").exists()


@pytest.mark.parametrize("sizes", [",", "", "2,2", "30,120,30", "0", "5,-3"])
def test_learning_curve_sizes_empty_or_repeated(corpus_file, sizes, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "learning-curve", "--corpus", str(corpus_file), "--input", str(corpus_file),
                f"--sizes={sizes}",
            ]
        )
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
