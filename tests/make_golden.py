"""Golden digests of every subcommand's outputs.

`PYTHONPATH=src python tests/make_golden.py` writes seeded inputs into a
temporary directory, runs each subcommand there through `cli.run` with
relative paths, and records in tests/golden.json the sha256 of its stdout
and of every file it writes. A manifest is hashed without its
elapsed_seconds line. tests/test_golden.py reruns the same runs and
compares.

stats, eval and correct do no floating-point arithmetic beyond
conlleval's ratios, so their digests do not depend on the numerical stack.
The trainers and predict do, so golden.json also records the numpy
version and BLAS library they were made with (as bench/run.py's blas_info
reports them), and their digests are compared only on that stack.

golden.json also holds the sha256 of the repr of each synth fixture for a
few seeds. numpy does not promise Generator streams across versions, so
these are compared only on the recorded numpy.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from contrastner import cli, synth
from contrastner.corpus import TaggedSentence, write_conll

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"

# name -> (argv, files the run writes)
RUNS = {
    "stats": (["stats", "--train", "train.conll", "--dev", "conll03.txt",
               "--test", "test.conll", "--out", "stats.txt"],
              ["stats.txt", "stats.txt.manifest"]),
    "eval": (["eval", "--gold", "test.conll", "--pred", "pred.conll",
              "--out", "eval.txt"],
             ["eval.txt", "eval.txt.manifest"]),
    "eval-conll03": (["eval", "--gold", "conll03.txt", "--pred", "conll03.txt"], []),
    "correct": (["correct", "--pred", "pred.conll", "--out", "same.conll"],
                ["same.conll", "same.conll.manifest"]),
    "correct-kg": (["correct", "--pred", "acro.conll", "--kg", "snapshot.tsv",
                    "--out", "fixed.conll"],
                   ["fixed.conll", "fixed.conll.manifest"]),
    "train-ner": (["train-ner", "--train", "train.conll", "--dev", "test.conll",
                   "--epochs", "2", "--out", "ner.ckpt"],
                  ["ner.ckpt", "ner.ckpt.vocab", "ner.ckpt.tags", "ner.ckpt.manifest"]),
    "train-ner-strict": (["train-ner", "--train", "train.conll", "--dev", "test.conll",
                          "--epochs", "2", "--strict", "--out", "strict.ckpt"],
                         ["strict.ckpt", "strict.ckpt.vocab", "strict.ckpt.tags",
                          "strict.ckpt.manifest"]),
    "train-wcl": (["train-wcl", "--pairs", "pairs.tsv", "--queue", "256",
                   "--epochs", "2", "--out", "wcl.ckpt"],
                  ["wcl.ckpt", "wcl.ckpt.vocab", "wcl.ckpt.manifest"]),
    "train-wcl-queue4096": (["train-wcl", "--pairs", "pairs.tsv", "--epochs", "2",
                             "--out", "wcl4096.ckpt"],
                            ["wcl4096.ckpt", "wcl4096.ckpt.vocab",
                             "wcl4096.ckpt.manifest"]),
    # the warm starts read wcl.ckpt, so they follow train-wcl
    "train-ner-warm": (["train-ner", "--train", "train.conll", "--dev", "test.conll",
                        "--encoder", "wcl.ckpt", "--epochs", "1", "--out", "warm.ckpt"],
                       ["warm.ckpt", "warm.ckpt.vocab", "warm.ckpt.tags",
                        "warm.ckpt.manifest"]),
    "train-ner-warm-frozen": (["train-ner", "--train", "train.conll", "--dev",
                               "test.conll", "--encoder", "wcl.ckpt",
                               "--freeze-encoder", "--epochs", "1",
                               "--out", "warmfrozen.ckpt"],
                              ["warmfrozen.ckpt", "warmfrozen.ckpt.vocab",
                               "warmfrozen.ckpt.tags", "warmfrozen.ckpt.manifest"]),
    "train-ner-frozen": (["train-ner", "--train", "train.conll", "--dev", "test.conll",
                          "--freeze-encoder", "--epochs", "1", "--out", "frozen.ckpt"],
                         ["frozen.ckpt", "frozen.ckpt.vocab", "frozen.ckpt.tags",
                          "frozen.ckpt.manifest"]),
    "predict": (["predict", "--model", "ner.ckpt", "--test", "test.conll",
                 "--out", "tagged.conll"],
                ["tagged.conll", "tagged.conll.manifest"]),
    "predict-strict": (["predict", "--model", "ner.ckpt", "--test", "test.conll",
                        "--strict", "--out", "strict.conll"],
                       ["strict.conll", "strict.conll.manifest"]),
}
# runs whose outputs hold floats computed by numpy and BLAS
FLOAT_RUNS = {"train-ner", "train-ner-strict", "train-wcl", "train-wcl-queue4096",
              "train-ner-warm", "train-ner-warm-frozen", "train-ner-frozen",
              "predict", "predict-strict"}

# synth fixture -> call for one seed; pairs_fixture draws all 483 pairs
FIXTURES = {
    "ner_fixture": lambda seed: synth.ner_fixture(seed=seed, n_train=200, n_test=50),
    "pairs_fixture": lambda seed: synth.pairs_fixture(seed=seed, n_pairs=483),
    "kg_ablation_fixture": lambda seed: synth.kg_ablation_fixture(n_errors=20, seed=seed),
}
FIXTURE_SEEDS = (0, 1, 7)


def _conll03_text(sentences) -> str:
    """Four-column rows (token, POS, chunk, IOB1 tag) in documents that each
    open with a -DOCSTART- line, the layout of the CoNLL-2003 files."""
    out = []
    for i, sent in enumerate(sentences):
        if i % 7 == 0:
            out.append("-DOCSTART- -X- -X- O\n\n")
        prev = "O"
        for token, tag in zip(sent.tokens, sent.tags):
            # IOB1: an entity opens with I- unless it follows one of its type
            iob = tag if tag == "O" or prev[2:] == tag[2:] else "I-" + tag[2:]
            out.append(f"{token} NN I-NP {iob}\n")
            prev = tag
        out.append("\n")
    return "".join(out)


def _acronym_corpus():
    """Fixture sentences with three organisations, each written out once and
    once as its acronym that the prediction missed; the snapshot lists the
    written-out names."""
    train, _ = synth.ner_fixture(seed=4, n_train=120, n_test=0)
    names = [["Kanor", "Belix", "Tuvam"], ["Orvel", "Anis"],
             ["Quill", "Ember", "Rothwell", "Systems"]]
    pred = list(train)
    for k, name in enumerate(names):
        acronym = "".join(w[0] for w in name)
        pred.insert(40 * k + 20, TaggedSentence(
            [acronym, "approved", "the", "budget", "."], ["O"] * 5))
        pred.insert(40 * k, TaggedSentence(
            ["the"] + name + ["announced", "a", "plan", "."],
            ["O", "B-ORG"] + ["I-ORG"] * (len(name) - 1) + ["O"] * 4))
    snapshot = [" ".join(name) + "\tOrganisation" for name in names]
    snapshot += ["Mercer\tPerson", "Avalon\tPlace", "Apex Labs\tOrganisation"]
    return pred, snapshot


def write_inputs(root: Path):
    train, test = synth.ner_fixture(seed=3, n_train=60, n_test=40)
    write_conll(train, root / "train.conll")
    write_conll(test, root / "test.conll")
    pred = [TaggedSentence(s.tokens, ["O"] * len(s)) if i % 3 == 0 else s
            for i, s in enumerate(test)]
    write_conll(pred, root / "pred.conll")
    (root / "conll03.txt").write_text(_conll03_text(train[:30]), encoding="utf-8")
    acro, snapshot = _acronym_corpus()
    write_conll(acro, root / "acro.conll")
    (root / "snapshot.tsv").write_text("\n".join(snapshot) + "\n", encoding="utf-8")
    pairs = synth.pairs_fixture(seed=5, n_pairs=24)
    (root / "pairs.tsv").write_text(
        "".join(f"{' '.join(p.sentence)}\t{' '.join(p.positive)}\n" for p in pairs),
        encoding="utf-8")


def stack() -> dict:
    """numpy's version and the BLAS library, as bench/run.py reports them."""
    import numpy as np
    sys.path.insert(0, str(ROOT / "bench"))
    from run import blas_info
    return {"numpy": np.__version__, **blas_info()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith(".manifest"):
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"elapsed_seconds="))
    return _sha(data)


def run_digests(root: Path) -> dict:
    """Write the inputs under root, run every golden run there, and return
    {run: {"exit": code, "stdout": sha256, file: sha256, ...}}."""
    write_inputs(root)
    digests = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for name, (argv, outputs) in RUNS.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
            entry = {"exit": code, "stdout": _sha(buf.getvalue().encode("utf-8"))}
            entry.update((out, _file_digest(root / out)) for out in outputs)
            digests[name] = entry
    finally:
        os.chdir(cwd)
    return digests


def fixture_digests() -> dict:
    """{"<fixture>-<seed>": sha256 of the repr of what it returns}."""
    return {f"{name}-{seed}": _sha(repr(make(seed)).encode("utf-8"))
            for name, make in FIXTURES.items() for seed in FIXTURE_SEEDS}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_digests(Path(tmp))
    record = {"stack": stack(), "runs": digests, "fixtures": fixture_digests()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
