"""CLI subcommands: wiring, config files, exit codes, manifests."""
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrastner import cli, encoder, kg, synth
from contrastner.corpus import TaggedSentence, parse_conll, write_conll
from contrastner.params import ParamStore, load_params, save_params


@pytest.fixture
def capsysbytes(capsys):
    return capsys


def write_corpus(tmp_path, name, sentences):
    path = tmp_path / name
    write_conll(sentences, path)
    return path


def small_corpus():
    return [
        TaggedSentence(["john", "smith", "spoke"], ["B-PER", "I-PER", "O"]),
        TaggedSentence(["visit", "paris"], ["O", "B-LOC"]),
    ]


def write_pairs(tmp_path, name="pairs.tsv", n=12):
    pairs = synth.pairs_fixture(seed=0, n_pairs=n)
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as f:
        for p in pairs:
            f.write(" ".join(p.sentence) + "\t" + " ".join(p.positive) + "\n")
    return path


def manifest_of(out_path) -> dict:
    text = (str(out_path) + ".manifest")
    with open(text, encoding="utf-8") as f:
        return dict(line.rstrip("\n").split("=", 1) for line in f if "=" in line)


def test_no_command_exits_nonzero(capsys):
    assert cli.run([]) == 1
    capsys.readouterr()


def test_unknown_flag_exits_nonzero(capsys):
    assert cli.run(["eval", "--golden", "x"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("stats", "train-wcl", "train-ner", "predict", "correct",
                 "eval"):
        assert name in out


def test_stats_output(tmp_path, capsys):
    train = write_corpus(tmp_path, "train.conll", small_corpus())
    assert cli.run(["stats", "--train", str(train)]) == 0
    out = capsys.readouterr().out
    assert "[train] sentences=2 tokens=5 entities=2 LOC=1 PER=1" in out


def test_stats_rejects_a_tag_with_no_type(tmp_path, capsys):
    train = tmp_path / "train.conll"
    train.write_text("a B-\nb I-\n")
    assert cli.run(["stats", "--train", str(train)]) == 2
    assert f"error: data: {train}:1: malformed tag 'B-'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "correct"])
def test_malformed_tag_is_data_error(tmp_path, capsys, command):
    good = write_corpus(tmp_path, "good.conll", small_corpus())
    bad = tmp_path / "bad.conll"
    bad.write_text("john B-PER\nsmith XYZ\nspoke O\n\nvisit O\nparis B-LOC\n")
    out = str(tmp_path / "out.txt")
    argv = (["eval", "--gold", str(good), "--pred", str(bad)] if command == "eval"
            else ["correct", "--pred", str(bad), "--out", out])
    assert cli.run(argv) == 2
    assert f"error: data: {bad}:2: malformed tag 'XYZ'" in capsys.readouterr().err


def test_stats_requires_a_split(capsys):
    assert cli.run(["stats"]) == 1
    assert "error: config:" in capsys.readouterr().err


def test_stats_missing_file_is_data_error(tmp_path, capsys):
    assert cli.run(["stats", "--train", str(tmp_path / "nope.conll")]) == 2
    assert "error: data:" in capsys.readouterr().err


def test_eval_identity(tmp_path, capsys):
    gold = write_corpus(tmp_path, "gold.conll", small_corpus())
    assert cli.run(["eval", "--gold", str(gold), "--pred", str(gold)]) == 0
    out = capsys.readouterr().out
    assert "FB1:  100.00" in out


def test_eval_requires_both_files(capsys):
    assert cli.run(["eval", "--gold", "g.conll"]) == 1
    capsys.readouterr()


def test_eval_misaligned_files_are_data_error(tmp_path, capsys):
    gold = write_corpus(tmp_path, "gold.conll", small_corpus())
    pred = write_corpus(tmp_path, "pred.conll", small_corpus()[:1])
    assert cli.run(["eval", "--gold", str(gold), "--pred", str(pred)]) == 2
    err = capsys.readouterr().err
    assert f"error: data: {pred}: 2 gold sentences vs 1 predicted" in err


def test_eval_token_mismatch_is_data_error(tmp_path, capsys):
    sents = small_corpus()
    gold = write_corpus(tmp_path, "gold.conll", sents)
    sents[1] = TaggedSentence(["visit", "rome"], ["O", "B-LOC"])
    pred = write_corpus(tmp_path, "pred.conll", sents)
    assert cli.run(["eval", "--gold", str(gold), "--pred", str(pred)]) == 2
    err = capsys.readouterr().err
    assert f"error: data: {pred}: sentence 1: gold and predicted tokens differ" in err


def test_train_wcl_writes_checkpoint_and_sidecars(tmp_path, capsys):
    pairs = write_pairs(tmp_path)
    out = tmp_path / "enc.bin"
    rc = cli.run(["train-wcl", "--pairs", str(pairs), "--out", str(out),
                  "--epochs", "1", "--queue", "8", "--emb", "8",
                  "--enc-hidden", "4", "--seed", "3"])
    assert rc == 0
    assert out.exists()
    assert (tmp_path / "enc.bin.vocab").exists()
    stdout = capsys.readouterr().out
    assert "epoch 1 mean_loss=" in stdout
    man = manifest_of(out)
    assert man["seed"] == "3"
    assert man["queue"] == "8"
    assert "elapsed_seconds" in man
    assert man["pairs_count"] == "12"


def test_train_wcl_deterministic_checkpoints(tmp_path, capsys):
    pairs = write_pairs(tmp_path)
    blobs = []
    for name in ("a.bin", "b.bin"):
        out = tmp_path / name
        rc = cli.run(["train-wcl", "--pairs", str(pairs), "--out", str(out),
                      "--epochs", "2", "--queue", "8", "--emb", "8",
                      "--enc-hidden", "4", "--seed", "7"])
        assert rc == 0
        blobs.append(out.read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]


def test_train_wcl_validates_config(tmp_path, capsys):
    pairs = write_pairs(tmp_path)
    rc = cli.run(["train-wcl", "--pairs", str(pairs),
                  "--out", str(tmp_path / "x.bin"), "--tau", "-1"])
    assert rc == 1
    capsys.readouterr()


def training_input(tmp_path, command) -> list:
    if command == "train-ner":
        return ["--train", str(write_corpus(tmp_path, "train.conll", small_corpus()))]
    return ["--pairs", str(write_pairs(tmp_path))]


@pytest.mark.parametrize("flag, command, message", [
    pytest.param(flag, command, "emb_dim and hidden must be >= 1", id=f"{flag}-{command}")
    for flag in ("--emb", "--enc-hidden") for command in ("train-ner", "train-wcl")
] + [pytest.param("--hidden", "train-ner", "hidden size must be >= 1",
                  id="--hidden-train-ner")])
def test_zero_encoder_width_is_config_error(tmp_path, capsys, flag, command, message):
    data = training_input(tmp_path, command)
    out = tmp_path / "m.bin"
    assert cli.run([command, *data, "--out", str(out), "--epochs", "1",
                    "--emb", "4", "--enc-hidden", "4", flag, "0"]) == 1
    assert f"error: config: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-ner", "train-wcl"])
def test_repeated_types_is_config_error(tmp_path, capsys, command):
    data = training_input(tmp_path, command)
    out = tmp_path / "m.bin"
    assert cli.run([command, *data, "--out", str(out), "--epochs", "0",
                    "--types", "PER,PER,LOC,ORG,MISC"]) == 1
    assert "error: config: --types repeats PER" in capsys.readouterr().err
    assert not out.exists()


def full_small_pipeline(tmp_path, capsys, seed="0"):
    """train-ner on a small synthetic slice, returns (model, test file)."""
    train, test = synth.ner_fixture(seed=0, n_train=40, n_test=10)
    train_path = write_corpus(tmp_path, "train.conll", train)
    test_path = write_corpus(tmp_path, "test.conll", test)
    model = tmp_path / "model.bin"
    rc = cli.run(["train-ner", "--train", str(train_path),
                  "--out", str(model), "--epochs", "1", "--emb", "8",
                  "--enc-hidden", "4", "--hidden", "4", "--seed", seed])
    assert rc == 0
    capsys.readouterr()
    return model, test_path


def test_train_ner_and_predict(tmp_path, capsys):
    model, test_path = full_small_pipeline(tmp_path, capsys)
    assert model.exists()
    assert (tmp_path / "model.bin.vocab").exists()
    tags = (tmp_path / "model.bin.tags").read_text().split()
    assert tags[0] == "O" and "B-PER" in tags and len(tags) == 9

    pred = tmp_path / "pred.conll"
    rc = cli.run(["predict", "--model", str(model), "--test", str(test_path),
                  "--out", str(pred)])
    assert rc == 0
    capsys.readouterr()
    orig = parse_conll(test_path)
    tagged = parse_conll(pred)
    assert len(tagged) == len(orig)
    for a, b in zip(orig, tagged):
        assert a.tokens == b.tokens


def test_predict_missing_sidecar_is_data_error(tmp_path, capsys):
    model, test_path = full_small_pipeline(tmp_path, capsys)
    (tmp_path / "model.bin.tags").unlink()
    rc = cli.run(["predict", "--model", str(model), "--test", str(test_path),
                  "--out", str(tmp_path / "p.conll")])
    assert rc == 2
    assert "tags sidecar" in capsys.readouterr().err


@pytest.mark.parametrize("keep", [8, 10])
def test_predict_tag_sidecar_length_mismatch_is_data_error(tmp_path, capsys, keep):
    model, test_path = full_small_pipeline(tmp_path, capsys)
    sidecar = tmp_path / "model.bin.tags"
    tags = sidecar.read_text().split()
    assert len(tags) == 9
    sidecar.write_text("\n".join((tags + ["B-EXTRA"])[:keep]) + "\n")
    rc = cli.run(["predict", "--model", str(model), "--test", str(test_path),
                  "--out", str(tmp_path / "p.conll")])
    assert rc == 2
    assert f"lists {keep} tags, checkpoint has 9" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("B-PER", "FOO", "malformed tag 'FOO'"),
    ("I-LOC", "B-PER", "repeats B-PER"),
], ids=["malformed", "repeated"])
def test_predict_bad_tag_in_sidecar_is_data_error(tmp_path, capsys, old, new, message):
    model, test_path = full_small_pipeline(tmp_path, capsys)
    sidecar = tmp_path / "model.bin.tags"
    tags = sidecar.read_text().split()
    sidecar.write_text("\n".join(new if t == old else t for t in tags) + "\n")
    rc = cli.run(["predict", "--model", str(model), "--test", str(test_path),
                  "--out", str(tmp_path / "p.conll")])
    assert rc == 2
    assert f"model.bin.tags: {message}" in capsys.readouterr().err


def rewrite_param(model, name, edit):
    """Save the checkpoint again with edit(values) in place of parameter name."""
    old = load_params(model)
    new = ParamStore()
    for key, t in old.items():
        new.add(key, edit(t.values.copy()) if key == name else t.values)
    save_params(new, model)


def _poison(values, bad):
    values.flat[3] = bad
    return values


@pytest.mark.parametrize("name, edit", [
    ("emit.w", lambda v: _poison(v, np.nan)),
    ("lstm.f.w_h", lambda v: _poison(v, np.inf)),
    ("lstm.f.w_x", lambda v: v[:, :-1]),
    ("emit.w", lambda v: np.hstack([v, v[:, :1]])),
], ids=["nan-emit.w", "inf-lstm.f.w_h", "short-lstm.f.w_x", "extra-emit.w-column"])
def test_predict_inconsistent_checkpoint_is_data_error(tmp_path, capsys, name, edit):
    model, test_path = full_small_pipeline(tmp_path, capsys)
    rewrite_param(model, name, edit)
    rc = cli.run(["predict", "--model", str(model), "--test", str(test_path),
                  "--out", str(tmp_path / "p.conll")])
    assert rc == 2
    assert name in capsys.readouterr().err


def test_predict_vocab_sidecar_longer_than_embedding_is_data_error(tmp_path, capsys):
    model, _ = full_small_pipeline(tmp_path, capsys)
    with open(str(model) + ".vocab", "a", encoding="utf-8") as f:
        f.write("zzz\n")
    test_path = write_corpus(tmp_path, "unseen.conll",
                             [TaggedSentence(["zzz", "spoke"], ["O", "O"])])
    rc = cli.run(["predict", "--model", str(model), "--test", str(test_path),
                  "--out", str(tmp_path / "p.conll")])
    assert rc == 2
    assert "enc.embed" in capsys.readouterr().err


def test_predict_truncated_checkpoint_is_data_error(tmp_path, capsys):
    corpus_path = write_corpus(tmp_path, "train.conll", small_corpus()[1:])
    model = tmp_path / "model.bin"
    assert cli.run(["train-ner", "--train", str(corpus_path), "--out", str(model),
                    "--epochs", "0", "--emb", "2", "--enc-hidden", "1",
                    "--hidden", "1", "--types", "LOC"]) == 0
    blob = model.read_bytes()
    cut = tmp_path / "cut.bin"
    for name in ("cut.bin.vocab", "cut.bin.tags"):
        (tmp_path / name).write_bytes((tmp_path / name.replace("cut", "model")).read_bytes())
    for n in range(len(blob) + 1):
        cut.write_bytes(blob[:n])
        rc = cli.run(["predict", "--model", str(cut), "--test", str(corpus_path),
                      "--out", str(tmp_path / "pred.conll")])
        assert rc == (0 if n == len(blob) else 2), f"cut at byte {n}"
    capsys.readouterr()


@dataclass
class FlipTarget:
    root: Path
    corpus: Path
    blob: bytes = field(repr=False)
    fields: list = field(repr=False)   # offsets of the bytes outside names and values


@pytest.fixture(scope="module")
def flip_target(tmp_path_factory):
    """A small trained tagger, a corpus for predict, and the byte offsets of
    every field of the checkpoint that is not a name or a value: the magic,
    the version, and each name length, rank and dimension."""
    root = tmp_path_factory.mktemp("flip")
    corpus_path = write_corpus(root, "train.conll", small_corpus())
    model = root / "model.bin"
    assert cli.run(["train-ner", "--train", str(corpus_path), "--out", str(model),
                    "--epochs", "1", "--emb", "3", "--enc-hidden", "2",
                    "--hidden", "2"]) == 0
    blob = model.read_bytes()
    fields, pos = list(range(8)), 8
    for name, t in load_params(model).items():
        fields += range(pos, pos + 4)
        pos += 4 + len(name.encode("utf-8"))
        fields += range(pos, pos + 4 + 4 * t.values.ndim)
        pos += 4 + 4 * t.values.ndim + 8 * t.values.size
    assert pos == len(blob)
    for name in ("flip.bin.vocab", "flip.bin.tags"):
        (root / name).write_bytes((root / name.replace("flip", "model")).read_bytes())
    return FlipTarget(root, corpus_path, blob, fields)


def predict_flipped(target: FlipTarget, offsets, data) -> int:
    """predict on the checkpoint with each byte at offsets xor-ed with a
    non-zero mask drawn from data."""
    flipped = bytearray(target.blob)
    for at in offsets:
        flipped[at] ^= data.draw(st.integers(1, 255), label=f"mask at {at}")
    (target.root / "flip.bin").write_bytes(bytes(flipped))
    return cli.run(["predict", "--model", str(target.root / "flip.bin"), "--test",
                    str(target.corpus), "--out", str(target.root / "pred.conll")])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_predict_bit_flipped_checkpoint_exits_0_or_2(flip_target, data):
    offsets = data.draw(st.lists(st.integers(0, len(flip_target.blob) - 1),
                                 min_size=1, max_size=4, unique=True), label="offsets")
    rc = predict_flipped(flip_target, offsets, data)
    assert rc in (0, 2)
    if set(offsets) & set(flip_target.fields):
        assert rc == 2


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_predict_checkpoint_with_a_flipped_field_is_data_error(flip_target, data):
    offsets = data.draw(st.lists(st.sampled_from(flip_target.fields),
                                 min_size=1, max_size=2, unique=True), label="offsets")
    assert predict_flipped(flip_target, offsets, data) == 2


def test_non_utf8_corpus_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.conll"
    bad.write_bytes(b"caf\xff B-LOC\n")
    assert cli.run(["stats", "--train", str(bad)]) == 2
    assert cli.run(["train-ner", "--train", str(bad), "--out",
                    str(tmp_path / "m.bin"), "--epochs", "0"]) == 2
    assert "error: data" in capsys.readouterr().err


def test_train_ner_rejects_bad_tags(tmp_path, capsys):
    bad = write_corpus(tmp_path, "bad.conll",
                       [TaggedSentence(["x"], ["B-NOPE"])])
    rc = cli.run(["train-ner", "--train", str(bad),
                  "--out", str(tmp_path / "m.bin"), "--epochs", "1"])
    assert rc == 2
    assert "error: data:" in capsys.readouterr().err


def test_train_ner_warm_start_from_wcl(tmp_path, capsys):
    pairs = write_pairs(tmp_path)
    enc_out = tmp_path / "enc.bin"
    assert cli.run(["train-wcl", "--pairs", str(pairs), "--out", str(enc_out),
                    "--epochs", "1", "--queue", "4", "--emb", "8",
                    "--enc-hidden", "4"]) == 0
    train, _ = synth.ner_fixture(seed=0, n_train=10, n_test=1)
    train_path = write_corpus(tmp_path, "t.conll", train)
    model = tmp_path / "warm.bin"
    rc = cli.run(["train-ner", "--train", str(train_path),
                  "--encoder", str(enc_out), "--out", str(model),
                  "--epochs", "0", "--hidden", "4"])
    assert rc == 0
    capsys.readouterr()
    # with zero epochs the adopted encoder weights survive verbatim
    warm = load_params(model)
    wcl = load_params(enc_out)
    assert np.array_equal(warm["enc.embed"].values, wcl["enc.embed"].values)


def wcl_checkpoint_and_ner_corpus(tmp_path):
    """A small train-wcl checkpoint and a train-ner corpus to warm-start on it."""
    enc_out = tmp_path / "enc.bin"
    assert cli.run(["train-wcl", "--pairs", str(write_pairs(tmp_path)), "--out",
                    str(enc_out), "--epochs", "1", "--queue", "4", "--emb", "8",
                    "--enc-hidden", "4"]) == 0
    train, _ = synth.ner_fixture(seed=0, n_train=10, n_test=1)
    return enc_out, train


def test_train_ner_encoder_with_inconsistent_shape_is_data_error(tmp_path, capsys):
    enc_out, train = wcl_checkpoint_and_ner_corpus(tmp_path)
    rewrite_param(enc_out, "enc.fwd.w_x", lambda v: v[:, :-1])
    rc = cli.run(["train-ner", "--train", str(write_corpus(tmp_path, "t.conll", train)),
                  "--encoder", str(enc_out), "--out", str(tmp_path / "warm.bin"),
                  "--epochs", "1", "--hidden", "4"])
    assert rc == 2
    assert "enc.fwd.w_x" in capsys.readouterr().err


def test_train_ner_encoder_with_nan_in_unused_embedding_row_is_data_error(tmp_path, capsys):
    enc_out, train = wcl_checkpoint_and_ner_corpus(tmp_path)
    vocab = encoder.Vocab.load(str(enc_out) + ".vocab")
    seen = {tok for s in train for tok in s.tokens}
    unused = next(i for i in range(len(vocab) - 1, 1, -1) if vocab.token_of(i) not in seen)

    def poison(v):
        v[unused, 0] = np.nan
        return v
    rewrite_param(enc_out, "enc.embed", poison)
    model = tmp_path / "warm.bin"
    rc = cli.run(["train-ner", "--train", str(write_corpus(tmp_path, "t.conll", train)),
                  "--encoder", str(enc_out), "--out", str(model),
                  "--epochs", "1", "--hidden", "4"])
    assert rc == 2
    assert "enc.embed holds a non-finite value" in capsys.readouterr().err
    assert not model.exists()


def test_correct_without_kg_is_identity(tmp_path, capsys):
    pred_path = write_corpus(tmp_path, "pred.conll", small_corpus())
    out = tmp_path / "corrected.conll"
    rc = cli.run(["correct", "--pred", str(pred_path), "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == pred_path.read_bytes()
    assert "changed_sentences=0" in capsys.readouterr().out


def test_correct_with_snapshot(tmp_path, capsys):
    pred = [TaggedSentence(["TEC", "meets", "today"], ["O", "O", "O"]),
            TaggedSentence(["The", "European", "Commission", "rules"],
                           ["O", "O", "O", "O"])]
    pred_path = write_corpus(tmp_path, "pred.conll", pred)
    snap = tmp_path / "kg.tsv"
    snap.write_text("The European Commission\tOrganisation\n")
    out = tmp_path / "corrected.conll"
    rc = cli.run(["correct", "--pred", str(pred_path), "--kg", str(snap),
                  "--out", str(out)])
    assert rc == 0
    assert "changed_sentences=2" in capsys.readouterr().out
    fixed = parse_conll(out)
    assert fixed[0].tags == ["B-ORG", "O", "O"]
    assert fixed[1].tags == ["B-ORG", "I-ORG", "I-ORG", "O"]
    man = manifest_of(out)
    assert man["changed_sentences"] == "2"
    assert int(man["potential_entities"]) >= 2


def test_correct_manifest_reports_snapshot_and_network_counters(
        tmp_path, capsys, monkeypatch):
    calls = []

    def fetch(url, timeout):
        calls.append(url)
        return json.dumps([])

    monkeypatch.setattr(kg, "_default_fetch", fetch)
    pred_path = write_corpus(tmp_path, "pred.conll", [
        TaggedSentence(["Paris", "and", "New", "York"], ["O", "O", "O", "O"])])
    snap = tmp_path / "kg.tsv"
    snap.write_text("Paris\tPlace\nTuesday\tDay\nMonday\tHoliday\nno tab\n")
    out = tmp_path / "corrected.conll"
    args = ["correct", "--pred", str(pred_path), "--kg", str(snap),
            "--kg-endpoint", "http://kg.test/{q}",
            "--kg-cache", str(tmp_path / "cache.tsv"), "--out", str(out)]
    assert cli.run(args) == 0
    man = manifest_of(out)
    assert man["snapshot_dropped"] == "2"
    assert man["snapshot_skipped_lines"] == "1"
    assert man["lookup_warnings"] == "0"
    # "New", "York" and "New York" miss the snapshot and go to the network
    assert len(calls) == 3
    assert man["lookup_network_calls"] == "3"
    # a second run answers every miss from the on-disk cache
    assert cli.run(args) == 0
    capsys.readouterr()
    assert manifest_of(out)["lookup_network_calls"] == "0"
    assert len(calls) == 3


def test_correct_endpoint_needs_cache(tmp_path, capsys):
    pred_path = write_corpus(tmp_path, "pred.conll", small_corpus())
    rc = cli.run(["correct", "--pred", str(pred_path),
                  "--kg-endpoint", "http://kg.test/{q}",
                  "--out", str(tmp_path / "c.conll")])
    assert rc == 1
    assert "kg-cache" in capsys.readouterr().err


def test_config_file_supplies_defaults_flags_win(tmp_path, capsys):
    gold = write_corpus(tmp_path, "gold.conll", small_corpus())
    other = write_corpus(tmp_path, "other.conll", [
        TaggedSentence(["john", "smith", "spoke"], ["O", "O", "O"]),
        TaggedSentence(["visit", "paris"], ["O", "B-LOC"]),
    ])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"gold={gold}\npred={gold}\n")
    assert cli.run(["eval", "--config", str(cfg)]) == 0
    assert "FB1:  100.00" in capsys.readouterr().out
    # explicit flag overrides the config value
    assert cli.run(["eval", "--config", str(cfg), "--pred", str(other)]) == 0
    overall = capsys.readouterr().out.splitlines()[1]
    assert "FB1:   66.67" in overall


def test_config_file_errors(tmp_path, capsys):
    gold = write_corpus(tmp_path, "gold.conll", small_corpus())
    missing = tmp_path / "missing.cfg"
    assert cli.run(["eval", "--config", str(missing), "--gold", str(gold),
                    "--pred", str(gold)]) == 1

    bad_line = tmp_path / "bad.cfg"
    bad_line.write_text("this is not a pair\n")
    assert cli.run(["eval", "--config", str(bad_line), "--gold", str(gold),
                    "--pred", str(gold)]) == 1

    unknown_key = tmp_path / "unknown.cfg"
    unknown_key.write_text("volume=11\n")
    assert cli.run(["eval", "--config", str(unknown_key), "--gold", str(gold),
                    "--pred", str(gold)]) == 1

    # a config file cannot name another config file
    nested = tmp_path / "nested.cfg"
    nested.write_text("config=x\n")
    assert cli.run(["eval", "--config", str(nested), "--gold", str(gold),
                    "--pred", str(gold)]) == 1

    # a key that is a flag of another subcommand only
    other_command = tmp_path / "tau.cfg"
    other_command.write_text("tau=0.5\n")
    assert cli.run(["eval", "--config", str(other_command), "--gold", str(gold),
                    "--pred", str(gold)]) == 1
    capsys.readouterr()


def test_config_file_type_casting(tmp_path, capsys):
    pairs = write_pairs(tmp_path)
    cfg = tmp_path / "wcl.cfg"
    cfg.write_text("epochs=1\nqueue=8\nemb=8\nenc-hidden=4\ntau=0.5\n"
                   "# comment line\n\n")
    out = tmp_path / "enc.bin"
    rc = cli.run(["train-wcl", "--config", str(cfg), "--pairs", str(pairs),
                  "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    man = manifest_of(out)
    assert man["tau"] == "0.5"
    assert man["queue"] == "8"

    # the required flags can come from the config file alone
    full = tmp_path / "full.cfg"
    other = tmp_path / "other.bin"
    full.write_text(f"pairs={pairs}\nout={other}\nepochs=1\nqueue=8\nemb=8\n"
                    "enc-hidden=4\n")
    assert cli.run(["train-wcl", "--config", str(full)]) == 0
    capsys.readouterr()
    assert other.exists()
    assert manifest_of(other)["pairs"] == str(pairs)

    bad = tmp_path / "bad.cfg"
    bad.write_text("epochs=three\n")
    assert cli.run(["train-wcl", "--config", str(bad), "--pairs", str(pairs),
                    "--out", str(out)]) == 1
    capsys.readouterr()


def test_config_file_boolean_and_choices(tmp_path, capsys):
    train, _ = synth.ner_fixture(seed=0, n_train=6, n_test=1)
    train_path = write_corpus(tmp_path, "t.conll", train)
    cfg = tmp_path / "ner.cfg"
    cfg.write_text("strict=yes\nepochs=0\nemb=8\nenc_hidden=4\nhidden=4\n")
    out = tmp_path / "m.bin"
    rc = cli.run(["train-ner", "--config", str(cfg), "--train",
                  str(train_path), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    man = manifest_of(out)
    assert man["strict"] == "True"
    assert man["enc_hidden"] == "4"

    off = tmp_path / "off.cfg"
    off.write_text("strict=no\nepochs=0\nemb=8\nenc-hidden=4\nhidden=4\n")
    assert cli.run(["train-ner", "--config", str(off), "--train",
                    str(train_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert manifest_of(out)["strict"] == "False"

    # an explicit switch wins over the file, bare or with a value
    for cfg_path, flag, want in ((off, "--strict", "True"), (cfg, "--strict=no", "False")):
        assert cli.run(["train-ner", "--config", str(cfg_path), "--train",
                        str(train_path), "--out", str(out), flag]) == 0
        capsys.readouterr()
        assert manifest_of(out)["strict"] == want

    badbool = tmp_path / "b.cfg"
    badbool.write_text("strict=maybe\n")
    assert cli.run(["train-ner", "--config", str(badbool), "--train",
                    str(train_path), "--out", str(out)]) == 1
    badchoice = tmp_path / "c.cfg"
    badchoice.write_text("key-update=sideways\n")
    pairs = write_pairs(tmp_path)
    assert cli.run(["train-wcl", "--config", str(badchoice), "--pairs",
                    str(pairs), "--out", str(out)]) == 1
    capsysbytes = capsys.readouterr()
    assert "key-update" in capsysbytes.err


def test_manifest_excludes_none_and_config(tmp_path, capsys):
    gold = write_corpus(tmp_path, "gold.conll", small_corpus())
    out = tmp_path / "report.txt"
    assert cli.run(["eval", "--gold", str(gold), "--pred", str(gold),
                    "--out", str(out)]) == 0
    capsys.readouterr()
    man = manifest_of(out)
    assert "config" not in man
    assert man["command"] == "eval"
    assert man["version"]
