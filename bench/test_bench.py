"""Tests of the benchmark's own parts: python3 -m pytest bench -q"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
from kg_fixture import kg_fixture  # noqa: E402

from contrastner import autodiff as ad  # noqa: E402
from contrastner import contrast, encoder, kg, tagger  # noqa: E402
from contrastner.params import ParamStore, save_params  # noqa: E402


@pytest.mark.parametrize("n_steps", [1, 2, 3, 4])
@pytest.mark.parametrize("n_tags", [2, 5])
def test_viterbi_matches_brute_force(n_steps, n_tags):
    rng = np.random.default_rng(10 * n_steps + n_tags)
    for _ in range(5):
        emis = rng.normal(size=(n_steps, n_tags))
        trans = rng.normal(size=(n_tags + 2, n_tags + 2))
        best, path = ref.viterbi(emis, trans)
        assert len(path) == n_steps
        assert best == pytest.approx(ref.brute_force_best(emis, trans), abs=1e-12)
        assert ref.path_score(emis, trans, path) == pytest.approx(best, abs=1e-12)


def test_spans_follow_conlleval():
    assert ref.spans(["B-PER", "I-PER", "O", "B-LOC"]) == {(0, 1, "PER"), (3, 3, "LOC")}
    assert ref.spans(["I-ORG", "I-ORG", "I-LOC"]) == {(0, 1, "ORG"), (2, 2, "LOC")}
    assert ref.spans(["B-PER", "B-PER"]) == {(0, 0, "PER"), (1, 1, "PER")}
    assert ref.spans(["O", "O"]) == set()


def test_micro_f1():
    gold = [["B-PER", "O", "B-LOC"]]
    assert ref.micro_f1(gold, gold) == 1.0
    assert ref.micro_f1(gold, [["B-PER", "O", "O"]]) == pytest.approx(2 / 3)
    assert ref.micro_f1([["O"]], [["O"]]) == 0.0


def _tagger_checkpoint(tmp_path):
    words = ["Alice", "met", "Bob", "in", "Paris", "."]
    vocab = encoder.Vocab(words)
    rng = np.random.default_rng(3)
    store = ParamStore()
    encoder.init_encoder(store, "enc.", len(vocab), 6, 5, rng)
    tagger.init_tagger(store, encoder.output_dim(store), 4, 5, rng)
    contrast.init_head(store, encoder.output_dim(store), 3, rng)
    path = tmp_path / "m.bin"
    save_params(store, path)
    vocab.save(str(path) + ".vocab")
    return store, vocab, str(path), words + ["unseen"]


def test_reference_forward_matches_library(tmp_path):
    store, vocab, path, tokens = _tagger_checkpoint(tmp_path)
    w = ref.load_weights(path)
    ids = ref.read_vocab(path + ".vocab")
    with ad.no_grad():
        emis = tagger.emissions(store, tagger.bilstm_forward(
            store, encoder.encode(store, vocab, tokens))).values
        vec = ad.normalize(contrast.project(
            store, encoder.pool(encoder.encode(store, vocab, tokens)))).values
    np.testing.assert_allclose(ref.emissions(w, ids, tokens), emis, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ref.sentence_vector(w, ids, tokens), vec, rtol=0, atol=1e-12)
    best, _ = ref.viterbi(emis, w["crf.trans"])
    assert tagger.viterbi(emis, w["crf.trans"]).score == pytest.approx(best, abs=1e-12)


def test_kg_fixture_injects_distinct_acronyms():
    gold, pred, snapshot, errors = kg_fixture(seed=4, n_sentences=500, block=50)
    assert len(gold) == len(pred) == 500
    assert len(errors) == len(snapshot) == 10
    acronyms = [gold[si].tokens[ti] for si, ti in errors]
    assert len(set(acronyms)) == 10
    names = [line.split("\t")[0].split() for line in snapshot]
    assert acronyms == ["".join(w[0] for w in name) for name in names]
    for si, ti in errors:
        assert gold[si].tags[ti] == "B-ORG" and pred[si].tags[ti] == "O"
    diffs = [(si, ti) for si, (g, p) in enumerate(zip(gold, pred))
             for ti, (a, b) in enumerate(zip(g.tags, p.tags)) if a != b]
    assert diffs == errors
    again = kg_fixture(seed=4, n_sentences=500, block=50)
    assert again[2] == snapshot and again[3] == errors


def test_tracer_self_time_and_restore():
    tracer = tracing.Tracer()
    clock = iter([0.0, 1.0, 3.0, 10.0])
    real = tracing.time.perf_counter
    tracing.time.perf_counter = lambda: next(clock)
    try:
        inner = tracer.timed("inner", lambda: None)
        tracer.timed("outer", inner)()
    finally:
        tracing.time.perf_counter = real
    assert tracer.spans == [("outer", 0.0, 10.0, -1), ("inner", 1.0, 3.0, 0)]
    assert tracer.self_times() == {"outer": 8.0, "inner": 2.0}

    originals = (tagger.viterbi, kg.KgIndex.lookup, ad.backward)
    tracer.install()
    assert tagger.viterbi is not originals[0]
    tracer.remove()
    assert (tagger.viterbi, kg.KgIndex.lookup, ad.backward) == originals


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "gone.helper_s", ("tagger", "_no_such_helper"))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.remove()
    assert tracer.absent == ["gone.helper_s"]
    assert tracer.metrics(ops=1)["gone.helper_s"] == 0.0


def test_tracer_counts_lookups_and_tape(tmp_path):
    snap = tmp_path / "kg.tsv"
    snap.write_text("Paris\tPlace\n", encoding="utf-8")
    store, vocab, _, tokens = _tagger_checkpoint(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        index = kg.load_snapshot(snap)
        index.lookup("Paris")
        index.lookup("Rome")
        loss = tagger.crf_nll(tagger.emissions(store, tagger.bilstm_forward(
            store, encoder.encode(store, vocab, tokens))), store["crf.trans"], [0] * 7)
        ad.backward(loss)
    finally:
        tracer.remove()
    values = tracer.metrics(ops=1)
    assert values["kg.lookup_calls"] == 2
    assert values["kg.lookup_hit_ratio"] == 0.5
    assert values["autodiff.tape_entries_per_token"] > 1
    assert values["tagger.bilstm_forward_s"] > 0


def test_clock_ticks_and_restores():
    clock = tracing.Clock("kg", "KgIndex.lookup")
    original = kg.KgIndex.lookup
    clock.install()
    try:
        index = kg.KgIndex()
        index.lookup("Paris")
        index.lookup("Rome")
    finally:
        clock.remove()
    assert len(clock.ticks) == 2 and clock.ticks[0] <= clock.ticks[1]
    assert kg.KgIndex.lookup is original
    gone = tracing.Clock("kg", "no_such_function")
    gone.install()
    gone.remove()
    assert gone.ticks == []


def test_typical_round_takes_each_segments_median(monkeypatch):
    import run
    monkeypatch.setattr(run, "SEGMENTS", 2)
    # Three rounds of three ticks, cut at the second tick: a slow spell in
    # round 1's first half and round 2's second half does not reach the sum
    # of the medians.
    rounds = [run.cut_round(0.0, [1.0, 2.0, 3.0], 4.0),
              run.cut_round(10.0, [11.5, 13.0, 14.0], 15.0),
              run.cut_round(20.0, [21.0, 22.0, 23.5], 25.0)]
    assert rounds[1] == (3, [10.0, 13.0, 15.0])
    assert run.typical_round(rounds) == (4.0, 2)
    # Rounds that ticked a different number of times: the median round.
    rounds = [run.cut_round(0.0, [1.0], 4.0), run.cut_round(10.0, [], 15.0),
              run.cut_round(20.0, [], 24.5)]
    assert run.typical_round(rounds) == (4.5, 1)
