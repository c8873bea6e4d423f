"""BiLSTM features, CRF partition/score/decoding, NER training loop."""
import itertools
import math

import numpy as np
import pytest

from contrastner import autodiff as ad
from contrastner import encoder as enc
from contrastner import synth
from contrastner import tagger as tg
from contrastner.corpus import TaggedSentence
from contrastner.params import ParamStore

import helpers
from helpers import check_gradients


def enum_paths(emis: np.ndarray, trans: np.ndarray):
    """Exhaustive path scores: returns (logZ, best score, first best path)."""
    t_len, n_tags = emis.shape
    start = trans[n_tags, :n_tags]
    stop = trans[:n_tags, n_tags + 1]
    scores = []
    best = None
    best_path = None
    for path in itertools.product(range(n_tags), repeat=t_len):
        s = start[path[0]] + stop[path[-1]]
        for t, tid in enumerate(path):
            s += emis[t, tid]
            if t + 1 < t_len:
                s += trans[tid, path[t + 1]]
        scores.append(s)
        if best is None or s > best:
            best, best_path = s, list(path)
    arr = np.array(scores)
    m = arr.max()
    return m + math.log(np.exp(arr - m).sum()), best, best_path


def make_tagger(rng, d_in=4, hidden=3, n_tags=3) -> ParamStore:
    store = ParamStore()
    tg.init_tagger(store, d_in, hidden, n_tags, rng=rng)
    return store


def test_bilstm_single_step_directions_agree():
    rng = np.random.default_rng(0)
    store = make_tagger(rng, d_in=4, hidden=3)
    # make both directions share weights: at T=1 they see identical input
    for part in ("w_x", "w_h", "b"):
        store[f"lstm.b.{part}"].values[:] = store[f"lstm.f.{part}"].values
    x = ad.constant(rng.normal(size=(1, 4)))
    out = tg.bilstm_forward(store, x)
    assert out.values.shape == (1, 6)
    assert np.allclose(out.values[0, :3], out.values[0, 3:])


def test_bilstm_zero_weights_zero_output():
    rng = np.random.default_rng(1)
    store = make_tagger(rng, d_in=4, hidden=3)
    for name in ("lstm.f.w_x", "lstm.f.w_h", "lstm.f.b",
                 "lstm.b.w_x", "lstm.b.w_h", "lstm.b.b"):
        store[name].values[:] = 0.0
    x = ad.constant(np.random.default_rng(2).normal(size=(3, 4)))
    out = tg.bilstm_forward(store, x)
    assert np.allclose(out.values, 0.0)


def test_bilstm_rejects_bad_input():
    rng = np.random.default_rng(3)
    store = make_tagger(rng)
    with pytest.raises(ValueError):
        tg.bilstm_forward(store, ad.constant(np.zeros((0, 4))))
    with pytest.raises(ValueError):
        tg.bilstm_forward(store, ad.constant(np.zeros(4)))


def test_bilstm_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(3):
        t_len = int(rng.integers(1, 5))
        d_in = int(rng.integers(2, 5))
        hidden = int(rng.integers(1, 4))
        store = make_tagger(rng, d_in=d_in, hidden=hidden)
        x = ad.Tensor(rng.normal(size=(t_len, d_in)), requires_grad=True)

        def build():
            out = tg.bilstm_forward(store, x)
            pooled = tg.emissions(store, out)
            return helpers.tsum(pooled)

        lstm_params = [store[n] for n in store.names() if n.startswith("lstm.")]
        check_gradients(build, lstm_params + [x], rng=rng, max_coords=30)


def test_log_partition_uniform_paths():
    emis = ad.constant(np.zeros((3, 2)))
    trans = ad.constant(np.zeros((4, 4)))
    logz = tg.crf_log_partition(emis, trans)
    assert abs(logz.item() - 3 * math.log(2)) < 1e-12
    assert abs(logz.item() - 2.0794) < 1e-4


def test_log_partition_single_step():
    rng = np.random.default_rng(5)
    row = rng.normal(size=4)
    emis = ad.constant(row.reshape(1, 4))
    trans = ad.constant(np.zeros((6, 6)))
    logz = tg.crf_log_partition(emis, trans)
    m = row.max()
    want = m + math.log(np.exp(row - m).sum())
    assert abs(logz.item() - want) < 1e-12


def test_log_partition_matches_enumeration():
    rng = np.random.default_rng(6)
    for _ in range(50):
        t_len = int(rng.integers(1, 7))
        n_tags = int(rng.integers(1, 6))
        emis = rng.normal(size=(t_len, n_tags))
        trans = rng.normal(size=(n_tags + 2, n_tags + 2))
        want, _, _ = enum_paths(emis, trans)
        got = tg.crf_log_partition(ad.constant(emis), ad.constant(trans))
        assert abs(got.item() - want) < 1e-8


def test_log_partition_shape_mismatch():
    with pytest.raises(ValueError):
        tg.crf_log_partition(ad.constant(np.zeros((2, 3))),
                             ad.constant(np.zeros((4, 4))))


def test_path_score_validates_ids():
    emis = ad.constant(np.zeros((2, 3)))
    trans = ad.constant(np.zeros((5, 5)))
    with pytest.raises(ValueError):
        tg.path_score(emis, trans, [0, 3])
    with pytest.raises(ValueError):
        tg.path_score(emis, trans, [0])


def test_nll_dominant_gold_path():
    rng = np.random.default_rng(7)
    emis = rng.normal(size=(3, 3))
    gold = [2, 0, 1]
    for t, tid in enumerate(gold):
        emis[t, tid] += 1e6
    trans = rng.normal(size=(5, 5))
    loss = tg.crf_nll(ad.constant(emis), ad.constant(trans), gold)
    assert abs(loss.item()) < 1e-6


def test_nll_uniform_potentials():
    emis = ad.constant(np.zeros((2, 3)))
    trans = ad.constant(np.zeros((5, 5)))
    loss = tg.crf_nll(emis, trans, [1, 2])
    assert abs(loss.item() - 2 * math.log(3)) < 1e-12


def test_nll_nonnegative_and_normalized():
    rng = np.random.default_rng(8)
    for _ in range(30):
        t_len = int(rng.integers(1, 5))
        n_tags = int(rng.integers(1, 4))
        emis = rng.normal(size=(t_len, n_tags))
        trans = rng.normal(size=(n_tags + 2, n_tags + 2))
        logz, _, _ = enum_paths(emis, trans)
        total = 0.0
        for path in itertools.product(range(n_tags), repeat=t_len):
            score = tg.path_score(ad.constant(emis), ad.constant(trans),
                                  list(path)).item()
            # logZ >= every explicit path score
            assert logz >= score - 1e-9
            total += math.exp(score - logz)
        assert abs(total - 1.0) < 1e-8
        gold = [int(rng.integers(n_tags)) for _ in range(t_len)]
        nll = tg.crf_nll(ad.constant(emis), ad.constant(trans), gold)
        assert nll.item() >= -1e-9


def test_nll_gradient_matches_finite_differences():
    # logZ, the gold-path score and the nll, T = 1 and K = 1 included
    rng = np.random.default_rng(9)
    for t_len, n_tags in [(1, 1), (4, 1), (1, 3), (3, 2), (4, 4), (5, 3)]:
        emis = ad.Tensor(rng.normal(size=(t_len, n_tags)), requires_grad=True)
        trans = ad.Tensor(rng.normal(size=(n_tags + 2, n_tags + 2)),
                          requires_grad=True)
        gold = [int(rng.integers(n_tags)) for _ in range(t_len)]
        check_gradients(lambda: tg.crf_nll(emis, trans, gold), [emis, trans],
                        rng=rng)
        check_gradients(lambda: tg.crf_log_partition(emis, trans), [emis, trans],
                        rng=rng)
        check_gradients(lambda: tg.path_score(emis, trans, gold), [emis, trans],
                        rng=rng)


def _grads_of(loss, tensors):
    ad.backward(loss)
    grads = [np.zeros_like(t.values) if t.grad is None else t.grad for t in tensors]
    for t in tensors:
        t.grad = None
    return grads


def test_fused_ops_match_reference_graph():
    # encode, bilstm_forward and crf_nll against the per-timestep graph:
    # values and every gradient within 1e-10, strict transitions included
    rng = np.random.default_rng(13)
    words = ["w%d" % i for i in range(8)]
    for trial in range(12):
        vocab = enc.Vocab(words)
        tag_list = tg.bio_tag_list(["PER", "LOC"][:int(rng.integers(1, 3))])
        store = ParamStore()
        enc.init_encoder(store, "enc.", len(vocab), int(rng.integers(1, 6)),
                         int(rng.integers(1, 5)), rng)
        tg.init_tagger(store, enc.output_dim(store), int(rng.integers(1, 5)),
                       len(tag_list), rng)
        store["crf.trans"].values[:] = rng.normal(size=store["crf.trans"].values.shape)
        tokens = [str(rng.choice(words + ["unseen"])) for _ in range(int(rng.integers(1, 8)))]
        gold = [int(rng.integers(len(tag_list))) for _ in tokens]
        strict = trial % 3 == 0
        if strict:
            gold = [0] * len(tokens)   # a legal path under the BIO mask
        mask = ad.constant(tg.transition_mask(tag_list))
        params = store.tensors()

        def trans():
            t = store["crf.trans"]
            return ad.add(t, mask) if strict else t

        rows = enc.encode(store, vocab, tokens)
        feats = tg.bilstm_forward(store, rows)
        loss = tg.crf_nll(tg.emissions(store, feats), trans(), gold)
        got = [rows.values, feats.values, loss.values] + _grads_of(loss, params)

        rows = helpers.ref_encode(store, vocab, tokens)
        feats = helpers.ref_bilstm_forward(store, rows)
        loss = helpers.ref_crf_nll(helpers.ref_emissions(store, feats), trans(), gold)
        want = [np.stack([r.values for r in rows]), np.stack([f.values for f in feats]),
                loss.values] + _grads_of(loss, params)

        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b), initial=0.0) < 1e-10


def test_train_step_tape_is_eleven_entries_per_sentence():
    # one train-ner step records 11 tape entries whatever the sentence
    # length: the embedding gather, four scans, two concats, the emissions,
    # logZ, the path score and the nll; a strict mask adds its add
    train, _ = synth.ner_fixture(seed=0, n_train=40, n_test=1)
    vocab = enc.Vocab.from_sentences([s.tokens for s in train])
    tag_list = tg.bio_tag_list(["LOC", "MISC", "ORG", "PER"])
    store = ParamStore()
    rng = np.random.default_rng(0)
    enc.init_encoder(store, "enc.", len(vocab), 8, 8, rng)
    tg.init_tagger(store, enc.output_dim(store), 8, len(tag_list), rng)
    for mask, want in ((None, 11), (tg.transition_mask(tag_list), 12)):
        sizes = set()
        for sent in train:
            loss = tg.sentence_nll(store, vocab, sent,
                                   [tag_list.index(t) for t in sent.tags], mask)
            sizes.add(ad.tape_size())
            ad.backward(loss)
            for t in store.tensors():
                t.grad = None
        assert sizes == {want}


def test_viterbi_single_tag():
    emis = np.zeros((4, 1))
    trans = np.zeros((3, 3))
    path = tg.viterbi(emis, trans)
    assert path.ids == [0, 0, 0, 0]


def test_viterbi_diagonal_emissions():
    emis = np.full((3, 3), -5.0)
    want = [2, 0, 1]
    for t, tid in enumerate(want):
        emis[t, tid] = 5.0
    path = tg.viterbi(emis, np.zeros((5, 5)))
    assert path.ids == want


def test_viterbi_tie_breaks_to_smallest_id():
    path = tg.viterbi(np.zeros((3, 4)), np.zeros((6, 6)))
    assert path.ids == [0, 0, 0]


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(10)
    for _ in range(50):
        t_len = int(rng.integers(1, 7))
        n_tags = int(rng.integers(1, 6))
        emis = rng.normal(size=(t_len, n_tags))
        trans = rng.normal(size=(n_tags + 2, n_tags + 2))
        _, best, best_path = enum_paths(emis, trans)
        path = tg.viterbi(emis, trans)
        assert abs(path.score - best) < 1e-9
        assert path.ids == best_path  # product() emits smallest ids first
    # packed batches of mixed lengths, T = 1 and K = 1 included; each path
    # also equals decoding its sequence alone, bit for bit
    for trial in range(60):
        n_tags = 1 if trial % 5 == 0 else int(rng.integers(2, 5))
        lengths = [int(n) for n in rng.integers(1, 6, size=int(rng.integers(1, 7)))]
        emis = rng.normal(size=(sum(lengths), n_tags))
        trans = rng.normal(size=(n_tags + 2, n_tags + 2))
        paths = tg.viterbi_packed(emis, trans, lengths)
        assert len(paths) == len(lengths)
        bounds = np.cumsum([0] + lengths)
        for path, lo, hi in zip(paths, bounds[:-1], bounds[1:]):
            _, best, best_path = enum_paths(emis[lo:hi], trans)
            assert abs(path.score - best) < 1e-9
            assert path.ids == best_path
            alone = tg.viterbi(emis[lo:hi], trans)
            assert (alone.ids, alone.score) == (path.ids, path.score)


def test_viterbi_packed_ties_break_to_smallest_id():
    # every path ties; a small-integer batch has many exact ties
    paths = tg.viterbi_packed(np.zeros((7, 4)), np.zeros((6, 6)), [2, 1, 4])
    assert [p.ids for p in paths] == [[0, 0], [0], [0, 0, 0, 0]]
    rng = np.random.default_rng(12)
    for _ in range(30):
        lengths = [int(n) for n in rng.integers(1, 5, size=4)]
        emis = rng.integers(-1, 2, size=(sum(lengths), 3)).astype(float)
        trans = rng.integers(-1, 2, size=(5, 5)).astype(float)
        bounds = np.cumsum([0] + lengths)
        for path, lo, hi in zip(tg.viterbi_packed(emis, trans, lengths),
                                bounds[:-1], bounds[1:]):
            alone = tg.viterbi(emis[lo:hi], trans)
            assert (alone.ids, alone.score) == (path.ids, path.score)


def test_viterbi_emission_shift_invariance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t_len = int(rng.integers(1, 6))
        n_tags = int(rng.integers(2, 5))
        emis = rng.normal(size=(t_len, n_tags))
        trans = rng.normal(size=(n_tags + 2, n_tags + 2))
        c = float(rng.normal())
        base = tg.viterbi(emis, trans)
        shifted = tg.viterbi(emis + c, trans)
        assert shifted.ids == base.ids
        assert abs(shifted.score - (base.score + t_len * c)) < 1e-9


def test_transition_mask_blocks_orphan_inside_tags():
    tags = tg.bio_tag_list(["PER", "LOC"])  # O B-PER I-PER B-LOC I-LOC
    mask = tg.transition_mask(tags)
    k = len(tags)
    i_per, b_per = tags.index("I-PER"), tags.index("B-PER")
    i_loc = tags.index("I-LOC")
    o = tags.index("O")
    assert mask[o, i_per] == tg.NEG_INF
    assert mask[k, i_per] == tg.NEG_INF          # from virtual start
    assert mask[i_loc, i_per] == tg.NEG_INF
    assert mask[b_per, i_per] == 0.0
    assert mask[i_per, i_per] == 0.0
    assert mask[o, b_per] == 0.0
    assert mask[o, o] == 0.0


def test_strict_decode_never_emits_orphan_inside():
    rng = np.random.default_rng(12)
    tags = tg.bio_tag_list(["PER", "LOC"])
    k = len(tags)
    for _ in range(50):
        emis = rng.normal(size=(int(rng.integers(1, 6)), k)) * 5
        trans = rng.normal(size=(k + 2, k + 2))
        path = tg.viterbi(emis, trans + tg.transition_mask(tags))
        prev = "O"
        for tid in path.ids:
            tag = tags[tid]
            if tag.startswith("I-"):
                assert prev != "O" and prev[2:] == tag[2:]
            prev = tag


def test_mask_keeps_gradients_flowing():
    # additive mask: legal entries of the underlying table still get grads
    tags = tg.bio_tag_list(["PER"])
    k = len(tags)
    trans = ad.Tensor(np.zeros((k + 2, k + 2)), requires_grad=True)
    masked = ad.add(trans, ad.constant(tg.transition_mask(tags)))
    emis = ad.constant(np.zeros((2, k)))
    loss = tg.crf_nll(emis, masked, [0, 1])
    ad.backward(loss)
    assert trans.grad is not None
    assert np.isfinite(trans.grad).all()
    assert np.abs(trans.grad).max() > 0


def setup_ner(seed=0, n_types=2, emb=6, hidden=4, lstm_hidden=3):
    rng = np.random.default_rng(seed)
    types = ["PER", "LOC"][:n_types]
    tag_list = tg.bio_tag_list(types)
    sents = [
        TaggedSentence(["john", "runs"], ["B-PER", "O"]),
        TaggedSentence(["in", "paris"], ["O", "B-LOC"]),
        TaggedSentence(["mary", "jane", "sings"], ["B-PER", "I-PER", "O"]),
    ]
    vocab = enc.Vocab.from_sentences([s.tokens for s in sents])
    store = ParamStore()
    enc.init_encoder(store, "enc.", len(vocab), emb_dim=emb, hidden=hidden,
                     rng=rng)
    tg.init_tagger(store, 2 * hidden, lstm_hidden, len(tag_list), rng=rng)
    return sents, vocab, store, tag_list


def test_train_ner_zero_epochs_unchanged():
    sents, vocab, store, tag_list = setup_ner()
    before = {n: t.values.copy() for n, t in store.items()}
    log = tg.train_ner(sents, vocab, store, tag_list,
                       tg.NerConfig(epochs=0))
    assert log.steps == 0
    for name, t in store.items():
        assert np.array_equal(t.values, before[name])


def test_train_ner_deterministic():
    runs = []
    for _ in range(2):
        sents, vocab, store, tag_list = setup_ner(seed=3)
        log = tg.train_ner(sents, vocab, store, tag_list,
                           tg.NerConfig(epochs=3, lr=0.05, seed=7))
        runs.append(tuple(log.epoch_losses))
    assert runs[0] == runs[1]


def test_train_ner_frozen_encoder():
    sents, vocab, store, tag_list = setup_ner(seed=4)
    for t in store.subset("enc.").tensors():
        t.requires_grad = False  # frozen at set-up, as train-ner --freeze-encoder does
    enc_before = {n: t.values.copy()
                  for n, t in store.subset("enc.").items()}
    crf_before = store["crf.trans"].values.copy()
    log = tg.train_ner(sents, vocab, store, tag_list,
                       tg.NerConfig(epochs=2, lr=0.05))
    assert log.steps == 6
    for name, t in store.subset("enc.").items():
        assert t.values.tobytes() == enc_before[name].tobytes()
        assert not t.requires_grad  # train_ner leaves the mark as it found it
    assert not np.array_equal(store["crf.trans"].values, crf_before)


def test_train_ner_rejects_bad_inputs():
    sents, vocab, store, tag_list = setup_ner()
    with pytest.raises(ValueError):
        tg.train_ner([], vocab, store, tag_list, tg.NerConfig(epochs=1))
    bad = [TaggedSentence(["x"], ["B-GPE"])]
    with pytest.raises(ValueError, match="B-GPE"):
        tg.train_ner(bad, vocab, store, tag_list, tg.NerConfig(epochs=1))


def test_train_ner_loss_decreases():
    sents, vocab, store, tag_list = setup_ner(seed=5)
    log = tg.train_ner(sents, vocab, store, tag_list,
                       tg.NerConfig(epochs=8, lr=0.2, seed=1))
    assert log.epoch_losses[-1] < log.epoch_losses[0]


def test_predict_shapes_and_determinism():
    sents, vocab, store, tag_list = setup_ner(seed=6)
    out1 = tg.predict(sents, vocab, store, tag_list)
    out2 = tg.predict([s.tokens for s in sents], vocab, store, tag_list)
    for sent, pred1, pred2 in zip(sents, out1, out2):
        assert pred1.tokens == sent.tokens
        assert len(pred1.tags) == len(sent)
        assert pred1.tags == pred2.tags
        for tag in pred1.tags:
            assert tag in tag_list


def test_predict_strict_obeys_bio_grammar():
    sents, vocab, store, tag_list = setup_ner(seed=7)
    # push transitions toward orphan I- tags, strict mode must refuse
    store["crf.trans"].values[:] = 0.0
    i_per = tag_list.index("I-PER")
    store["emit.w"].values[:, i_per] = 4.0
    preds = tg.predict(sents, vocab, store, tag_list, strict=True)
    for pred in preds:
        prev = "O"
        for tag in pred.tags:
            if tag.startswith("I-"):
                assert prev != "O" and prev[2:] == tag[2:]
            prev = tag


def test_predict_batched_matches_per_sentence_reference():
    # lengths 1..29, three of each, shuffled: several length-sorted chunks.
    # Tags equal per-sentence decoding through the reference graph, in input
    # order; packed emissions equal the reference within 1e-10.
    rng = np.random.default_rng(17)
    words = ["w%d" % i for i in range(10)]
    vocab = enc.Vocab(words)
    tag_list = tg.bio_tag_list(["PER", "LOC"])
    store = ParamStore()
    enc.init_encoder(store, "enc.", len(vocab), 5, 4, rng)
    tg.init_tagger(store, enc.output_dim(store), 3, len(tag_list), rng)
    store["crf.trans"].values[:] = rng.normal(size=store["crf.trans"].values.shape)
    lengths = [int(n) for n in rng.permutation(list(range(1, 30)) * 3)]
    sents = [[str(rng.choice(words + ["unseen"])) for _ in range(n)] for n in lengths]
    assert sum(lengths) > 2 * tg.PREDICT_CHUNK_TOKENS

    ref_emis = []
    for tokens in sents:
        feats = helpers.ref_bilstm_forward(store, helpers.ref_encode(store, vocab, tokens))
        ref_emis.append(np.stack([r.values for r in helpers.ref_emissions(store, feats)]))
    ad.reset_tape()
    with ad.no_grad():
        tokens = [tok for sent in sents for tok in sent]
        feats = tg.bilstm_forward(store, enc.encode(store, vocab, tokens, lengths=lengths),
                                  lengths)
        packed = tg.emissions(store, feats).values
    assert np.max(np.abs(packed - np.concatenate(ref_emis))) < 1e-10

    for strict in (False, True):
        trans = store["crf.trans"].values + (tg.transition_mask(tag_list) if strict else 0.0)
        got = tg.predict(sents, vocab, store, tag_list, strict)
        assert [p.tokens for p in got] == sents
        for pred, emis in zip(got, ref_emis):
            assert pred.tags == [tag_list[i] for i in tg.viterbi(emis, trans).ids]
        with pytest.raises(ValueError):
            tg.predict(sents[:5] + [[]] + sents[5:], vocab, store, tag_list, strict)


@pytest.mark.parametrize("strict", [False, True])
def test_predict_tags_do_not_depend_on_the_chunk_size(monkeypatch, strict):
    # one sentence per chunk, a few per chunk, and the default: same tags
    rng = np.random.default_rng(18)
    words = ["w%d" % i for i in range(10)]
    vocab = enc.Vocab(words)
    tag_list = tg.bio_tag_list(["PER", "LOC"])
    store = ParamStore()
    enc.init_encoder(store, "enc.", len(vocab), 5, 4, rng)
    tg.init_tagger(store, enc.output_dim(store), 3, len(tag_list), rng)
    store["crf.trans"].values[:] = rng.normal(size=store["crf.trans"].values.shape)
    sents = [[str(rng.choice(words)) for _ in range(int(n))]
             for n in rng.integers(1, 12, size=60)]
    tags = []
    for size in (1, 7, 256):
        monkeypatch.setattr(tg, "PREDICT_CHUNK_TOKENS", size)
        tags.append([p.tags for p in tg.predict(sents, vocab, store, tag_list, strict)])
    assert tags[0] == tags[1] == tags[2]
    assert tg.predict([], vocab, store, tag_list, strict) == []


def test_bio_tag_list_layout():
    assert tg.bio_tag_list(["PER", "LOC"]) == [
        "O", "B-PER", "I-PER", "B-LOC", "I-LOC"]


def test_ner_config_validation():
    with pytest.raises(ValueError):
        tg.NerConfig(epochs=-1).validate()
    tg.NerConfig().validate()
    with pytest.raises(ValueError, match="hidden size must be >= 1"):
        tg.init_tagger(ParamStore(), 4, 0, 3, np.random.default_rng(0))
