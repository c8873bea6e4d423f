"""Exact-match span counting, micro P/R/F1, report formatting."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrastner import evaluation as ev
from contrastner.corpus import Span, TaggedSentence, spans_to_bio, write_conll
from helpers import ref_count_matches

TYPES = ("PER", "LOC", "ORG", "MISC")


def counts_of(tp: int, fp: int, fn: int) -> ev.EvalCounts:
    c = ev.EvalCounts()
    c.correct_spans = tp
    c.pred_spans = tp + fp
    c.gold_spans = tp + fn
    c.per_type = {"PER": [tp + fn, tp + fp, tp]}
    return c


def sents(*tag_rows):
    return [TaggedSentence([f"t{i}" for i in range(len(tags))], list(tags))
            for tags in tag_rows]


def test_identity_prediction():
    gold = sents(["B-PER", "I-PER", "O"], ["O", "B-LOC"])
    counts = ev.count_matches(gold, gold)
    assert counts.gold_spans == counts.pred_spans == counts.correct_spans == 2
    rep = ev.prf(counts)
    assert rep.precision == rep.recall == rep.f1 == 1.0
    assert rep.accuracy == 1.0


def test_all_o_prediction():
    gold = sents(["B-PER", "O", "B-LOC"])
    pred = sents(["O", "O", "O"])
    counts = ev.count_matches(gold, pred)
    assert counts.correct_spans == 0
    assert counts.pred_spans == 0
    assert counts.gold_spans == 2
    rep = ev.prf(counts)
    assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0


def test_boundary_off_by_one_is_fp_plus_fn():
    gold = sents(["B-PER", "I-PER", "O"])
    pred = sents(["B-PER", "O", "O"])
    counts = ev.count_matches(gold, pred)
    assert counts.correct_spans == 0
    assert counts.pred_spans == 1   # one false positive
    assert counts.gold_spans == 1   # one false negative


def test_type_mismatch_is_fp_plus_fn():
    gold = sents(["B-PER", "I-PER"])
    pred = sents(["B-ORG", "I-ORG"])
    counts = ev.count_matches(gold, pred)
    assert counts.correct_spans == 0
    assert counts.per_type["PER"] == [1, 0, 0]
    assert counts.per_type["ORG"] == [0, 1, 0]


def test_alignment_violations_rejected():
    gold = sents(["O"], ["O"])
    with pytest.raises(ValueError):
        ev.count_matches(gold, sents(["O"]))
    pred = [TaggedSentence(["different"], ["O"])]
    with pytest.raises(ValueError, match="sentence 0"):
        ev.count_matches(sents(["O"]), pred)


def test_prf_direct_formula():
    rep = ev.prf(counts_of(tp=3, fp=1, fn=2))
    assert rep.precision == 0.75
    assert rep.recall == 0.60
    assert abs(rep.f1 - 2 / 3) < 1e-9


def test_prf_paper_rows():
    # published P/R pairs reproduce their printed F1 at two decimals
    p, r = 91.88 / 100, 93.81 / 100
    f1 = 2 * p * r / (p + r)
    assert abs(f1 * 100 - 92.83) <= 0.01
    p, r = 88.78 / 100, 89.62 / 100
    f1 = 2 * p * r / (p + r)
    assert abs(f1 * 100 - 89.20) <= 0.01


def test_prf_zero_denominators():
    rep = ev.prf(ev.EvalCounts())
    assert rep.precision == rep.recall == rep.f1 == rep.accuracy == 0.0


def test_f1_bounds_property():
    rng = random.Random(0)
    for _ in range(500):
        tp = rng.randrange(0, 20)
        fp = rng.randrange(0, 20)
        fn = rng.randrange(0, 20)
        rep = ev.prf(counts_of(tp, fp, fn))
        p, r, f1 = rep.precision, rep.recall, rep.f1
        assert 0.0 <= f1 <= 1.0
        assert f1 <= (p + r) / 2 + 1e-12
        assert (f1 == 0.0) == (tp == 0)


def test_micro_f1_equals_pooled_per_type():
    rng = random.Random(1)
    for _ in range(100):
        counts = ev.EvalCounts()
        for t in TYPES:
            g, p, c = rng.randrange(8), rng.randrange(8), 0
            c = rng.randrange(min(g, p) + 1)
            counts.per_type[t] = [g, p, c]
            counts.gold_spans += g
            counts.pred_spans += p
            counts.correct_spans += c
        rep = ev.prf(counts)
        g = sum(v[0] for v in counts.per_type.values())
        p = sum(v[1] for v in counts.per_type.values())
        c = sum(v[2] for v in counts.per_type.values())
        pp = c / p if p else 0.0
        rr = c / g if g else 0.0
        ff = 2 * pp * rr / (pp + rr) if pp + rr else 0.0
        assert rep.precision == pp and rep.recall == rr and rep.f1 == ff


def test_sentence_order_permutation_invariance():
    rng = random.Random(2)
    gold, pred = [], []
    for _ in range(20):
        length = rng.randrange(1, 8)
        gtags = ["O"] * length
        ptags = ["O"] * length
        if length >= 2:
            gtags[0], gtags[1] = "B-PER", "I-PER"
            if rng.random() < 0.5:
                ptags[0], ptags[1] = "B-PER", "I-PER"
            else:
                ptags[0] = "B-LOC"
        tokens = [f"w{rng.randrange(30)}" for _ in range(length)]
        gold.append(TaggedSentence(tokens, gtags))
        pred.append(TaggedSentence(tokens, ptags))
    base = ev.report(gold, pred)
    order = list(range(len(gold)))
    rng.shuffle(order)
    shuffled = ev.report([gold[i] for i in order], [pred[i] for i in order])
    assert base == shuffled


def test_report_identical_files(tmp_path):
    sentences = sents(["B-PER", "I-PER", "O"], ["B-ORG", "O"])
    path = tmp_path / "g.conll"
    write_conll(sentences, path)
    text = ev.report_files(path, path)
    assert "FB1:  100.00" in text
    assert "precision:  100.00%" in text
    assert "f1=1.0" in text


def test_report_disjoint_predictions():
    gold = sents(["B-PER", "O", "O"])
    pred = sents(["O", "O", "B-LOC"])
    text = ev.report(gold, pred)
    assert "FB1:    0.00" in text.splitlines()[1]
    assert "f1=0.0" in text


def test_report_hand_counted_fixture():
    # five sentences, hand-tallied: 6 gold spans, 5 predicted, 3 exact
    gold = sents(
        ["B-PER", "I-PER", "O"],        # PER(0,1)
        ["B-LOC", "O"],                 # LOC(0,0)
        ["B-ORG", "I-ORG", "I-ORG"],    # ORG(0,2)
        ["O", "B-MISC"],                # MISC(1,1)
        ["B-PER", "O", "B-LOC"],        # PER(0,0), LOC(2,2)
    )
    pred = sents(
        ["B-PER", "I-PER", "O"],        # hit
        ["B-ORG", "O"],                 # wrong type
        ["B-ORG", "I-ORG", "O"],        # wrong boundary
        ["O", "B-MISC"],                # hit
        ["B-PER", "O", "O"],            # hit + missed LOC
    )
    counts = ev.count_matches(gold, pred)
    assert counts.gold_spans == 6
    assert counts.pred_spans == 5
    assert counts.correct_spans == 3
    text = ev.format_report(ev.prf(counts))
    assert text.startswith(
        "processed 13 tokens with 6 phrases; found: 5 phrases; correct: 3.")
    assert "precision:   60.00%" in text
    assert "recall:   50.00%" in text
    assert "FB1:   54.55" in text
    # per-type lines carry the found count
    assert "MISC: precision:  100.00%; recall:  100.00%; FB1:  100.00  1" in text


def test_report_rounding_half_up():
    # 1 of 16 correct: 6.25% must print as 6.25; 1/3 prints as 33.33
    assert ev._pct(0.0625) == "6.25"
    assert ev._pct(1 / 3) == "33.33"
    assert ev._pct(0.128345) == "12.83"
    # 3.125 is an exact binary tie: half-up gives .13 where half-even
    # would give .12
    assert ev._pct(0.03125) == "3.13"


def test_report_machine_readable_lines():
    gold = sents(["B-PER", "O"])
    pred = sents(["B-PER", "B-LOC"])
    text = ev.report(gold, pred)
    tail = dict(line.split("=", 1) for line in text.strip().splitlines()[-4:])
    assert float(tail["precision"]) == 0.5
    assert float(tail["recall"]) == 1.0
    assert abs(float(tail["f1"]) - 2 / 3) < 1e-12
    assert float(tail["accuracy"]) == 0.5


tag_st = st.sampled_from(["O", "B-PER", "I-PER", "B-LOC", "I-LOC", "I-ORG"])


@st.composite
def gold_pred_st(draw):
    """A gold tag list and a prediction: the same list, an edit of it, or
    an independent draw of the same length."""
    gold = draw(st.lists(tag_st, min_size=1, max_size=8))
    kind = draw(st.sampled_from(["equal", "edit", "draw"]))
    if kind == "equal":
        pred = list(gold)
    elif kind == "edit":
        pred = list(gold)
        pred[draw(st.integers(0, len(gold) - 1))] = draw(tag_st)
    else:
        pred = draw(st.lists(tag_st, min_size=len(gold), max_size=len(gold)))
    return gold, pred


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(gold_pred_st(), max_size=6))
def test_count_matches_equals_plain_reference(pairs):
    gold = sents(*(g for g, _ in pairs))
    pred = sents(*(p for _, p in pairs))
    got, want = ev.count_matches(gold, pred), ref_count_matches(gold, pred)
    assert got == want
    assert list(got.per_type) == list(want.per_type)
