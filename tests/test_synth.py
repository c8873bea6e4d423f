"""Synthetic fixture generators: determinism, size bounds, error layout."""
import pytest

from contrastner import synth
from contrastner.corpus import bio_to_spans, validate_tags
from contrastner.encoder import Vocab


def test_ner_fixture_is_deterministic():
    a_train, a_test = synth.ner_fixture(seed=4, n_train=30, n_test=5)
    b_train, b_test = synth.ner_fixture(seed=4, n_train=30, n_test=5)
    assert [(s.tokens, s.tags) for s in a_train] == \
        [(s.tokens, s.tags) for s in b_train]
    assert [(s.tokens, s.tags) for s in a_test] == \
        [(s.tokens, s.tags) for s in b_test]
    c_train, _ = synth.ner_fixture(seed=5, n_train=30, n_test=5)
    assert [(s.tokens, s.tags) for s in a_train] != \
        [(s.tokens, s.tags) for s in c_train]


def test_ner_fixture_vocab_and_types_stay_bounded():
    train, test = synth.ner_fixture(seed=0, n_train=500, n_test=100)
    vocab = Vocab.from_sentences([s.tokens for s in train + test])
    assert len(vocab) <= 200
    types = set()
    for sent in train + test:
        validate_tags(sent.tags)
        for span in bio_to_spans(sent.tags):
            types.add(span.type_)
    assert types == {"PER", "LOC", "ORG", "MISC"}


def test_pairs_fixture_has_distinct_pairs_and_shared_anchor():
    pairs = synth.pairs_fixture(seed=0, n_pairs=200)
    seen = {(tuple(p.sentence), tuple(p.positive)) for p in pairs}
    assert len(seen) == 200
    # the anchor surface must occur in both a person frame and a company frame
    as_person = [p for p in pairs if p.sentence[:2] == ["Mercer", "visited"]
                 or p.sentence[:2] == ["Mercer", "hired"]]
    as_company = [p for p in pairs if p.sentence[:3] == ["shares", "of", "Mercer"]]
    assert as_person and as_company
    with pytest.raises(ValueError):
        synth.pairs_fixture(seed=0, n_pairs=10_000)


def test_ablation_fixture_errors_are_exactly_where_reported():
    gold, predicted, snapshot, errors = synth.kg_ablation_fixture(n_errors=20,
                                                                  seed=0)
    assert len(snapshot) == 20 and len(errors) == 20
    diffs = [(si, ti)
             for si, (g, p) in enumerate(zip(gold, predicted))
             for ti, (a, b) in enumerate(zip(g.tags, p.tags))
             if a != b]
    assert sorted(diffs) == sorted(errors)
    for si, ti in errors:
        assert gold[si].tags[ti] == "B-ORG"
        assert predicted[si].tags[ti] == "O"
        acronym = predicted[si].tokens[ti]
        assert acronym.isupper() and len(acronym) == 3
    # fixture hands out copies: touching a prediction must not leak into gold
    predicted[0].tags[0] = "B-PER"
    assert gold[0].tags[0] != "B-PER"


def test_ablation_fixture_bounds():
    with pytest.raises(ValueError):
        synth.kg_ablation_fixture(n_errors=0)
    with pytest.raises(ValueError):
        synth.kg_ablation_fixture(n_errors=21)
