"""Corpus I/O, tag-scheme conversion, and span extraction."""
import random

import pytest

from contrastner.corpus import (
    DataError,
    Span,
    SentencePair,
    TaggedSentence,
    bio_to_spans,
    corpus_stats,
    iob_to_bio,
    load_pairs,
    parse_conll,
    spans_to_bio,
    validate_tags,
    write_conll,
)

TYPES = ("PER", "LOC", "ORG", "MISC")


def random_spans(rng: random.Random, length: int):
    """Non-overlapping random spans over [0, length)."""
    spans = set()
    i = 0
    while i < length:
        if rng.random() < 0.4:
            end = min(length - 1, i + rng.randrange(3))
            spans.add(Span(i, end, rng.choice(TYPES)))
            i = end + 2
        else:
            i += 1
    return spans


def test_tagged_sentence_invariants():
    with pytest.raises(ValueError):
        TaggedSentence(["a", "b"], ["O"])
    with pytest.raises(ValueError):
        TaggedSentence([], [])
    sent = TaggedSentence(["a"], ["O"])
    assert len(sent) == 1


def test_sentence_pair_rejects_empty_side():
    with pytest.raises(ValueError):
        SentencePair([], ["a"])
    with pytest.raises(ValueError):
        SentencePair(["a"], [])


def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.conll"
    path.write_text("")
    assert parse_conll(path) == []


def test_parse_two_sentences(tmp_path):
    path = tmp_path / "two.conll"
    path.write_text("a O\nb B-PER\nc I-PER\n\nd O\ne O\n")
    sents = parse_conll(path)
    assert [len(s) for s in sents] == [3, 2]
    assert sents[0].tokens == ["a", "b", "c"]
    assert sents[1].tags == ["O", "O"]


def test_parse_skips_docstart(tmp_path):
    path = tmp_path / "doc.conll"
    path.write_text("-DOCSTART- -X- O O\n\na O\nb O\n")
    sents = parse_conll(path)
    assert len(sents) == 1
    assert sents[0].tokens == ["a", "b"]


def test_parse_strict_rejects_unknown_tag(tmp_path):
    path = tmp_path / "bad.conll"
    path.write_text("a O\nb B-XYZ\n")
    with pytest.raises(DataError) as exc:
        parse_conll(path, strict=True, types=TYPES)
    assert exc.value.line == 2
    # lax mode accepts any well-formed tag
    assert len(parse_conll(path)) == 1


def test_validate_tags():
    validate_tags(["O", "B-PER", "I-PER"], TYPES)
    with pytest.raises(ValueError):
        validate_tags(["B-"], None)
    with pytest.raises(ValueError):
        validate_tags(["B-PER"], ["LOC"])
    with pytest.raises(ValueError):
        validate_tags(["PER"], TYPES)


def test_iob_to_bio_examples():
    assert iob_to_bio(["I-PER", "I-PER", "O"]) == ["B-PER", "I-PER", "O"]
    assert iob_to_bio(["I-ORG", "B-ORG"]) == ["B-ORG", "B-ORG"]
    assert iob_to_bio(["O", "O", "O"]) == ["O", "O", "O"]


def test_iob_to_bio_type_change_opens_entity():
    assert iob_to_bio(["I-PER", "I-LOC"]) == ["B-PER", "B-LOC"]


def test_bio_to_spans_examples():
    assert bio_to_spans(["B-PER", "I-PER", "O", "B-ORG"]) == {
        Span(0, 1, "PER"), Span(3, 3, "ORG")}
    assert bio_to_spans(["O", "I-PER"]) == {Span(1, 1, "PER")}


def test_bio_to_spans_adjacent_and_trailing():
    assert bio_to_spans(["B-PER", "B-PER"]) == {
        Span(0, 0, "PER"), Span(1, 1, "PER")}
    assert bio_to_spans(["O", "B-LOC", "I-LOC"]) == {Span(1, 2, "LOC")}
    # type switch inside I-run splits the span
    assert bio_to_spans(["B-PER", "I-LOC"]) == {
        Span(0, 0, "PER"), Span(1, 1, "LOC")}


def test_spans_round_trip_property():
    # spans_to_bio then bio_to_spans recovers the span set exactly
    rng = random.Random(0)
    for case in range(500):
        length = rng.randrange(1, 15)
        spans = random_spans(rng, length)
        tags = spans_to_bio(spans, length)
        validate_tags(tags, TYPES)
        assert bio_to_spans(tags) == spans, f"case {case}: {tags}"


def test_spans_to_bio_rejects_bad_spans():
    with pytest.raises(ValueError):
        spans_to_bio([Span(0, 3, "PER")], 3)
    with pytest.raises(ValueError):
        spans_to_bio([Span(0, 1, "PER"), Span(1, 2, "LOC")], 4)


def test_iob_to_bio_preserves_spans_property():
    rng = random.Random(1)
    for _ in range(500):
        length = rng.randrange(1, 12)
        tags = []
        prev = "O"
        for _ in range(length):
            # B- only legal directly after a same-type entity tag (IOB rule)
            options = ["O", "I-PER", "I-LOC"]
            if prev != "O":
                options.append("B-" + prev[2:])
            prev = rng.choice(options)
            tags.append(prev)
        converted = iob_to_bio(tags)
        assert bio_to_spans(converted) == bio_to_spans(tags)
        # converted output never starts an entity with I-
        prior = "O"
        for tag in converted:
            if tag.startswith("I-"):
                assert prior != "O" and prior[2:] == tag[2:]
            prior = tag


def test_load_pairs_examples(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("a b\tc d\n")
    pairs = load_pairs(path)
    assert len(pairs) == 1
    assert pairs[0].sentence == ["a", "b"]
    assert pairs[0].positive == ["c", "d"]

    empty = tmp_path / "none.tsv"
    empty.write_text("")
    assert load_pairs(empty) == []

    multi = tmp_path / "multi.tsv"
    multi.write_text("".join(f"w{i}\tv{i}\n" for i in range(7)))
    assert len(load_pairs(multi)) == 7


def test_load_pairs_errors(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a b\tc d\nonly one column\n")
    with pytest.raises(DataError) as exc:
        load_pairs(bad)
    assert exc.value.line == 2

    blank_side = tmp_path / "blank.tsv"
    blank_side.write_text("a\t\n")
    with pytest.raises(DataError):
        load_pairs(blank_side)


def test_corpus_stats():
    assert corpus_stats([]) == {
        "sentences": 0, "tokens": 0, "entities": 0, "per_type": {}}
    sent = TaggedSentence(
        ["John", "visited", "Paris", "."],
        ["B-PER", "O", "B-LOC", "O"])
    stats = corpus_stats([sent])
    assert stats["tokens"] == 4
    assert stats["entities"] == 2
    assert stats["per_type"] == {"LOC": 1, "PER": 1}
    assert stats["entities"] == sum(stats["per_type"].values())


def test_write_parse_round_trip(tmp_path):
    rng = random.Random(2)
    sentences = []
    for _ in range(100):
        length = rng.randrange(1, 10)
        tags = spans_to_bio(random_spans(rng, length), length)
        tokens = [f"tok{rng.randrange(50)}" for _ in range(length)]
        sentences.append(TaggedSentence(tokens, tags))
    path = tmp_path / "round.conll"
    write_conll(sentences, path)
    back = parse_conll(path)
    assert len(back) == len(sentences)
    for a, b in zip(sentences, back):
        assert a.tokens == b.tokens
        assert a.tags == b.tags


def test_write_empty_list(tmp_path):
    path = tmp_path / "empty.conll"
    write_conll([], path)
    assert path.read_text() == ""
    assert parse_conll(path) == []
