"""Corpus I/O, tag-scheme conversion, and span extraction."""
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from contrastner import corpus, synth
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


def test_span_is_a_tuple_of_its_fields():
    s = Span(2, 4, "ORG")
    assert (s.start, s.end, s.type_) == (2, 4, "ORG")
    assert s == (2, 4, "ORG") and hash(s) == hash((2, 4, "ORG"))
    assert repr(s) == str(s) == "Span(start=2, end=4, type_='ORG')"
    assert sorted([Span(3, 3, "A"), Span(1, 2, "B"), Span(1, 1, "C")]) == [
        (1, 1, "C"), (1, 2, "B"), (3, 3, "A")]


@pytest.mark.parametrize("tags", [["B-"], ["I-"], ["B-PER", "I-"], ["PER"]])
def test_bio_to_spans_rejects_malformed_tags(tags):
    with pytest.raises(ValueError, match="malformed tag"):
        bio_to_spans(tags)


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


def written_rows(sentences) -> list:
    return [(s.tokens, s.tags) for s in sentences]


def parse_outcome(parse, path, strict=False, types=None):
    """The sentences a parser returns, or the type and text of its error."""
    try:
        return written_rows(parse(path, strict, types))
    except (DataError, UnicodeDecodeError) as e:
        return type(e), str(e), getattr(e, "line", None)


@pytest.fixture(scope="module")
def io_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus_io")


# Lines of the parse differential test. Half are rows in the form
# write_conll emits; the rest have 1-4 columns split by spaces, tabs, a
# no-break space or \x1c (whitespace to str.split, not a line break to a
# file), leading or trailing blanks, or are blank, whitespace-only or
# -DOCSTART- lines. Tags include malformed ones and a type outside TYPES.
FIELDS = ["a", "Bob", "x-y", "é", "-DOCSTART-", "O", "B-PER", "I-LOC", "B-XYZ",
          "B-", "PER"]
field_st = st.sampled_from(FIELDS)
blank_st = st.sampled_from(["", " ", "\t", "\xa0", " \x1c "])
writer_row_st = st.builds(lambda tok, tag: f"{tok} {tag}", field_st, field_st)


def column_row(fields, seps, pad) -> str:
    return pad[0] + fields[0] + "".join(map(str.__add__, seps, fields[1:])) + pad[1]


column_row_st = st.builds(
    column_row, st.lists(field_st, min_size=1, max_size=4),
    st.lists(st.sampled_from([" ", "  ", "\t", "\xa0", "\x1c"]), min_size=3, max_size=3),
    st.tuples(st.sampled_from(["", " ", "\t"]), st.sampled_from(["", " ", "\xa0"])))
line_st = st.one_of(writer_row_st, writer_row_st, st.just(""), column_row_st, blank_st,
                    st.just("-DOCSTART- -X- -X- O"))


@settings(max_examples=400, deadline=None)
@given(lines=st.lists(line_st, max_size=40),
       ends=st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]), min_size=40, max_size=40),
       final_newline=st.booleans(), bad_byte=st.none() | st.integers(0, 10**4),
       strict=st.booleans(), types=st.sampled_from([None, TYPES]),
       chunk=st.integers(1, 40))
def test_parse_matches_row_by_row_reference(io_dir, lines, ends, final_newline,
                                            bad_byte, strict, types, chunk):
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and not final_newline:
        text = text[:-len(ends[len(lines) - 1])]
    data = text.encode("utf-8")
    if bad_byte is not None:
        at = bad_byte % (len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    path = io_dir / "fuzz.conll"
    path.write_bytes(data)
    with mock.patch.object(corpus, "_READ_CHUNK", chunk):
        got = parse_outcome(parse_conll, path, strict, types)
    assert got == parse_outcome(helpers.ref_parse_conll, path, strict, types)


# blank runs at the start, inside and at the end; rows of 1-4 columns, a
# sentence of two one-column rows among them; a -DOCSTART- row in
# write_conll's form; CRLF and a final row without newline
EVERY_CUT = ("\n\na O\nb B-PER\n\n\n\nc I-PER\nd O\n\n-DOCSTART- O\n\ne O\r\n"
             "f\tNN B-NP B-LOC\n \ng O\n\nh I-LOC\ni\n\nl\nm\n\n\nj O\nk O")


@pytest.mark.parametrize("strict", [False, True])
def test_parse_matches_reference_at_every_read_size(tmp_path, strict):
    path = tmp_path / "cuts.conll"
    path.write_bytes(EVERY_CUT.encode("utf-8"))
    want = parse_outcome(helpers.ref_parse_conll, path, strict)
    for chunk in range(1, len(EVERY_CUT) + 2):
        with mock.patch.object(corpus, "_READ_CHUNK", chunk):
            assert parse_outcome(parse_conll, path, strict) == want, chunk


def conll03_text(sentences) -> str:
    """Four-column rows in documents that open with -DOCSTART- lines."""
    out = []
    for i, sent in enumerate(sentences):
        if i % 9 == 0:
            out.append("-DOCSTART- -X- -X- O\n\n")
        out += [f"{tok} NNP B-NP {tag}\n" for tok, tag in zip(sent.tokens, sent.tags)]
        out.append("\n")
    return "".join(out)


def test_parse_matches_reference_on_files_of_many_read_chunks(tmp_path):
    train, _ = synth.ner_fixture(seed=1, n_train=3000, n_test=0)
    one_sentence = TaggedSentence([s.tokens[0] for s in train] * 6,
                                  [s.tags[0] for s in train] * 6)
    write_conll(train, tmp_path / "writer.conll")
    write_conll([one_sentence], tmp_path / "long.conll")
    writer = (tmp_path / "writer.conll").read_text(encoding="utf-8")
    columns = conll03_text(train)
    files = {"writer": writer, "columns": columns,
             "long": (tmp_path / "long.conll").read_text(encoding="utf-8"),
             "mixed": writer + "\n" + columns + "\n\n\n" + writer,
             "bad_tag_late": writer + "z B-NOPE\n"}
    for name, text in files.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        assert len(text) > 3 * corpus._READ_CHUNK
        for strict, types in ((False, None), (True, None), (True, ("PER", "LOC", "ORG"))):
            got = parse_outcome(parse_conll, path, strict, types)
            assert got == parse_outcome(helpers.ref_parse_conll, path, strict, types), name
    assert parse_conll(tmp_path / "writer.txt") == train
    with pytest.raises(DataError) as exc:
        parse_conll(tmp_path / "bad_tag_late.txt", strict=True, types=TYPES)
    assert exc.value.line == writer.count("\n") + 1


def test_parse_holds_at_most_two_reads_without_empty_lines(tmp_path):
    # sentences split by whitespace-only lines, and one sentence longer than
    # two reads: no block holds more than two reads, and each file parses as
    # the row-by-row reference parses it
    train, _ = synth.ner_fixture(seed=3, n_train=600, n_test=0)
    rows = ["".join(f"{t} {g}\n" for t, g in zip(s.tokens, s.tags)) for s in train]
    long = TaggedSentence([s.tokens[0] for s in train] * 6, [s.tags[0] for s in train] * 6)
    files = {"spaces": " \n".join(rows), "tabs": "\t \n".join(rows),
             "long": "".join(f"{t}\t{g}\n" for t, g in zip(long.tokens, long.tags)),
             "long_then_spaces": rows[0] * 600 + " \n" + " \n".join(rows),
             "rows_then_long": "\n".join(rows) + "\n" + rows[0] * 600}
    parse_block = corpus._parse_block
    held = []

    def spy(block):
        held.append(len(block))
        return parse_block(block)

    read = 1 << 12
    for name, text in files.items():
        path = tmp_path / f"{name}.conll"
        path.write_text(text, encoding="utf-8")
        assert len(text) > 8 * read
        held.clear()
        with mock.patch.object(corpus, "_READ_CHUNK", read), \
                mock.patch.object(corpus, "_parse_block", spy):
            got = parse_outcome(parse_conll, path)
        assert got == parse_outcome(helpers.ref_parse_conll, path), name
        assert max(held, default=0) <= 2 * read, name


# tokens and tags that read back as one field
value_st = st.text(min_size=1, max_size=4).filter(
    lambda v: v.split() == [v] and v != "-DOCSTART-")


@settings(max_examples=200, deadline=None)
@given(sentences=st.lists(st.lists(st.tuples(value_st, value_st), min_size=1, max_size=6),
                          max_size=12),
       chunk=st.integers(1, 5))
def test_write_matches_row_by_row_reference(io_dir, sentences, chunk):
    sents = [TaggedSentence([t for t, _ in s], [g for _, g in s]) for s in sentences]
    with mock.patch.object(corpus, "_WRITE_CHUNK", chunk):
        write_conll(sents, io_dir / "joined.conll")
    helpers.ref_write_conll(sents, io_dir / "rows.conll")
    assert (io_dir / "joined.conll").read_bytes() == (io_dir / "rows.conll").read_bytes()
    assert written_rows(parse_conll(io_dir / "joined.conll")) == written_rows(sents)


@pytest.mark.parametrize("n", [0, 1, 2 * corpus._WRITE_CHUNK + 3])
def test_write_is_byte_identical_to_reference(tmp_path, n):
    train, _ = synth.ner_fixture(seed=6, n_train=max(n, 1), n_test=0)
    write_conll(train[:n], tmp_path / "joined.conll")
    helpers.ref_write_conll(train[:n], tmp_path / "rows.conll")
    assert (tmp_path / "joined.conll").read_bytes() == (tmp_path / "rows.conll").read_bytes()


@pytest.mark.parametrize("tokens, tags, kind, value", [
    (["Le Monde", "said", ""], ["B-ORG", "O", "O"], "token", "Le Monde"),
    (["said", ""], ["O", "O"], "token", ""),
    (["a\tb"], ["O"], "token", "a\tb"),
    (["a\xa0b"], ["O"], "token", "a\xa0b"),
    (["line\n"], ["O"], "token", "line\n"),
    (["-DOCSTART-"], ["O"], "token", "-DOCSTART-"),
    (["x", "y"], ["O", ""], "tag", ""),
    (["x"], ["B-My Org"], "tag", "B-My Org"),
    (["x"], ["O\x1c"], "tag", "O\x1c"),
])
def test_write_rejects_fields_that_would_not_read_back(tmp_path, tokens, tags, kind, value):
    sentences = [TaggedSentence(["ok"], ["O"]), TaggedSentence(tokens, tags)]
    path = tmp_path / "out.conll"
    with pytest.raises(ValueError) as exc:
        write_conll(sentences, path)
    assert str(exc.value) == f"sentence 2: {kind} {value!r} would not read back as written"
    assert not path.exists()


def test_write_checks_every_sentence_before_opening_the_file(tmp_path):
    # the bad sentence lies in the third write chunk
    train, _ = synth.ner_fixture(seed=7, n_train=3 * corpus._WRITE_CHUNK, n_test=0)
    at = 2 * corpus._WRITE_CHUNK + 5
    train[at] = TaggedSentence(["Le Monde"], ["B-ORG"])
    path = tmp_path / "out.conll"
    path.write_text("kept\n")
    with pytest.raises(ValueError, match=f"^sentence {at + 1}: token 'Le Monde' "):
        write_conll(train, path)
    assert path.read_text() == "kept\n"
    with pytest.raises(ValueError, match=f"^sentence {at + 1}: "):
        write_conll(train, tmp_path / "new.conll")
    assert not (tmp_path / "new.conll").exists()
