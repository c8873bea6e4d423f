"""CoNLL-column corpus I/O, IOB to BIO conversion, span extraction."""
from __future__ import annotations

import io
import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Optional, Sequence

CONLL2003_TYPES = ("PER", "LOC", "ORG", "MISC")

_TAG_RE = re.compile(r"^(O|[BI]-\S+)$")


class DataError(ValueError):
    """Malformed input data; carries path and 1-based line number."""

    def __init__(self, message: str, path=None, line: Optional[int] = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:" + (f"{line}: " if line is not None else " ")
        super().__init__(where + message)


@dataclass
class TaggedSentence:
    tokens: list
    tags: list

    def __post_init__(self):
        if len(self.tokens) != len(self.tags):
            raise ValueError(
                f"{len(self.tokens)} tokens but {len(self.tags)} tags")
        if not self.tokens:
            raise ValueError("sentence must contain at least one token")

    def __len__(self):
        return len(self.tokens)


class Span(NamedTuple):
    """Entity span: inclusive token indices and its type label. A tuple, so
    Span(0, 1, "PER") == (0, 1, "PER"), and it hashes and orders as one."""
    start: int
    end: int
    type_: str


@dataclass
class SentencePair:
    """A sentence and a positive counterpart for contrastive training."""
    sentence: list
    positive: list

    def __post_init__(self):
        if not self.sentence or not self.positive:
            raise ValueError("both sides of a pair must be non-empty")


def validate_tags(tags: Sequence[str], types: Optional[Iterable[str]] = None):
    """Check every tag is O or B-/I- over the given types. Raises ValueError."""
    allowed = set(types) if types is not None else None
    for tag in tags:
        if not _TAG_RE.match(tag):
            raise ValueError(f"malformed tag {tag!r}")
        if allowed is not None and tag != "O" and tag[2:] not in allowed:
            raise ValueError(f"tag {tag!r} outside the configured types {sorted(allowed)}")


# Characters per read of parse_conll. Each read is cut after its last empty
# line, so no sentence spans two blocks and the text held besides the
# result stays within two reads.
_READ_CHUNK = 1 << 16

# A block in the form write_conll emits: optional empty lines, then rows of
# exactly token<space>tag, each followed by one or more newlines. \S is
# what str.split() does not split on, so each row splits into its two
# fields. The quantifiers are possessive (Python 3.11+), so a match keeps
# no backtracking state: the plain form holds about 1.7 MB of it per block.
_WRITER_FORM = re.compile(r"\n*+(?:\S++ \S++\n++)*+")


# Sentences per joined write of write_conll. Interleaving rows takes 48
# bytes of lists per token, so one write of a 2,000-sentence corpus would
# add about 1 MB to the peak RSS of correct.
_WRITE_CHUNK = 256


def _parse_lines(lines, path=None, strict: bool = False, types=None) -> list:
    """Sentences of an iterable of lines, one row per line: the token is the
    first field and the tag the last. With strict=True each distinct tag is
    checked at its first line, and DataError names that line."""
    sentences = []
    tokens: list = []
    tags: list = []
    checked = set()
    for lineno, line in enumerate(lines, 1):
        fields = line.split()
        if not fields or fields[0] == "-DOCSTART-":
            if tokens:
                sentences.append(TaggedSentence(tokens, tags))
                tokens, tags = [], []
            continue
        tag = fields[-1]
        if strict and tag not in checked:
            try:
                validate_tags([tag], types)
            except ValueError as e:
                raise DataError(str(e), path=path, line=lineno) from None
            checked.add(tag)
        tokens.append(fields[0])
        tags.append(tag)
    if tokens:
        sentences.append(TaggedSentence(tokens, tags))
    return sentences


def _parse_block(block: str) -> list:
    """Sentences of a block of whole lines, without tag checks."""
    if "-DOCSTART-" in block or not _WRITER_FORM.fullmatch(block):
        return _parse_lines(block.split("\n"))
    return [TaggedSentence(fields[0::2], fields[1::2])
            for fields in map(str.split, block.split("\n\n")) if fields]


def _parse_blocks(f) -> list:
    """Sentences of an open corpus file, without tag checks."""
    sentences = []
    rest = ""
    while chunk := f.read(_READ_CHUNK):
        text = rest + chunk
        at = text.rfind("\n\n")
        if at >= 0:
            sentences += _parse_block(text[:at + 2])
            rest = text[at + 2:]
        elif len(text) > _READ_CHUNK:
            # no empty line in two reads (a long sentence, or sentences
            # ended by whitespace-only lines): go on row by row, from the
            # start of the text and the rest of the line the last read cut
            rows = chain(io.StringIO(text + f.readline()), f)
            return sentences + _parse_lines(rows)
        else:
            rest = text
    return sentences + _parse_block(rest)


def parse_conll(path, strict: bool = False, types: Optional[Iterable[str]] = None):
    """Read a whitespace-column file into TaggedSentences: the token is the
    first field of a row and the tag the last.

    Blank lines end a sentence; lines whose first field is -DOCSTART- are
    skipped. With strict=True every tag must match the BIO grammar (over
    `types` when given), or DataError names the line of its first
    occurrence.

    The file is read in blocks of whole sentences, cut after empty lines;
    past two reads without one, the rest of the file goes row by row. A
    block in the form write_conll emits (rows of exactly token<space>tag,
    no -DOCSTART-) is split as one string; any other block, such as
    four-column CoNLL-2003 rows, goes row by row. Under strict the
    distinct tags are checked once at the end. When that check or decoding
    fails, the file is read again row by row, which raises the same error
    at the same line.
    """
    try:
        with open(path, encoding="utf-8") as f:
            sentences = _parse_blocks(f)
        if strict:
            validate_tags(set().union(*(s.tags for s in sentences)), types)
        return sentences
    except ValueError:
        # a malformed tag or an undecodable byte: read row by row, which
        # meets whichever comes first where a plain read does
        pass
    with open(path, encoding="utf-8") as f:
        return _parse_lines(f, path, strict, types)


def _check_fields(sentences: Sequence[TaggedSentence]):
    """ValueError naming the first sentence, numbered from 1, with a field
    that would not read back as written: an empty token or tag, one holding
    whitespace, or a -DOCSTART- token. Only the distinct values are tested;
    the sentences are searched on failure."""
    bad_tokens = {t for t in set().union(*(s.tokens for s in sentences))
                  if t.split() != [t] or t == "-DOCSTART-"}
    bad_tags = {t for t in set().union(*(s.tags for s in sentences))
                if t.split() != [t]}
    if not bad_tokens and not bad_tags:
        return
    for number, sent in enumerate(sentences, 1):
        for kind, values, bad in (("token", sent.tokens, bad_tokens),
                                  ("tag", sent.tags, bad_tags)):
            for value in values:
                if value in bad:
                    raise ValueError(f"sentence {number}: {kind} {value!r} would "
                                     f"not read back as written")


def _rows(batch: Sequence[TaggedSentence]) -> str:
    """The rows of a batch of sentences as one string, with an empty line
    between sentences: tokens, tags and line ends interleaved by slice
    assignment, so no Python step runs per token."""
    tokens = list(chain.from_iterable(s.tokens for s in batch))
    rows = [" ", " ", " ", "\n"] * len(tokens)
    rows[0::4] = tokens
    rows[2::4] = chain.from_iterable(s.tags for s in batch)
    at = -1
    for sent in batch[:-1]:
        at += len(sent.tokens)
        rows[4 * at + 3] = "\n\n"
    return "".join(rows)


def write_conll(sentences: Sequence[TaggedSentence], path):
    """Write token<space>tag lines with blank lines between sentences.

    A token or tag that is empty or holds whitespace, or a -DOCSTART-
    token, would read back as something else: it raises ValueError naming
    its sentence (numbered from 1) before the file is opened. The rows of
    every _WRITE_CHUNK sentences are then joined and written at once.
    """
    _check_fields(sentences)
    with open(path, "w", encoding="utf-8") as f:
        for first in range(0, len(sentences), _WRITE_CHUNK):
            if first:
                f.write("\n")
            f.write(_rows(sentences[first:first + _WRITE_CHUNK]))


def iob_to_bio(tags: Sequence[str]) -> list:
    """Convert IOB1 tags to BIO: entity-initial I-X becomes B-X.

    An I-X is entity-initial when it opens the sentence or follows a tag
    of a different type; B-X already marks a boundary and passes through.

    Example:
        iob_to_bio(["I-PER", "I-PER", "O"]) == ["B-PER", "I-PER", "O"]
    """
    out = []
    prev = "O"
    for tag in tags:
        if tag.startswith("I-") and not (
                prev.startswith(("B-", "I-")) and prev[2:] == tag[2:]):
            out.append("B-" + tag[2:])
        else:
            out.append(tag)
        prev = tag
    return out


def bio_to_spans(tags: Sequence[str]):
    """Extract entity spans from BIO tags, leniently.

    B-X opens a span; I-X continues a span of type X; an I-X without an
    open same-type span opens one (the conlleval convention for files
    that were never converted from IOB). O or a type change closes. Any
    other tag, a bare B- or I- included, raises ValueError.

    Returns:
        set of Span with inclusive start/end indices.
    """
    spans = set()
    start = None
    cur = None
    for i, tag in enumerate(tags):
        if tag == "O":
            if cur is not None:
                spans.add(Span(start, i - 1, cur))
                cur = None
        elif not tag.startswith(("B-", "I-")) or len(tag) == 2:
            raise ValueError(f"malformed tag {tag!r}")
        elif tag[0] == "B" or cur != tag[2:]:
            if cur is not None:
                spans.add(Span(start, i - 1, cur))
            cur = tag[2:]
            start = i
    if cur is not None:
        spans.add(Span(start, len(tags) - 1, cur))
    return spans


def spans_to_bio(spans: Iterable[Span], length: int) -> list:
    """Inverse of bio_to_spans for non-overlapping spans."""
    tags = ["O"] * length
    for span in sorted(spans):
        if span.start < 0 or span.end >= length or span.start > span.end:
            raise ValueError(f"span {span} out of range for length {length}")
        if any(tags[i] != "O" for i in range(span.start, span.end + 1)):
            raise ValueError(f"span {span} overlaps another span")
        tags[span.start] = "B-" + span.type_
        for i in range(span.start + 1, span.end + 1):
            tags[i] = "I-" + span.type_
    return tags


def load_pairs(path):
    """Read sentence pairs from a TSV: tokens<TAB>tokens, space-separated."""
    pairs = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].split() or not parts[1].split():
                raise DataError("expected two tab-separated token sequences",
                                path=path, line=lineno)
            pairs.append(SentencePair(parts[0].split(), parts[1].split()))
    return pairs


def corpus_stats(sentences: Sequence[TaggedSentence]) -> dict:
    """Sentence/token/entity totals plus a per-type entity breakdown."""
    per_type: dict = {}
    entities = 0
    tokens = 0
    for sent in sentences:
        tokens += len(sent)
        for span in bio_to_spans(sent.tags):
            entities += 1
            per_type[span.type_] = per_type.get(span.type_, 0) + 1
    return {
        "sentences": len(sentences),
        "tokens": tokens,
        "entities": entities,
        "per_type": dict(sorted(per_type.items())),
    }
