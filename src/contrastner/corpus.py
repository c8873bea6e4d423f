"""CoNLL-column corpus I/O, IOB to BIO conversion, span extraction."""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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


@dataclass(frozen=True, order=True)
class Span:
    """Entity span: inclusive token indices and its type label."""
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


def parse_conll(path, strict: bool = False, types: Optional[Iterable[str]] = None):
    """Read a whitespace-column file into TaggedSentences: the token is the
    first field of a row and the tag the last.

    Blank lines end a sentence; lines whose first field is -DOCSTART- are
    skipped. With strict=True every tag must match the BIO grammar (over
    `types` when given), or DataError names the line.
    """
    sentences = []
    tokens: list = []
    tags: list = []

    def flush():
        if tokens:
            sentences.append(TaggedSentence(list(tokens), list(tags)))
            tokens.clear()
            tags.clear()

    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            fields = line.split()
            if not fields:
                flush()
                continue
            if fields[0] == "-DOCSTART-":
                flush()
                continue
            token, tag = fields[0], fields[-1]
            if strict:
                try:
                    validate_tags([tag], types)
                except ValueError as e:
                    raise DataError(str(e), path=path, line=lineno) from None
            tokens.append(token)
            tags.append(tag)
    flush()
    return sentences


def write_conll(sentences: Sequence[TaggedSentence], path):
    """Write token<space>tag lines with blank lines between sentences."""
    with open(path, "w", encoding="utf-8") as f:
        for i, sent in enumerate(sentences):
            if i:
                f.write("\n")
            for token, tag in zip(sent.tokens, sent.tags):
                f.write(f"{token} {tag}\n")


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
    that were never converted from IOB). O or a type change closes.

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
        elif tag.startswith("B-"):
            if cur is not None:
                spans.add(Span(start, i - 1, cur))
            cur = tag[2:]
            start = i
        elif tag.startswith("I-"):
            if cur is None or cur != tag[2:]:
                if cur is not None:
                    spans.add(Span(start, i - 1, cur))
                cur = tag[2:]
                start = i
        else:
            raise ValueError(f"malformed tag {tag!r}")
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
