"""Exact-match span evaluation with a conlleval-flavored report.

A predicted span counts as correct only when its boundaries and type both
match a gold span. Precision, recall, and F1 come from those counts; any
zero denominator yields 0 rather than an error.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from typing import Sequence

from .corpus import DataError, TaggedSentence, bio_to_spans, parse_conll


@dataclass
class EvalCounts:
    tokens: int = 0
    correct_tokens: int = 0
    gold_spans: int = 0
    pred_spans: int = 0
    correct_spans: int = 0
    per_type: dict = field(default_factory=dict)  # type -> [gold, pred, correct]


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    accuracy: float
    counts: EvalCounts
    per_type: dict  # type -> (precision, recall, f1)


def count_matches(gold: Sequence[TaggedSentence],
                  pred: Sequence[TaggedSentence]) -> EvalCounts:
    """Tally exact span matches between aligned sentence lists; DataError
    when they differ in sentence count or in any sentence's tokens."""
    if len(gold) != len(pred):
        raise DataError(f"{len(gold)} gold sentences vs {len(pred)} predicted")
    counts = EvalCounts()
    for i, (g, p) in enumerate(zip(gold, pred)):
        if g.tokens != p.tokens:
            raise DataError(f"sentence {i}: gold and predicted tokens differ")
        counts.tokens += len(g)
        gspans = bio_to_spans(g.tags)
        if g.tags == p.tags:
            counts.correct_tokens += len(g)
            pspans = correct = gspans
        else:
            counts.correct_tokens += sum(map(operator.eq, g.tags, p.tags))
            pspans = bio_to_spans(p.tags)
            correct = gspans & pspans
        counts.gold_spans += len(gspans)
        counts.pred_spans += len(pspans)
        counts.correct_spans += len(correct)
        for column, spans in enumerate((gspans, pspans, correct)):
            for _, _, type_ in spans:
                counts.per_type.setdefault(type_, [0, 0, 0])[column] += 1
    return counts


def _prf(n_gold: int, n_pred: int, n_correct: int):
    p = n_correct / n_pred if n_pred else 0.0
    r = n_correct / n_gold if n_gold else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def prf(counts: EvalCounts) -> EvalReport:
    p, r, f = _prf(counts.gold_spans, counts.pred_spans, counts.correct_spans)
    acc = counts.correct_tokens / counts.tokens if counts.tokens else 0.0
    by_type = {t: _prf(g, pr, c) for t, (g, pr, c) in sorted(counts.per_type.items())}
    return EvalReport(p, r, f, acc, counts, by_type)


def _pct(x: float) -> str:
    """Percentage with two decimals, ties rounded half-up."""
    q = Decimal.from_float(x * 100).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    return f"{q:.2f}"


def format_report(report: EvalReport) -> str:
    c = report.counts
    lines = [
        f"processed {c.tokens} tokens with {c.gold_spans} phrases; "
        f"found: {c.pred_spans} phrases; correct: {c.correct_spans}.",
        f"accuracy: {_pct(report.accuracy):>7}%; "
        f"precision: {_pct(report.precision):>7}%; "
        f"recall: {_pct(report.recall):>7}%; "
        f"FB1: {_pct(report.f1):>7}",
    ]
    for t, (p, r, f) in report.per_type.items():
        found = c.per_type[t][1]
        lines.append(f"{t:>17}: precision: {_pct(p):>7}%; "
                     f"recall: {_pct(r):>7}%; FB1: {_pct(f):>7}  {found}")
    lines.append("")
    lines.append(f"precision={report.precision!r}")
    lines.append(f"recall={report.recall!r}")
    lines.append(f"f1={report.f1!r}")
    lines.append(f"accuracy={report.accuracy!r}")
    return "\n".join(lines) + "\n"


def report(gold: Sequence[TaggedSentence], pred: Sequence[TaggedSentence]) -> str:
    return format_report(prf(count_matches(gold, pred)))


def report_files(gold_path, pred_path) -> str:
    """report on two CoNLL files; a misalignment names the predictions."""
    gold, pred = parse_conll(gold_path, strict=True), parse_conll(pred_path, strict=True)
    try:
        counts = count_matches(gold, pred)
    except DataError as e:
        raise DataError(str(e), path=pred_path) from None
    return format_report(prf(counts))
