"""Deterministic synthetic fixtures: template-grammar corpora.

Everything here is driven by a seeded generator, so a given (seed, size)
always yields byte-identical data. The grammars are small enough to keep
vocabularies under two hundred types yet varied enough that a tagger has
to use context, not token identity alone (one surface is deliberately
shared between two entity roles).
"""
from __future__ import annotations

import itertools

import numpy as np

from .corpus import SentencePair, TaggedSentence

PER_FIRST = ["Alice", "Brendan", "Carla", "Dmitri", "Elena", "Farid", "Greta", "Hiro"]
PER_LAST = ["Okafor", "Petrov", "Quintana", "Rahman", "Sato", "Tanaka", "Ueda", "Mercer"]
LOC_NAMES = ["Avalon", "Brindleton", "Calderas", "Dunmore", "Eastvale", "Fernhaven",
             "Glenrock", "Harwick"]
LOC_SUFFIX = ["Bay", "Falls"]
ORG_STEM = ["Apex", "Borealis", "Cindersoft", "Dynatech", "Evergreen", "Fluxcorp",
            "Gildan", "Mercer"]
ORG_SUFFIX = ["Labs", "Group", "Industries", "Holdings"]
MISC_STEM = ["Zephyr", "Solstice", "Meridian", "Harvest"]
MISC_SUFFIX = ["Accord", "Treaty", "Festival", "Cup"]
# entity kind -> (first tokens, second tokens, chance of a second token);
# MISC always takes a second token and draws no chance: a draw would shift the stream
_ENTITY_PARTS = {"PER": (PER_FIRST, PER_LAST, 0.5), "LOC": (LOC_NAMES, LOC_SUFFIX, 0.3),
                 "ORG": (ORG_STEM, ORG_SUFFIX, 0.7), "MISC": (MISC_STEM, MISC_SUFFIX, None)}

# slot grammar: plain strings are literal tokens
NER_TEMPLATES = [
    ["{PER}", "visited", "{LOC}", "on", "friday", "."],
    ["{PER}", "met", "{PER}", "in", "{LOC}", "."],
    ["{ORG}", "hired", "{PER}", "last", "month", "."],
    ["{PER}", "joined", "{ORG}", "after", "the", "talks", "."],
    ["{ORG}", "opened", "an", "office", "in", "{LOC}", "."],
    ["the", "{MISC}", "was", "signed", "in", "{LOC}", "."],
    ["analysts", "at", "{ORG}", "praised", "the", "{MISC}", "."],
    ["{LOC}", "hosted", "the", "{MISC}", "this", "year", "."],
    ["{ORG}", "and", "{ORG}", "agreed", "a", "deal", "."],
    ["{PER}", "left", "{ORG}", "for", "{LOC}", "."],
]


def _draw_entity(kind: str, rng: np.random.Generator):
    if kind not in _ENTITY_PARTS:
        raise ValueError(f"unknown entity kind {kind!r}")
    first, second, chance = _ENTITY_PARTS[kind]
    toks = [first[rng.integers(len(first))]]
    if chance is None or rng.random() < chance:
        toks.append(second[rng.integers(len(second))])
    tags = ["B-" + kind] + ["I-" + kind] * (len(toks) - 1)
    return toks, tags


def _fill_template(template, rng: np.random.Generator) -> TaggedSentence:
    tokens, tags = [], []
    for item in template:
        if item.startswith("{") and item.endswith("}"):
            toks, tgs = _draw_entity(item[1:-1], rng)
            tokens.extend(toks)
            tags.extend(tgs)
        else:
            tokens.append(item)
            tags.append("O")
    return TaggedSentence(tokens, tags)


def ner_fixture(seed: int = 0, n_train: int = 500, n_test: int = 100):
    """Train/test TaggedSentence lists over PER/LOC/ORG/MISC."""
    rng = np.random.default_rng(seed)
    train = [_fill_template(NER_TEMPLATES[rng.integers(len(NER_TEMPLATES))], rng)
             for _ in range(n_train)]
    test = [_fill_template(NER_TEMPLATES[rng.integers(len(NER_TEMPLATES))], rng)
            for _ in range(n_test)]
    return train, test


# paraphrase pairs: same content, swapped filler words; the anchor surface
# "Mercer" acts as a person in the travel frames and a company in the rest
PAIR_FRAMES = [
    (["{X}", "visited", "{LOC}", "on", "{DAY}", "."],
     ["{X}", "traveled", "to", "{LOC}", "on", "{DAY}", "."]),
    (["{X}", "signed", "the", "{MISC}", "{SUF}", "."],
     ["{X}", "approved", "the", "{MISC}", "{SUF}", "."]),
    (["{X}", "hired", "new", "staff", "in", "{LOC}", "."],
     ["{X}", "recruited", "new", "staff", "in", "{LOC}", "."]),
    (["shares", "of", "{X}", "rose", "on", "{DAY}", "."],
     ["stock", "in", "{X}", "climbed", "on", "{DAY}", "."]),
]
DAYS = ["monday", "tuesday", "wednesday", "thursday", "friday"]


def pairs_fixture(seed: int = 0, n_pairs: int = 200):
    """Distinct sentence/paraphrase pairs with one role-ambiguous anchor.

    All slot combinations are enumerated and sampled without replacement,
    so no two pairs are identical (a duplicate's key would sit in the
    negative queue as a false negative of its twin).
    """
    pools = {"{X}": ["Mercer"] + PER_FIRST[:3] + ORG_STEM[:3], "{LOC}": LOC_NAMES,
             "{DAY}": DAYS, "{MISC}": MISC_STEM, "{SUF}": MISC_SUFFIX}
    combos = []
    for fi, (frame_a, _) in enumerate(PAIR_FRAMES):
        slots = sorted({item for item in frame_a if item.startswith("{")})
        combos += [(fi, dict(zip(slots, values)))
                   for values in itertools.product(*(pools[slot] for slot in slots))]
    if n_pairs > len(combos):
        raise ValueError(f"at most {len(combos)} distinct pairs available")
    rng = np.random.default_rng(seed)
    picks = rng.permutation(len(combos))[:n_pairs]
    pairs = []
    for k in picks:
        fi, binding = combos[k]
        frame_a, frame_b = PAIR_FRAMES[fi]
        fill = lambda frame: [binding.get(item, item) for item in frame]
        pairs.append(SentencePair(fill(frame_a), fill(frame_b)))
    return pairs


ABLATION_FIRST = ["Atlantic", "Borealis", "Cascade", "Dorian", "Eastern", "Federal",
                  "Global", "Harbor", "Imperial", "Juniper", "Keystone", "Lakeside",
                  "Meridian", "Northern", "Orchard", "Pacific", "Quarry", "Riverside",
                  "Summit", "Tidewater"]
ABLATION_SECOND = ["Energy", "Metals", "Transit", "Grain", "Timber", "Shipping",
                   "Steel", "Freight", "Textile", "Mining", "Cargo", "Power",
                   "Lumber", "Glass", "Paper", "Cement", "Copper", "Rubber",
                   "Salt", "Wool"]
ABLATION_THIRD = ["Commission", "Council", "Authority", "Board", "Bureau",
                  "Agency", "Institute", "Union", "Alliance", "Consortium",
                  "Office", "Panel", "Trust", "Fund", "League", "Society",
                  "Network", "Partnership", "Syndicate", "Cooperative"]


def kg_ablation_fixture(n_errors: int = 20, seed: int = 0):
    """Gold corpus, predictions with injected abbreviation errors, snapshot.

    Each of n_errors organisations appears twice: once written out in full
    (correctly predicted) and once as its acronym, where the prediction
    drops the entity. The snapshot lists only the written-out forms. The
    expected repair is exactly one span per acronym sentence.

    Returns:
        (gold, predicted, snapshot_lines, error_positions) where
        error_positions is a list of (sentence_index, token_index).
    """
    if not 1 <= n_errors <= len(ABLATION_FIRST):
        raise ValueError(f"n_errors must be in [1, {len(ABLATION_FIRST)}]")
    rng = np.random.default_rng(seed)
    gold = []
    snapshot = []
    acronym_sentences = []
    for i in range(n_errors):
        full = [ABLATION_FIRST[i], ABLATION_SECOND[i], ABLATION_THIRD[i]]
        acro = "".join(w[0] for w in full)
        snapshot.append(" ".join(full) + "\tOrganisation")
        gold.append(TaggedSentence(
            ["the"] + full + ["announced", "a", "plan", "."],
            ["O", "B-ORG", "I-ORG", "I-ORG", "O", "O", "O", "O"]))
        gold.append(TaggedSentence(
            [acro, "approved", "the", "budget", "."],
            ["B-ORG", "O", "O", "O", "O"]))
        acronym_sentences.append(len(gold) - 1)
        filler = _fill_template(NER_TEMPLATES[rng.integers(len(NER_TEMPLATES))], rng)
        gold.append(filler)
    predicted = [TaggedSentence(list(s.tokens), list(s.tags)) for s in gold]
    errors = []
    for si in acronym_sentences:
        predicted[si].tags[0] = "O"
        errors.append((si, 0))
    return gold, predicted, snapshot, errors
