"""Seeded corpus for the `kg-correct` workload.

The corpus is cut into blocks of `block` sentences. Each block holds one
organisation written out in full ("the Kanor Belix Tuvam announced a plan
."), the same organisation as its 3-letter acronym ("KBT approved the budget
."), and `synth.ner_fixture` sentences for the rest. The prediction equals
the gold corpus except that every acronym sentence has lost its entity; the
snapshot lists only the written-out names. Acronyms are distinct by
construction, so each one expands to exactly one listed name, and the
expected correction is the gold corpus itself.
"""
from __future__ import annotations

import string

import numpy as np

from contrastner import synth
from contrastner.corpus import TaggedSentence

_SYLLABLES = ["an", "el", "or", "is", "um", "ar", "en", "ox", "ul", "ir", "av", "et"]


def _word(letter: str, rng, taken: set) -> str:
    while True:
        word = letter.upper() + "".join(rng.choice(_SYLLABLES, size=2))
        if word not in taken:
            taken.add(word)
            return word


def kg_fixture(seed: int, n_sentences: int = 2000, block: int = 50):
    """Gold corpus, predicted corpus, snapshot lines and error positions.

    Returns:
        (gold, predicted, snapshot_lines, errors) where errors lists the
        (sentence, token) positions whose predicted tag was dropped.
    """
    if block < 3 or n_sentences % block:
        raise ValueError("n_sentences must be a multiple of a block of >= 3")
    n_blocks = n_sentences // block
    rng = np.random.default_rng(seed)
    fillers, _ = synth.ner_fixture(seed=seed, n_train=n_blocks * (block - 2), n_test=0)
    taken = {tok for sent in fillers for tok in sent.tokens}
    letters = string.ascii_lowercase
    picks = rng.choice(len(letters) ** 3, size=n_blocks, replace=False)
    gold, snapshot, acronym_rows = [], [], []
    for b, code in enumerate(picks):
        initials = [letters[code // 676], letters[code // 26 % 26], letters[code % 26]]
        name = [_word(c, rng, taken) for c in initials]
        acronym = "".join(initials).upper()
        snapshot.append(" ".join(name) + "\tOrganisation")
        rows = fillers[b * (block - 2):(b + 1) * (block - 2)]
        full_at, acro_at = sorted(int(i) for i in rng.choice(block, size=2, replace=False))
        rows.insert(full_at, TaggedSentence(
            ["the"] + name + ["announced", "a", "plan", "."],
            ["O", "B-ORG", "I-ORG", "I-ORG", "O", "O", "O", "O"]))
        rows.insert(acro_at, TaggedSentence(
            [acronym, "approved", "the", "budget", "."],
            ["B-ORG", "O", "O", "O", "O"]))
        acronym_rows.append(len(gold) + acro_at)
        gold.extend(rows)
    predicted = [TaggedSentence(list(s.tokens), list(s.tags)) for s in gold]
    for row in acronym_rows:
        predicted[row].tags[0] = "O"
    return gold, predicted, snapshot, [(row, 0) for row in acronym_rows]
