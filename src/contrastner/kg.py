"""Knowledge-graph post-correction of predicted entity tags.

The pipeline mines potential entities from the raw text: every all-
uppercase word is expanded against same-initial token windows of the
corpus, all contiguous sub-phrases of each expansion are looked up in the
knowledge graph, and capitalized token windows are looked up directly.
Surfaces that resolve to a mapped entity type form the potential-entity
set PE; predicted tags inconsistent with PE are rewritten in place.
"""
from __future__ import annotations

import json
import re
import urllib.parse
import urllib.request
from typing import Iterable, Optional, Sequence

from .corpus import DataError, TaggedSentence, bio_to_spans

DEFAULT_L_MAX = 6

DEFAULT_TYPE_MAP = {
    "Person": "PER",
    "Place": "LOC",
    "Organisation": "ORG",
}


class TypeMap:
    """Maps knowledge-graph type labels onto dataset entity types.

    Unmapped labels map to None, which callers drop. An IRI whose trailing
    segment matches a mapped label (…/ontology/Person) maps like the label
    itself.
    """

    def __init__(self, mapping: dict):
        self.mapping = dict(mapping)

    @classmethod
    def default_conll(cls) -> "TypeMap":
        return cls(DEFAULT_TYPE_MAP)

    @classmethod
    def load(cls, path) -> "TypeMap":
        """TSV of kg-type<TAB>dataset-type, one per line."""
        mapping = {}
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or not parts[0] or not parts[1]:
                    raise DataError("expected kg-type<TAB>dataset-type",
                                    path=path, line=lineno)
                mapping[parts[0]] = parts[1]
        return cls(mapping)

    def map(self, kg_type: str) -> Optional[str]:
        if kg_type in self.mapping:
            return self.mapping[kg_type]
        tail = kg_type.rsplit("/", 1)[-1].rsplit("#", 1)[-1]
        return self.mapping.get(tail)


class KgIndex:
    """In-memory surface-form index over a knowledge-graph snapshot."""

    def __init__(self):
        self._index: dict = {}   # surface -> list of dataset types
        self.dropped = 0
        self.skipped_lines = 0

    def add(self, surface: str, dataset_type: str):
        types = self._index.setdefault(surface, [])
        if dataset_type not in types:
            types.append(dataset_type)

    def lookup(self, surface: str) -> tuple:
        return tuple(self._index.get(surface, ()))

    def __len__(self):
        return len(self._index)


def load_snapshot(path, typemap: Optional[TypeMap] = None) -> KgIndex:
    """Read a TSV snapshot of surface<TAB>kg-type entries.

    Types are mapped through the TypeMap at load time (default CoNLL map).
    Malformed lines are counted in skipped_lines and skipped. Surfaces are
    whitespace-normalized.
    """
    typemap = typemap or TypeMap.default_conll()
    index = KgIndex()
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].split() or not parts[1].strip():
                index.skipped_lines += 1
                continue
            surface = " ".join(parts[0].split())
            mapped = typemap.map(parts[1].strip())
            if mapped is None:
                index.dropped += 1
                continue
            index.add(surface, mapped)
    return index


def is_acronym(word: str) -> bool:
    return len(word) >= 2 and word.isalpha() and word.isupper()


def _tokens_of(sent) -> list:
    return sent.tokens if isinstance(sent, TaggedSentence) else list(sent)


def _expansions(words: Sequence[str], token_lists: Sequence[list]) -> dict:
    """Every word's expand_acronym result from one pass over the corpus.

    A window of n tokens is keyed on its lower-cased initials and a word on
    the first n characters of its lower-cased form (str.lower can lengthen
    a character: 'İ' becomes two), so a window expands exactly the words
    whose key it shares. Each key collects distinct phrases in
    first-occurrence order.
    """
    keys = {w: tuple(w.lower()[:len(w)]) for w in words}
    phrases = {key: {} for key in keys.values()}
    lengths = {len(key) for key in phrases}
    for tokens in token_lists:
        initials = [t[:1].lower() for t in tokens]
        for n in lengths:
            for i in range(len(tokens) - n + 1):
                found = phrases.get(tuple(initials[i:i + n]))
                if found is not None:
                    found.setdefault(" ".join(tokens[i:i + n]))
    return {w: list(phrases[key]) for w, key in keys.items()}


def expand_acronym(word: str, sentences: Iterable) -> list:
    """Corpus token windows whose initials spell the word, case-insensitively.

    Windows are len(word) consecutive tokens; each token's first letter
    must match the corresponding acronym letter. Returns distinct phrases
    in first-occurrence order.

    Example:
        expand_acronym("TEC", [["asked", "the", "European", "Commission"]])
        == ["the European Commission"]
    """
    return _expansions([word], [_tokens_of(s) for s in sentences])[word]


def enumerate_subphrases(phrase) -> list:
    """All n*(n+1)/2 contiguous sub-phrases, shortest first, left to right.

    Example:
        enumerate_subphrases("The European Commission") ==
        ["The", "European", "Commission",
         "The European", "European Commission",
         "The European Commission"]
    """
    tokens = phrase.split() if isinstance(phrase, str) else list(phrase)
    out = []
    for length in range(1, len(tokens) + 1):
        for start in range(len(tokens) - length + 1):
            out.append(" ".join(tokens[start:start + length]))
    return out


class PotentialEntitySet:
    """Surfaces the knowledge graph recognizes, with their entity types."""

    def __init__(self):
        self._types: dict = {}   # surface -> list of dataset types

    def add(self, surface: str, types: Iterable[str]):
        have = self._types.setdefault(surface, [])
        for t in types:
            if t not in have:
                have.append(t)

    def __contains__(self, surface: str) -> bool:
        return surface in self._types

    def __len__(self):
        return len(self._types)

    def surfaces(self) -> list:
        return list(self._types)

    def types(self, surface: str) -> tuple:
        return tuple(self._types.get(surface, ()))

    def primary(self, surface: str) -> str:
        """The resolved type: the first one recorded for the surface."""
        return self._types[surface][0]

    def items(self):
        return ((s, tuple(ts)) for s, ts in self._types.items())


def build_pe(sentences: Sequence, kg, l_max: int = DEFAULT_L_MAX) -> PotentialEntitySet:
    """Mine the potential-entity set for a corpus against a KG lookup.

    Acronyms (all-uppercase words) are expanded; every contiguous
    sub-phrase of each expansion is looked up, and an acronym whose full
    expansion resolves inherits the expansion's types under its own
    surface. Independently, every window of <= l_max consecutive
    capitalized tokens is looked up directly. Acronyms are handled in
    first-occurrence order; all of them are expanded in one corpus pass,
    so the cost is linear in corpus tokens.
    """
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    pe = PotentialEntitySet()
    token_lists = [_tokens_of(s) for s in sentences]
    acronyms = list(dict.fromkeys(
        w for tokens in token_lists for w in tokens if is_acronym(w)))
    expansions = _expansions(acronyms, token_lists)
    for w in acronyms:
        inherited = None
        for exp in expansions[w]:
            for sub in enumerate_subphrases(exp):
                types = kg.lookup(sub)
                if types:
                    pe.add(sub, types)
                    if sub == exp and inherited is None:
                        inherited = types
        own = kg.lookup(w)
        if own:
            pe.add(w, own)
        if inherited:
            pe.add(w, inherited)
    for tokens in token_lists:
        t = 0
        while t < len(tokens):
            if not tokens[t][:1].isupper():
                t += 1
                continue
            run = t
            while run < len(tokens) and tokens[run][:1].isupper():
                run += 1
            for length in range(1, min(l_max, run - t) + 1):
                for start in range(t, run - length + 1):
                    surface = " ".join(tokens[start:start + length])
                    types = kg.lookup(surface)
                    if types:
                        pe.add(surface, types)
            t = run
    return pe


def _surface_trie(pe: PotentialEntitySet) -> dict:
    """Token trie of the PE surfaces: token -> child node; the None key of a
    node lists the surfaces whose tokens end there, in PE order."""
    root: dict = {}
    for surface in pe.surfaces():
        stoks = surface.split()
        if not stoks:
            continue
        node = root
        for tok in stoks:
            node = node.setdefault(tok, {})
        node.setdefault(None, []).append(surface)
    return root


def _claim_matches(tokens: Sequence[str], trie: dict) -> list:
    """Non-overlapping PE occurrences, longest first, then leftmost.

    Among surfaces with the same tokens, the first in PE order claims.
    """
    candidates = []
    for start in range(len(tokens)):
        node = trie
        for end in range(start, len(tokens)):
            node = node.get(tokens[end])
            if node is None:
                break
            for surface in node.get(None, ()):
                candidates.append((start, end - start + 1, surface))
    candidates.sort(key=lambda m: (-m[1], m[0]))
    taken = [False] * len(tokens)
    claimed = []
    for start, length, surface in candidates:
        if any(taken[start:start + length]):
            continue
        for i in range(start, start + length):
            taken[i] = True
        claimed.append((start, length, surface))
    claimed.sort()
    return claimed


def modify_entities(sentences: Sequence[TaggedSentence],
                    pe: PotentialEntitySet) -> list:
    """Rewrite predicted tags that disagree with the potential-entity set.

    A PE occurrence is consistent when the prediction contains exactly
    that span with one of the surface's types; anything else (wrong type,
    wrong boundary, or all O) is overwritten with B-X/I-X... of the
    surface's resolved type. Token text is never changed, so the pass is
    idempotent. Matching is case-sensitive. The surfaces go into one token
    trie, so the work per token is bounded by the longest surface, not by
    the size of the PE set.
    """
    trie = _surface_trie(pe)
    out = []
    for sent in sentences:
        spans = bio_to_spans(sent.tags)
        tags = list(sent.tags)
        for start, length, surface in _claim_matches(sent.tokens, trie):
            end = start + length - 1
            types = pe.types(surface)
            if any(s.start == start and s.end == end and s.type_ in types
                   for s in spans):
                continue
            resolved = pe.primary(surface)
            tags[start] = "B-" + resolved
            for i in range(start + 1, end + 1):
                tags[i] = "I-" + resolved
        out.append(TaggedSentence(list(sent.tokens), tags))
    return out


# Cache fields are backslash-escaped, with a comma written as \c, so an
# escaped field holds no raw tab, comma or line break and a reload splits
# the line exactly where the writer joined it.
_CACHE_ESCAPE = str.maketrans(
    {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r", ",": "\\c"})
_CACHE_UNESCAPE = {"t": "\t", "n": "\n", "r": "\r", "c": ","}
_CACHE_ESCAPED = re.compile(r"\\(.?)", re.DOTALL)


def _cache_unescape(field: str) -> str:
    return _CACHE_ESCAPED.sub(lambda m: _CACHE_UNESCAPE.get(m[1], m[1]), field)


class LookupCache:
    """On-disk TSV cache of remote lookups: surface<TAB>comma-joined types.

    Backslash, tab, line breaks and commas inside a field are written as
    backslash escapes; a file without backslashes reads as plain TSV.
    """

    def __init__(self, path):
        self.path = path
        self._d: dict = {}
        try:
            with open(path, encoding="utf-8") as f:
                for line in f:
                    line = line.rstrip("\n")
                    if not line:
                        continue
                    surface, _, joined = line.partition("\t")
                    self._d[_cache_unescape(surface)] = tuple(
                        _cache_unescape(t) for t in joined.split(",") if t)
        except FileNotFoundError:
            pass

    def get(self, surface: str):
        return self._d.get(surface)

    def put(self, surface: str, types: Sequence[str]):
        self._d[surface] = tuple(types)
        fields = [t.translate(_CACHE_ESCAPE) for t in types]
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(f"{surface.translate(_CACHE_ESCAPE)}\t{','.join(fields)}\n")

    def __len__(self):
        return len(self._d)


def _default_fetch(url: str, timeout: float) -> str:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read().decode("utf-8")


def _extract_types(payload) -> list:
    """Pull type labels out of the common lookup-response shapes."""
    if isinstance(payload, list):
        return [t for t in payload if isinstance(t, str)]
    if isinstance(payload, dict):
        if isinstance(payload.get("types"), list):
            return [t for t in payload["types"] if isinstance(t, str)]
        docs = payload.get("docs")
        if isinstance(docs, list):
            out = []
            for doc in docs:
                if not isinstance(doc, dict):
                    continue
                for key in ("type", "types", "typeName"):
                    val = doc.get(key)
                    if isinstance(val, list):
                        out.extend(t for t in val if isinstance(t, str))
            return out
    raise ValueError("unrecognized lookup response shape")


class RemoteLookup:
    """Live KG lookup with an on-disk cache and miss-on-failure behavior.

    The cache stores raw response types; mapping through the TypeMap
    happens on the way out, so a remapping never requires a refetch.
    Network or parse failures increment `warnings`, return a miss, and
    are not cached.
    """

    def __init__(self, endpoint: str, cache_path, typemap: Optional[TypeMap] = None,
                 fetch=None, timeout: float = 5.0):
        self.endpoint = endpoint
        self.cache = LookupCache(cache_path)
        self.typemap = typemap or TypeMap.default_conll()
        self._fetch = fetch or (lambda url: _default_fetch(url, timeout))
        self.warnings = 0
        self.network_calls = 0

    def _url(self, surface: str) -> str:
        q = urllib.parse.quote(surface)
        if "{q}" in self.endpoint:
            return self.endpoint.replace("{q}", q)
        sep = "&" if "?" in self.endpoint else "?"
        return f"{self.endpoint}{sep}query={q}"

    def lookup(self, surface: str) -> tuple:
        raw = self.cache.get(surface)
        if raw is None:
            try:
                self.network_calls += 1
                body = self._fetch(self._url(surface))
                raw = tuple(_extract_types(json.loads(body)))
            except Exception:
                self.warnings += 1
                return ()
            self.cache.put(surface, raw)
        mapped = []
        for t in raw:
            m = self.typemap.map(t)
            if m is not None and m not in mapped:
                mapped.append(m)
        return tuple(mapped)


class ChainedLookup:
    """Try several lookup sources in order; first hit wins."""

    def __init__(self, sources: Sequence):
        self.sources = list(sources)

    def lookup(self, surface: str) -> tuple:
        for src in self.sources:
            types = src.lookup(surface)
            if types:
                return types
        return ()
