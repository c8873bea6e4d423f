"""Knowledge-graph snapshot index, phrase retrieval, entity modification."""
import json
import random
import urllib.parse
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from contrastner import kg, synth
from contrastner.corpus import (
    DataError, Span, TaggedSentence, bio_to_spans, spans_to_bio, validate_tags)

TYPES = ("PER", "LOC", "ORG", "MISC")


def snapshot(tmp_path, lines, name="kg.tsv"):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def test_typemap_default_and_iri_tail():
    tm = kg.TypeMap.default_conll()
    assert tm.map("Person") == "PER"
    assert tm.map("Organisation") == "ORG"
    assert tm.map("http://dbpedia.org/ontology/Place") == "LOC"
    assert tm.map("http://example.org/x#Person") == "PER"
    assert tm.map("Holiday") is None


def test_typemap_load(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("Person\tPER\nCompany\tORG\n")
    tm = kg.TypeMap.load(path)
    assert tm.map("Company") == "ORG"
    bad = tmp_path / "bad.tsv"
    bad.write_text("Person\n")
    with pytest.raises(DataError) as exc:
        kg.TypeMap.load(bad)
    assert exc.value.line == 1


def test_load_snapshot_empty(tmp_path):
    index = kg.load_snapshot(snapshot(tmp_path, []))
    assert len(index) == 0
    assert index.lookup("anything") == ()


def test_load_snapshot_worked_example(tmp_path):
    index = kg.load_snapshot(
        snapshot(tmp_path, ["The European Commission\tOrganisation"]))
    assert index.lookup("The European Commission") == ("ORG",)


def test_load_snapshot_duplicate_surface_two_types(tmp_path):
    index = kg.load_snapshot(snapshot(tmp_path, [
        "Jordan\tPerson", "Jordan\tPlace"]))
    assert index.lookup("Jordan") == ("PER", "LOC")


def test_load_snapshot_drop_and_skip_counts(tmp_path):
    path = snapshot(tmp_path, [
        "Paris\tPlace",
        "Tuesday\tDay",          # unmapped type, dropped
        "not a real line",       # malformed, skipped
    ])
    index = kg.load_snapshot(path)
    assert index.lookup("Paris") == ("LOC",)
    assert index.dropped == 1
    assert index.skipped_lines == 1


def test_load_snapshot_normalizes_whitespace(tmp_path):
    index = kg.load_snapshot(
        snapshot(tmp_path, ["The  European   Commission\tOrganisation"]))
    assert index.lookup("The European Commission") == ("ORG",)


def test_index_build_is_stable(tmp_path):
    lines = ["Paris\tPlace", "Jordan\tPerson", "Jordan\tPlace",
             "ACME\tOrganisation"]
    path = snapshot(tmp_path, lines)
    a = kg.load_snapshot(path)
    b = kg.load_snapshot(path)
    for key in ("Paris", "Jordan", "ACME", "missing"):
        assert a.lookup(key) == b.lookup(key)


def test_snapshot_index_is_a_potential_entity_set(tmp_path):
    index = kg.load_snapshot(snapshot(tmp_path, [
        "Jordan\tPerson", "Jordan\tPlace", "Paris\tPlace", "Tuesday\tDay"]))
    assert isinstance(index, kg.PotentialEntitySet)
    for key in ("Jordan", "Paris", "Tuesday", "missing"):
        assert index.lookup(key) == index.types(key)
    assert list(index.items()) == [("Jordan", ("PER", "LOC")), ("Paris", ("LOC",))]
    assert index.dropped == 1 and kg.KgIndex().dropped == 0   # counted per index


@pytest.mark.parametrize("table", [kg.KgIndex, kg.PotentialEntitySet])
def test_add_rejects_a_bare_type_string(table):
    entities = table()
    with pytest.raises(TypeError, match="not a str"):
        entities.add("Acme", "ORG")   # would add the types O, R and G
    assert len(entities) == 0


def test_is_acronym():
    assert kg.is_acronym("TEC")
    assert kg.is_acronym("AB")
    assert not kg.is_acronym("T")
    assert not kg.is_acronym("Tec")
    assert not kg.is_acronym("T3C")
    assert not kg.is_acronym("")


def test_expand_acronym_worked_example():
    corpus = [["The", "European", "Commission", "said", "so"]]
    assert kg.expand_acronym("TEC", corpus) == ["The European Commission"]


def test_expand_acronym_case_insensitive_initials():
    assert kg.expand_acronym("AB", [["apple", "banana"]]) == ["apple banana"]


def test_expand_acronym_overlapping_windows():
    corpus = [["a1", "a2", "a3", "b"], ["A4", "a5"]]
    assert kg.expand_acronym("AA", corpus) == ["a1 a2", "a2 a3", "A4 a5"]


def test_expand_acronym_empty_corpus_and_duplicates():
    assert kg.expand_acronym("TEC", []) == []
    corpus = [["the", "end", "came"], ["the", "end", "came"],
              ["to", "every", "child"]]
    assert kg.expand_acronym("TEC", corpus) == ["the end came",
                                                "to every child"]


def test_enumerate_subphrases_worked_example():
    got = kg.enumerate_subphrases("The European Commission")
    assert got == ["The", "European", "Commission",
                   "The European", "European Commission",
                   "The European Commission"]
    assert len(got) == 6


def test_enumerate_subphrases_counts():
    assert kg.enumerate_subphrases("only") == ["only"]
    assert len(kg.enumerate_subphrases(["a", "b", "c", "d"])) == 10
    for n in range(1, 13):
        tokens = [f"t{i}" for i in range(n)]
        assert len(kg.enumerate_subphrases(tokens)) == n * (n + 1) // 2


def test_build_pe_worked_example(tmp_path):
    index = kg.load_snapshot(
        snapshot(tmp_path, ["The European Commission\tOrganisation"]))
    corpus = [
        ["TEC", "issued", "a", "statement"],
        ["The", "European", "Commission", "meets", "today"],
    ]
    pe = kg.build_pe(corpus, index)
    assert pe.types("The European Commission") == ("ORG",)
    # the acronym resolves through its full expansion
    assert pe.types("TEC") == ("ORG",)


def test_build_pe_snapshot_lists_acronym(tmp_path):
    index = kg.load_snapshot(snapshot(tmp_path, [
        "The European Commission\tOrganisation",
        "TEC\tOrganisation",
    ]))
    corpus = [["TEC", "and", "The", "European", "Commission"]]
    pe = kg.build_pe(corpus, index)
    assert pe.types("TEC") == ("ORG",)
    assert pe.types("The European Commission") == ("ORG",)


def test_build_pe_empty_snapshot(tmp_path):
    index = kg.load_snapshot(snapshot(tmp_path, []))
    pe = kg.build_pe([["TEC", "The", "European", "Commission"]], index)
    assert len(pe) == 0


def test_build_pe_drop_policy_excludes(tmp_path):
    index = kg.load_snapshot(snapshot(tmp_path, ["Tuesday\tDay"]))
    pe = kg.build_pe([["Tuesday", "TD"]], index)
    assert "Tuesday" not in pe
    assert len(pe) == 0


def test_build_pe_capitalized_window_lookup(tmp_path):
    # no acronym anywhere: plain capitalized phrases still resolve
    index = kg.load_snapshot(
        snapshot(tmp_path, ["New York\tPlace", "Paris\tPlace"]))
    pe = kg.build_pe([["He", "left", "New", "York", "for", "Paris"]], index)
    assert pe.types("New York") == ("LOC",)
    assert pe.types("Paris") == ("LOC",)


def test_build_pe_window_respects_l_max(tmp_path):
    index = kg.load_snapshot(snapshot(tmp_path, ["A B C\tOrganisation"]))
    assert "A B C" not in kg.build_pe([["A", "B", "C"]], index, l_max=2)
    # acronym pass is unaffected by l_max; pure windows need l_max >= 3
    assert "A B C" in kg.build_pe([["A", "B", "C"]], index, l_max=3)
    with pytest.raises(ValueError):
        kg.build_pe([["A"]], index, l_max=0)


def test_modify_entities_retags_missed_acronym():
    pe = kg.PotentialEntitySet()
    pe.add("TEC", ["ORG"])
    pred = [TaggedSentence(["TEC", "said", "so"], ["O", "O", "O"])]
    out = kg.modify_entities(pred, pe)
    assert out[0].tags == ["B-ORG", "O", "O"]
    # input untouched
    assert pred[0].tags == ["O", "O", "O"]


def test_modify_entities_consistent_span_unchanged():
    pe = kg.PotentialEntitySet()
    pe.add("The European Commission", ["ORG"])
    tags = ["B-ORG", "I-ORG", "I-ORG", "O"]
    pred = [TaggedSentence(["The", "European", "Commission", "met"], tags)]
    out = kg.modify_entities(pred, pe)
    assert out[0].tags == tags


def test_modify_entities_empty_pe_identity():
    pred = [TaggedSentence(["a", "b"], ["B-PER", "O"])]
    out = kg.modify_entities(pred, kg.PotentialEntitySet())
    assert out[0].tags == pred[0].tags
    assert out[0].tokens == pred[0].tokens


@pytest.mark.parametrize("surfaces", [[], ["Zeta", "Omega Point"]])
def test_modify_entities_checks_tags_of_sentences_with_nothing_to_claim(surfaces):
    pe = kg.PotentialEntitySet()
    for surface in surfaces:
        pe.add(surface, ["ORG"])
    # the malformed tags sit in sentences that no PE surface starts in
    pred = [TaggedSentence(["a", "b"], ["B-PER", "O"]),
            TaggedSentence(["c", "d"], ["O", "B-"]),
            TaggedSentence(["e"], ["XYZ"])]
    with pytest.raises(ValueError) as got:
        kg.modify_entities(pred, pe)
    with pytest.raises(ValueError) as want:
        helpers.ref_modify_entities(pred, pe)
    assert str(got.value) == str(want.value) == "malformed tag 'B-'"


def test_modify_entities_wrong_type_rewritten():
    pe = kg.PotentialEntitySet()
    pe.add("Paris", ["LOC"])
    pred = [TaggedSentence(["Paris", "fell"], ["B-PER", "O"])]
    out = kg.modify_entities(pred, pe)
    assert out[0].tags == ["B-LOC", "O"]


def test_modify_entities_wrong_boundary_rewritten():
    pe = kg.PotentialEntitySet()
    pe.add("New York", ["LOC"])
    pred = [TaggedSentence(["New", "York", "wins"], ["B-LOC", "O", "O"])]
    out = kg.modify_entities(pred, pe)
    assert out[0].tags == ["B-LOC", "I-LOC", "O"]


def test_modify_entities_multi_type_consistency():
    # prediction matching any KG type for the surface counts as consistent
    pe = kg.PotentialEntitySet()
    pe.add("Jordan", ["PER", "LOC"])
    pred = [TaggedSentence(["Jordan", "river"], ["B-LOC", "O"])]
    out = kg.modify_entities(pred, pe)
    assert out[0].tags == ["B-LOC", "O"]
    # but a type outside the PE list is corrected to the primary type
    pred = [TaggedSentence(["Jordan", "river"], ["B-ORG", "O"])]
    out = kg.modify_entities(pred, pe)
    assert out[0].tags == ["B-PER", "O"]


def test_modify_entities_longest_match_first():
    pe = kg.PotentialEntitySet()
    pe.add("European Commission", ["ORG"])
    pe.add("The European Commission", ["ORG"])
    pred = [TaggedSentence(["The", "European", "Commission"],
                           ["O", "O", "O"])]
    out = kg.modify_entities(pred, pe)
    assert out[0].tags == ["B-ORG", "I-ORG", "I-ORG"]


def test_modify_entities_case_sensitive():
    pe = kg.PotentialEntitySet()
    pe.add("Paris", ["LOC"])
    pred = [TaggedSentence(["paris", "Paris"], ["O", "O"])]
    out = kg.modify_entities(pred, pe)
    assert out[0].tags == ["O", "B-LOC"]


def test_modify_entities_idempotent_and_bio_valid_property():
    rng = random.Random(0)
    surfaces = ["Alpha", "Beta Gamma", "Delta", "Epsilon Zeta Eta", "TEC"]
    vocabulary = ["Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta",
                  "Eta", "TEC", "the", "ran", "fast"]
    for case in range(500):
        pe = kg.PotentialEntitySet()
        for s in rng.sample(surfaces, rng.randrange(len(surfaces) + 1)):
            pe.add(s, [rng.choice(TYPES)])
        length = rng.randrange(1, 10)
        tokens = [rng.choice(vocabulary) for _ in range(length)]
        spans = set()
        i = 0
        while i < length:
            if rng.random() < 0.35:
                end = min(length - 1, i + rng.randrange(2))
                spans.add(Span(i, end, rng.choice(TYPES)))
                i = end + 2
            else:
                i += 1
        sent = TaggedSentence(tokens, spans_to_bio(spans, length))
        once = kg.modify_entities([sent], pe)
        twice = kg.modify_entities(once, pe)
        assert once[0].tokens == sent.tokens, f"case {case}"
        assert len(once[0].tags) == length
        validate_tags(once[0].tags, TYPES)
        bio_to_spans(once[0].tags)  # parses cleanly
        assert twice[0].tags == once[0].tags, f"case {case} not idempotent"


def test_lookup_cache_round_trip(tmp_path):
    path = tmp_path / "cache.tsv"
    cache = kg.LookupCache(path)
    assert len(cache) == 0
    cache.put("Paris", ["Place", "PopulatedPlace"])
    cache.put("Nowhere", [])
    reloaded = kg.LookupCache(path)
    assert reloaded.get("Paris") == ("Place", "PopulatedPlace")
    assert reloaded.get("Nowhere") == ()
    assert reloaded.get("unseen") is None


# token alphabet for the differential tests: acronyms (KA twice, once with
# the Kelvin sign, which lowers to "k"), words whose initials spell them,
# capitals whose lower form is longer ('İ') or another letter ('ẞ'), a
# token starting with the combining dot that 'İ'.lower() ends in, a token
# holding a space, and lower-case fillers
TOKENS = ["TEC", "AB", "KA", "\u212aA", "İA", "ẞE", "The", "the", "European",
          "Commission", "end", "came", "Apple", "banana", "Kind", "Alpha",
          "İzmir", "is", "\u0307ab", "ẞaal", "ßig", "Le Monde", "ran"]
TAGS = ["O", "B-PER", "I-PER", "B-ORG", "I-ORG", "B-LOC", "I-LOC"]

# half the draws come from a few tokens that spell acronyms of both
# lengths, so expansions are common
token_st = st.sampled_from(TOKENS) | st.sampled_from(
    ["TEC", "AB", "the", "end", "came", "banana"])
# surfaces over three tokens, so matches repeat, nest and overlap; padded
# or doubled spaces give distinct surfaces with the same tokens, and blank
# ones match nothing
abc_st = st.sampled_from(["A", "B", "C"])
surface_st = st.builds(
    lambda toks, sep, pad: pad + sep.join(toks) + pad,
    st.lists(abc_st, max_size=4),
    st.sampled_from([" ", "  "]), st.sampled_from(["", " "]))


class RecordingLookup:
    def __init__(self, index):
        self.index = index
        self.calls = []

    def lookup(self, surface):
        self.calls.append(surface)
        return self.index.lookup(surface)


@settings(max_examples=300, deadline=None)
@given(sentences=st.lists(st.lists(st.tuples(token_st, st.sampled_from(TAGS)),
                                   min_size=1, max_size=10), max_size=6),
       entries=st.lists(st.tuples(st.lists(token_st, min_size=1,
                                           max_size=4).map(" ".join),
                                  st.sampled_from(TYPES)), max_size=12),
       l_max=st.integers(1, 4))
def test_build_pe_and_modify_entities_match_reference(sentences, entries, l_max):
    index = kg.KgIndex()
    for surface, type_ in entries:
        index.add(surface, [type_])
    pred = [TaggedSentence([t for t, _ in s], [g for _, g in s]) for s in sentences]
    fast, ref = RecordingLookup(index), RecordingLookup(index)
    pe = kg.build_pe(pred, fast, l_max)
    ref_pe = helpers.ref_build_pe(pred, ref, l_max)
    assert list(pe.items()) == list(ref_pe.items())
    assert fast.calls == ref.calls
    got = kg.modify_entities(pred, pe)
    want = helpers.ref_modify_entities(pred, ref_pe)
    assert [(s.tokens, s.tags) for s in got] == [(s.tokens, s.tags) for s in want]


def flaky_fetch(answers):
    """A fetch that fails on the first request for each surface and answers
    from `answers` after; it records every URL it is asked for."""
    urls = []

    def fetch(url):
        urls.append(url)
        if urls.count(url) == 1:
            raise OSError("transient")
        surface = urllib.parse.unquote(url.removeprefix("http://kg.test/"))
        return json.dumps(answers.get(surface, []))
    return fetch, urls


def test_build_pe_retries_failed_remote_lookups_like_reference(tmp_path):
    answers = {"New York": ["Place"], "York": ["Person"]}
    pred = [["Deals", "in", "New", "York", "grew"],
            ["the", "New", "York", "office"],
            ["from", "New", "York", "."]]
    remotes = []
    for name, harvest in (("fast", kg.build_pe), ("ref", helpers.ref_build_pe)):
        fetch, urls = flaky_fetch(answers)
        remote = kg.RemoteLookup("http://kg.test/{q}", tmp_path / f"{name}.tsv",
                                 fetch=fetch)
        remotes.append((list(harvest(pred, remote).items()), remote.warnings,
                        remote.network_calls, urls))
    assert remotes[0] == remotes[1]
    items, warnings, network_calls, urls = remotes[0]
    # the first request for each of the four surfaces fails; the next
    # occurrence of a recurring one fetches and caches it, so the third
    # is answered from the cache
    assert dict(items) == {"New York": ("LOC",), "York": ("PER",)}
    assert warnings == 4
    assert network_calls == len(urls) == 7


def test_build_pe_and_modify_entities_match_reference_on_fixture_corpus():
    train, _ = synth.ner_fixture(seed=5, n_train=300, n_test=0)
    names = [["Kanor", "Belix", "Tuvam"], ["Orvel", "Anis"],
             ["Quill", "Ember", "Rothwell", "Systems"]]
    index = kg.KgIndex()
    # gold spans of some fixture sentences, some of them under another type,
    # so that the pass both keeps and rewrites predicted spans
    for i, sent in enumerate(train[::9]):
        for span in sorted(bio_to_spans(sent.tags)):
            surface = " ".join(sent.tokens[span.start:span.end + 1])
            index.add(surface, [span.type_ if i % 2 else TYPES[len(surface) % 4]])
    # predictions lose every entity in a few sentences
    pred = [TaggedSentence(s.tokens, ["O"] * len(s)) if i % 13 == 0 else s
            for i, s in enumerate(train)]
    for k, name in enumerate(names):
        index.add(" ".join(name), ["ORG"])
        acronym = "".join(w[0] for w in name)
        pred.insert(90 * k + 40, TaggedSentence(
            [acronym, "approved", "the", "budget", "."], ["O"] * 5))
        pred.insert(90 * k, TaggedSentence(
            ["the"] + name + ["announced", "a", "plan", "."],
            ["O", "B-ORG"] + ["I-ORG"] * (len(name) - 1) + ["O"] * 4))
    fast, ref = RecordingLookup(index), RecordingLookup(index)
    pe = kg.build_pe(pred, fast)
    ref_pe = helpers.ref_build_pe(pred, ref)
    assert list(pe.items()) == list(ref_pe.items())
    assert fast.calls == ref.calls
    assert all(acronym in pe for acronym in ("KBT", "OA", "QERS"))
    got = kg.modify_entities(pred, pe)
    want = helpers.ref_modify_entities(pred, ref_pe)
    assert [(s.tokens, s.tags) for s in got] == [(s.tokens, s.tags) for s in want]
    assert sum(g.tags != p.tags for g, p in zip(got, pred)) > 10


@settings(max_examples=300, deadline=None)
@given(corpus=st.lists(st.lists(st.sampled_from(TOKENS), max_size=10), max_size=6))
def test_expand_acronym_matches_reference(corpus):
    for word in TOKENS + ["", "IA", "TE", "ẞEA", "İAB", "KAT"]:
        assert kg.expand_acronym(word, corpus) == helpers.ref_expand_acronym(word, corpus)


def test_expansions_of_many_keys_match_reference():
    # every key of two and three letters over the fixture's initials, so
    # windows overlap and keys share prefixes, plus an empty key and keys
    # whose lower-cased form is longer than the word
    rng = random.Random(0)
    corpus = [[rng.choice(TOKENS) for _ in range(rng.randrange(12))] for _ in range(80)]
    words = TOKENS + ["", "IA", "TE", "ẞEA", "İAB", "KAT", "AAAA"] + [
        "".join(p) for n in (2, 3) for p in product("TEKACB", repeat=n)]
    got = kg._expansions(words, *kg._flat(corpus))
    assert got == {w: helpers.ref_expand_acronym(w, corpus) for w in words}
    assert sum(map(len, got.values())) > 50
    assert kg._expansions(["", "AB"], *kg._flat([])) == {"": [], "AB": []}


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(abc_st, max_size=10), surfaces=st.lists(surface_st, max_size=8))
def test_claim_matches_match_reference(tokens, surfaces):
    pe = kg.PotentialEntitySet()
    for surface in surfaces:
        pe.add(surface, ["ORG"])
    got = kg._claim_matches(tokens, kg._surface_trie(pe))
    assert got == helpers.ref_claim_matches(tokens, pe)


# half the characters are separators, line breaks or backslashes
hostile_st = st.sampled_from(",\t\n\r\\") | st.characters(codec="utf-8")


@settings(max_examples=200, deadline=None)
@given(entries=st.dictionaries(
    st.text(hostile_st, max_size=6),
    st.lists(st.text(hostile_st, min_size=1, max_size=5), max_size=3),
    max_size=8))
def test_lookup_cache_round_trips_hostile_text(tmp_path_factory, entries):
    path = tmp_path_factory.mktemp("cache") / "cache.tsv"
    cache = kg.LookupCache(path)
    for surface, types in entries.items():
        cache.put(surface, types)
    reloaded = kg.LookupCache(path)
    assert len(reloaded) == len(entries)
    for surface, types in entries.items():
        assert reloaded.get(surface) == tuple(types)


def test_lookup_cache_file_format(tmp_path):
    path = tmp_path / "cache.tsv"
    # lines without backslashes read as they did before escaping
    path.write_text("Paris\tPlace,,PopulatedPlace\nA, B\t\nNo tab\n"
                    "x\ty\tz\n", encoding="utf-8")
    cache = kg.LookupCache(path)
    assert cache.get("Paris") == ("Place", "PopulatedPlace")
    assert cache.get("A, B") == ()
    assert cache.get("No tab") == ()
    assert cache.get("x") == ("y\tz",)
    cache.put("A,B\tC\\", ["x,y", "z\n"])
    assert path.read_text(encoding="utf-8").endswith("A\\cB\\tC\\\\\tx\\cy,z\\n\n")
    assert kg.LookupCache(path).get("A,B\tC\\") == ("x,y", "z\n")


def test_remote_lookup_happy_path(tmp_path):
    calls = []

    def fetch(url):
        calls.append(url)
        return json.dumps({"docs": [{"type": ["Place", "Holiday"]}]})

    remote = kg.RemoteLookup("http://kg.test/lookup", tmp_path / "c.tsv",
                             fetch=fetch)
    assert remote.lookup("Paris") == ("LOC",)
    assert remote.network_calls == 1
    assert "query=Paris" in calls[0]
    # second query: cache hit, no new network call
    assert remote.lookup("Paris") == ("LOC",)
    assert remote.network_calls == 1
    assert remote.warnings == 0


def test_remote_lookup_survives_restart(tmp_path):
    def fetch(url):
        return json.dumps(["Person"])

    cache_path = tmp_path / "c.tsv"
    first = kg.RemoteLookup("http://kg.test/{q}", cache_path, fetch=fetch)
    assert first.lookup("Ada") == ("PER",)

    def explode(url):
        raise OSError("network down")

    second = kg.RemoteLookup("http://kg.test/{q}", cache_path, fetch=explode)
    assert second.lookup("Ada") == ("PER",)
    assert second.network_calls == 0
    assert second.warnings == 0


def test_remote_lookup_failure_degrades_to_miss(tmp_path):
    def explode(url):
        raise OSError("unreachable")

    remote = kg.RemoteLookup("http://kg.test/lookup", tmp_path / "c.tsv",
                             fetch=explode)
    assert remote.lookup("Paris") == ()
    assert remote.warnings == 1
    # failures are not cached: a later working fetch succeeds
    remote._fetch = lambda url: json.dumps(["Place"])
    assert remote.lookup("Paris") == ("LOC",)
    assert remote.warnings == 1


def test_remote_lookup_bad_payload_counts_warning(tmp_path):
    remote = kg.RemoteLookup("http://kg.test/lookup", tmp_path / "c.tsv",
                             fetch=lambda url: "not json")
    assert remote.lookup("Paris") == ()
    assert remote.warnings == 1
    remote2 = kg.RemoteLookup("http://kg.test/lookup", tmp_path / "c2.tsv",
                              fetch=lambda url: json.dumps({"shape": 1}))
    assert remote2.lookup("Paris") == ()
    assert remote2.warnings == 1


def test_remote_lookup_url_substitution(tmp_path):
    seen = []

    def fetch(url):
        seen.append(url)
        return json.dumps([])

    remote = kg.RemoteLookup("http://kg.test/api/{q}/types",
                             tmp_path / "c.tsv", fetch=fetch)
    remote.lookup("New York")
    assert seen == ["http://kg.test/api/New%20York/types"]


def test_chained_lookup_first_hit_wins(tmp_path):
    index = kg.load_snapshot(snapshot(tmp_path, ["Paris\tPlace"]))

    def fetch(url):
        return json.dumps(["Organisation"])

    remote = kg.RemoteLookup("http://kg.test/lookup", tmp_path / "c.tsv",
                             fetch=fetch)
    chain = kg.ChainedLookup([index, remote])
    assert chain.lookup("Paris") == ("LOC",)
    assert remote.network_calls == 0
    assert chain.lookup("ACME") == ("ORG",)
    assert remote.network_calls == 1
    empty_chain = kg.ChainedLookup([])
    assert empty_chain.lookup("Paris") == ()
