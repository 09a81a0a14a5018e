"""Mention detection: precision on bait text, recall on explicit mentions."""

import random
import re
import string
import sys
import tracemalloc
from datetime import datetime, timezone

import pytest

from newsrisk import entities
from newsrisk.corpus import Article, EntityRecord, EntityUniverse, load_articles, load_universe
from newsrisk.entities import (
    FOLD,
    MatcherSet,
    article_text,
    extract_occurrences,
    parse_corpus,
)
from newsrisk.errors import MatcherCollisionError
from newsrisk.fixtures import (
    FixtureSpec,
    generate_fixture,
    write_fixture,
)
from newsrisk.quarters import Quarter

from _adversarial import adversarial_negatives, adversarial_positives
from _oracles import fixture_universe, flat_matcher, iter_matches, match_ids


@pytest.fixture(scope="module")
def default_fixture():
    return generate_fixture(FixtureSpec())


@pytest.fixture(scope="module")
def matchers(adversarial_universe):
    return MatcherSet(adversarial_universe)


def test_no_false_positives_on_bait_sentences(matchers):
    sentences = adversarial_negatives()
    assert len(sentences) >= 200
    hits = {s: sorted(match_ids(matchers, s)) for s in sentences if match_ids(matchers, s)}
    assert hits == {}


def test_full_recall_on_explicit_mentions(matchers):
    for sentence, expected in adversarial_positives():
        assert match_ids(matchers, sentence) == expected, sentence


def test_apple_pie_stays_food(matchers):
    assert match_ids(matchers, "the apple pie was great") == frozenset()


def test_exchange_qualified_spacing_variants(matchers):
    for text in (
        "(NYSE:GM)", "( NYSE : GM )", "(NYSE: GM)", "(NYSE :GM)",
    ):
        assert match_ids(matchers, f"watching {text} today") == {"GENMOT"}


def test_short_tickers_require_exchange(matchers):
    assert match_ids(matchers, "GM posted results") == frozenset()
    assert match_ids(matchers, "T remains cheap") == frozenset()
    assert match_ids(matchers, "buy (NYSE:T) instead") == {"TELAM"}


def test_bare_tickers_are_case_sensitive(matchers):
    assert match_ids(matchers, "AAPL broke out") == {"APPLE"}
    assert match_ids(matchers, "aapl broke out") == frozenset()
    assert match_ids(matchers, "the AAPLX indicator") == frozenset()


def test_names_match_any_case_and_whitespace(matchers):
    assert match_ids(matchers, "APPLE   INC. announced") == {"APPLE"}
    assert match_ids(matchers, "apple inc. announced") == {"APPLE"}


def test_legal_suffix_stripping_needs_two_words(matchers):
    # "Goldstone Partners Group Inc." -> "Goldstone Partners Group",
    # "Goldstone Partners" are still recognizable; "Goldstone" alone is not.
    assert match_ids(matchers, "Goldstone Partners Group reported") == {"GOLDSTONE"}
    assert match_ids(matchers, "Goldstone Partners reported") == {"GOLDSTONE"}
    assert match_ids(matchers, "Goldstone reported") == frozenset()


def test_repeated_mentions_deduplicate(matchers):
    text = "Apple Inc. said Apple Inc. and (NASDAQ:AAPL) will remain Apple Inc."
    assert match_ids(matchers, text) == {"APPLE"}
    offsets = [m.offset for m in iter_matches(matchers.compile((text,)), text)]
    assert offsets == sorted(offsets)


def test_matching_is_deterministic(adversarial_universe):
    text = "Apple Inc. and (NYSE:GM) and Telamerica Inc all moved."
    results = {match_ids(MatcherSet(adversarial_universe), text) for _ in range(3)}
    assert results == {frozenset({"APPLE", "GENMOT", "TELAM"})}


def test_name_collision_raises():
    records = [
        EntityRecord("A", "Global Mining Corp", "GMC", "NYSE", ("Global Mining Corp",), ("GMC",)),
        EntityRecord("B", "Global Mining", "GLM", "NYSE", ("Global Mining",), ("GLM",)),
    ]
    # suffix stripping reduces A's name to B's exact name
    with pytest.raises(MatcherCollisionError, match="would match both"):
        MatcherSet(EntityUniverse(records))


def test_ticker_equal_to_other_company_name_raises():
    records = [
        EntityRecord("A", "Arrow Freight Inc", "ARROW", "NYSE", ("Arrow Freight Inc", "Arrow"), ("ARW",)),
        EntityRecord("B", "Bolt Metals Inc", "Arrow", "NYSE", ("Bolt Metals Inc",), ("Arrow",)),
    ]
    with pytest.raises(MatcherCollisionError, match="as a company name"):
        MatcherSet(EntityUniverse(records))


def test_qualified_ticker_collision_raises():
    records = [
        EntityRecord("A", "One Co", "SAME", "NYSE", ("One Co",), ("SAME",)),
        EntityRecord("B", "Two Co", "SAME", "NYSE", ("Two Co",), ("SAME",)),
    ]
    # the shared ticker is rejected by the universe itself
    with pytest.raises(Exception, match="claimed by both"):
        MatcherSet(EntityUniverse(records))


def _article(i, ts, polarity, text):
    return Article(
        id=f"A{i}",
        published_at=datetime.fromisoformat(ts).replace(tzinfo=timezone.utc),
        author_id="AUTH01",
        polarity=polarity,
        title="daily note",
        body=text,
        in_window="2011" <= ts[:4] <= "2016",
    )


def test_parse_corpus_groups_and_keeps_empty_articles(matchers):
    articles = [
        _article(1, "2011-02-01T10:00:00", "positive", "Apple Inc. rallied."),
        _article(2, "2011-05-01T10:00:00", "negative", "nothing matched here"),
        _article(3, "2011-05-02T10:00:00", "negative", "(NYSE:GM) slid."),
        _article(4, "2010-05-02T10:00:00", "negative", "Apple Inc. ignored."),
    ]
    grouped = parse_corpus(articles, matchers)
    assert [q.label for q in grouped] == ["2011Q1", "2011Q2"]
    q2 = {occ.article_id: occ for occ in grouped[Quarter(2011, 2)]}
    assert q2["A2"].companies == frozenset()
    assert q2["A3"].companies == {"GENMOT"}
    assert "A4" not in {o.article_id for occs in grouped.values() for o in occs}


def test_extract_occurrences_reads_title_and_body(matchers):
    article = Article(
        id="T1",
        published_at=datetime(2011, 3, 1, tzinfo=timezone.utc),
        author_id="AUTH01",
        polarity="positive",
        title="Telamerica Inc doubles down",
        body="the rest of the note names nobody",
    )
    assert "Telamerica Inc" in article_text(article)
    occ = extract_occurrences(matchers.compile((article_text(article),)), article)
    assert occ.companies == {"TELAM"}
    assert occ.quarter == Quarter(2011, 1)


# -- the trie-factored regexes against the flat-alternation oracle -----------

#: The matcher has one policy; its oracle cases carry the id `default`.
ORACLE_POLICIES = ["default"]

#: Literals nested inside longer ones, some ending in a non-word character
#: ("Apple Inc" inside the adversarial "Apple Inc.", "BRK" inside "BRK.A"),
#: exchanges nested inside exchanges, names that start with a non-word
#: character or an underscore, and a name whose key is case-folded ("ß").
NESTED_RECORDS = [
    EntityRecord("APPLEX", "Apple Inc", "APLX", "NYSE", ("Apple Inc",), ("APLX",)),
    EntityRecord("BERK", "Berkshire Hathaway", "BRK", "NYSE", ("Berkshire Hathaway",), ("BRK", "BRK.B")),
    EntityRecord("BERKA", "Berkshire Class A Co.", "BRK.A", "NYSE", ("Berkshire Class A Co.",), ("BRK.A",)),
    EntityRecord("SPYX", "Spyx Trust", "SPYX", "NYSEARCA", ("Spyx Trust", "Spyx Trust Fund"), ("SPYX",)),
    EntityRecord("ATHOME", "@Home Networks Inc", "HOME", "NASDAQ", ("@Home Networks Inc",), ("HOME",)),
    EntityRecord("UNDER", "_Under Score Inc", "USCO", "NASDAQ", ("_Under Score Inc",), ("USCO",)),
    EntityRecord("KELVIN", "Straße Kelvin Group", "SKG", "XETRA", ("Straße Kelvin Group",), ("SKG",)),
]

SEPARATORS = (" ", "  ", "\n", "_", "-", ".", " . ", "\t")
CASINGS = (str, str.upper, str.lower, str.swapcase, str.title)
LONG_S, SHARP_S, KELVIN = "\u017f", "\u00df", "\u212a"
FOLDS = {"s": (LONG_S,), "S": (LONG_S,), "ss": (SHARP_S,), "k": (KELVIN,), "K": (KELVIN,)}


@pytest.fixture(scope="module")
def nested_universe(adversarial_universe):
    return EntityUniverse([*adversarial_universe, *NESTED_RECORDS])


def _random_text(rng, literals):
    """Whole and truncated literals in any case, with case-fold look-alikes,
    joined by separators that are and are not word characters."""
    pieces = []
    for _ in range(rng.randint(1, 8)):
        literal = rng.choice(literals)
        if rng.random() < 0.3:
            literal = literal[: rng.randint(1, len(literal))]
        literal = rng.choice(CASINGS)(literal)
        if rng.random() < 0.3:
            for plain, folded in FOLDS.items():
                literal = literal.replace(plain, rng.choice(folded), rng.randint(0, 2))
        pieces.append(literal)
        pieces.append(rng.choice(SEPARATORS))
    return "".join(pieces[:-1] if rng.random() < 0.5 else pieces)


def _assert_trie_equals_flat(universe, texts):
    trie, flat = MatcherSet(universe), flat_matcher(universe)
    for text in texts:
        assert iter_matches(trie.compile((text,)), text) == iter_matches(flat, text), text


def _oracle_texts(universe):
    """3 000 random texts over the universe's literals, the adversarial
    corpus and a few nested spellings."""
    literals = ["Weißbier", "ſtraſſe", "Kelvin", "apple pie", "GMX", "NYSE", "(NYSE:"]
    for rec in universe:
        literals += [*rec.name_variants, *rec.merged_tickers]
        literals += [f"({rec.exchange}:{t})" for t in rec.merged_tickers]
        literals += [f"( {rec.exchange} : {t} )" for t in rec.merged_tickers]
    rng = random.Random(20170619)
    texts = [_random_text(rng, literals) for _ in range(3000)]
    texts += adversarial_negatives() + [s for s, _ in adversarial_positives()]
    texts += [
        "Apple Inc. and apple inc, then APPLE INC.",
        "(NYSE:BRK.A) BRK.B BRK BRK.C BRK_A brk.a",
        "@home networks inc; @Home Networks; _under score",
        "STRASSE KELVIN, Straße Kelvin group, ſtraſſe kelvin group",
        "(NYSEARCA:SPYX) (NYSE:SPYX) Spyx Trust Fund",
        # a bare ticker at the start of the text and after a line break, and
        # after "_", a digit and "é", which are word characters
        "BRK.B led",
        "flat\nBRK.B led",
        "_BRK.B led",
        "9BRK.B led",
        "éBRK.B led, é SKG",
    ]
    return texts


@pytest.mark.parametrize("policy", ORACLE_POLICIES)
def test_trie_matches_flat_oracle_on_adversarial_and_random_text(nested_universe, policy):
    _assert_trie_equals_flat(nested_universe, _oracle_texts(nested_universe))


@pytest.mark.parametrize("policy", ORACLE_POLICIES)
def test_trie_matches_flat_oracle_on_default_fixture(default_fixture, policy):
    texts = [article_text(a) for a in default_fixture.articles]
    _assert_trie_equals_flat(fixture_universe(default_fixture), texts)


def test_trie_matches_flat_oracle_on_letters_ignorecase_equates():
    # "ı" and "i" match the same text under re.IGNORECASE but casefold apart
    records = [
        EntityRecord("DOT", "ı. Co", "DOTC", "NYSE", ("ı.",), ("DOTC",)),
        EntityRecord("IBM", "ıbm xy", "IBMX", "NYSE", ("ıbm xy",), ("IBMX",)),
        EntityRecord("IZ", "i.z", "IZED", "NYSE", ("i.z",), ("IZED",)),
    ]
    texts = ["I.Z", "ı.z", "i.", "IBM XY", "ıbm xy and İ.Z"]
    _assert_trie_equals_flat(EntityUniverse(records), texts)


def test_names_match_their_own_spelling_when_casefold_lengthens_them():
    kelvin = next(r for r in NESTED_RECORDS if r.canonical_id == "KELVIN")
    matcher = MatcherSet(EntityUniverse([kelvin]))
    for text in (
        "Straße Kelvin Group rose",
        "STRAẞE KELVIN GROUP rose",
        "Strasse Kelvin Group rose",
        "ſtraſſe kelvin group rose",
    ):
        assert match_ids(matcher, text) == {"KELVIN"}, text
    assert match_ids(matcher, "Straß Kelvin Group rose") == frozenset()


def test_trie_keeps_the_longest_literal(nested_universe):
    matcher = MatcherSet(nested_universe)
    text = "Apple Inc. beat Apple Inc while (NYSE:BRK.A) and BRK.A led BRK."
    matches = iter_matches(matcher.compile((text,)), text)
    assert [(m.canonical_id, m.literal, m.offset) for m in matches] == [
        ("APPLE", "Apple Inc.", 0),
        ("APPLEX", "Apple Inc", 16),
        ("BERKA", "(NYSE:BRK.A)", 32),
        ("BERKA", "BRK.A", 49),
        ("BERK", "BRK", 59),
    ]


# -- regexes compiled for a corpus ---------------------------------------------


def test_fold_is_what_ignorecase_equates_with_ascii_letters():
    """FOLD maps exactly the non-ASCII characters that re.IGNORECASE equates
    with an ASCII letter, to that letter; after it, `lower` maps a character
    to an ASCII one only where re.IGNORECASE equates the two."""
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    equated = {}
    for letter in string.ascii_lowercase:
        for ch in re.findall(letter, everything, re.IGNORECASE):
            if not ch.isascii():
                equated[ord(ch)] = letter
    assert equated == FOLD
    assert set(re.findall("[a-z]", everything, re.IGNORECASE)) == {
        *string.ascii_letters, *map(chr, FOLD)
    }
    # an ASCII character that is not a letter is equated with itself alone
    others = "".join(ch for ch in map(chr, range(128)) if ch not in string.ascii_letters)
    assert set(re.findall(f"[{re.escape(others)}]", everything, re.IGNORECASE)) == set(others)

    folded = everything.translate(FOLD).lower()
    assert len(folded) == len(everything)
    for ch, low in zip(everything, folded):
        if low.isascii():
            assert re.fullmatch(re.escape(low), ch, re.IGNORECASE), hex(ord(ch))


@pytest.fixture(scope="module")
def corpora(nested_universe, default_fixture):
    return {
        "random": (nested_universe, _oracle_texts(nested_universe)),
        "default_fixture": (
            fixture_universe(default_fixture),
            [article_text(a) for a in default_fixture.articles],
        ),
    }


@pytest.mark.parametrize("corpus", ["random", "default_fixture"])
def test_one_scan_of_a_whole_corpus_matches_the_flat_oracle(corpora, corpus):
    """The regexes compiled for a whole corpus find, in each of its texts,
    what the flat alternation over every literal of the universe finds, and
    `match_ids` reads the companies of `iter_matches` off the matched text."""
    universe, texts = corpora[corpus]
    scanner, flat = MatcherSet(universe).compile(texts), flat_matcher(universe)
    for text in texts:
        matches = iter_matches(scanner, text)
        assert matches == iter_matches(flat, text), text
        assert scanner.match_ids(text) == {m.canonical_id for m in matches}, text


def test_match_ids_are_the_ids_of_iter_matches(nested_universe):
    matcher = MatcherSet(nested_universe)
    for text in _oracle_texts(nested_universe):
        ids = {m.canonical_id for m in iter_matches(matcher.compile((text,)), text)}
        assert match_ids(matcher, text) == ids, text


def test_the_regexes_hold_only_literals_the_corpus_can_match(monkeypatch):
    """With 1 000 companies and one article that names two of them, the
    regexes parse_corpus compiles hold a handful of literals."""
    fixture = generate_fixture(FixtureSpec(n_companies=1000, n_quarters=1, n_articles=80))
    universe = fixture_universe(fixture)
    first, second = fixture.companies[0], fixture.companies[500]
    text = f"{first.display_name} agreed to buy {second.ticker} for cash."
    compiled: list[int] = []
    trie_regex = entities._trie_regex

    def counting(literals, flags):
        compiled.append(len(literals))
        return trie_regex(literals, flags)

    monkeypatch.setattr(entities, "_trie_regex", counting)
    article = _article(1, "2011-02-01T10:00:00", "positive", text)
    [[occ]] = parse_corpus([article], MatcherSet(universe)).values()
    assert occ.companies == {first.canonical_id, second.canonical_id}
    assert len(compiled) == 2 and 0 < sum(compiled) < 20, compiled


# -- shared values of the per-article records ------------------------------


@pytest.fixture(scope="module")
def seed1_corpus(tmp_path_factory):
    """`FixtureSpec(seed=1)` on disk: its articles path and its universe."""
    out = tmp_path_factory.mktemp("seed1")
    write_fixture(generate_fixture(FixtureSpec(seed=1)), out)
    return out / "articles.jsonl", load_universe(out / "universe.csv")


def test_equal_values_of_the_records_are_one_object(seed1_corpus):
    path, universe = seed1_corpus
    articles = load_articles(path)
    for field in ("author_id", "polarity"):
        values = [getattr(a, field) for a in articles]
        assert len({id(v) for v in values}) == len(set(values)), field
    occs = [occ for group in parse_corpus(articles, MatcherSet(universe)).values() for occ in group]
    assert len(occs) == 2000
    assert len({id(occ.quarter) for occ in occs}) == len({occ.quarter for occ in occs}) == 8
    assert len({id(occ.companies) for occ in occs}) == len({occ.companies for occ in occs}) == 496


def test_articles_and_their_mention_sets_hold_little_per_article(seed1_corpus):
    """Bytes the loaded articles and their occurrence records hold, as
    tracemalloc counts them: 497 and 138 per article, against 656 and 462
    when each record had an instance dict, and its own `Quarter`, mention
    set, author id and polarity."""
    path, universe = seed1_corpus
    matchers = MatcherSet(universe)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        articles = load_articles(path)
        loaded = tracemalloc.get_traced_memory()[0]
        occurrences = parse_corpus(articles, matchers)
        re.purge()  # the compiled regexes are the scanner's, not the records'
        parsed = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(map(len, occurrences.values())) == len(articles) == 2000
    assert (loaded - before) / len(articles) <= 560
    assert (parsed - loaded) / len(articles) <= 160
