"""Mention detection: precision on bait text, recall on explicit mentions."""

import random
from datetime import datetime, timezone

import pytest

from newsrisk.corpus import Article, EntityRecord, EntityUniverse
from newsrisk.entities import (
    MatcherConfig,
    MatcherSet,
    article_text,
    extract_occurrences,
    parse_corpus,
)
from newsrisk.errors import MatcherCollisionError
from newsrisk.fixtures import (
    FixtureSpec,
    generate_fixture,
)
from newsrisk.quarters import Quarter

from _adversarial import adversarial_negatives, adversarial_positives
from _oracles import fixture_universe, flat_matcher


@pytest.fixture(scope="module")
def default_fixture():
    return generate_fixture(FixtureSpec())


@pytest.fixture(scope="module")
def matchers(adversarial_universe):
    return MatcherSet(adversarial_universe)


def test_no_false_positives_on_bait_sentences(matchers):
    sentences = adversarial_negatives()
    assert len(sentences) >= 200
    hits = {s: sorted(matchers.match_ids(s)) for s in sentences if matchers.match_ids(s)}
    assert hits == {}


def test_full_recall_on_explicit_mentions(matchers):
    for sentence, expected in adversarial_positives():
        assert matchers.match_ids(sentence) == expected, sentence


def test_apple_pie_stays_food(matchers):
    assert matchers.match_ids("the apple pie was great") == frozenset()


def test_exchange_qualified_spacing_variants(matchers):
    for text in (
        "(NYSE:GM)", "( NYSE : GM )", "(NYSE: GM)", "(NYSE :GM)",
    ):
        assert matchers.match_ids(f"watching {text} today") == {"GENMOT"}


def test_short_tickers_require_exchange(matchers):
    assert matchers.match_ids("GM posted results") == frozenset()
    assert matchers.match_ids("T remains cheap") == frozenset()
    assert matchers.match_ids("buy (NYSE:T) instead") == {"TELAM"}


def test_bare_tickers_are_case_sensitive(matchers):
    assert matchers.match_ids("AAPL broke out") == {"APPLE"}
    assert matchers.match_ids("aapl broke out") == frozenset()
    assert matchers.match_ids("the AAPLX indicator") == frozenset()


def test_names_match_any_case_and_whitespace(matchers):
    assert matchers.match_ids("APPLE   INC. announced") == {"APPLE"}
    assert matchers.match_ids("apple inc. announced") == {"APPLE"}


def test_legal_suffix_stripping_needs_two_words(matchers):
    # "Goldstone Partners Group Inc." -> "Goldstone Partners Group",
    # "Goldstone Partners" are still recognizable; "Goldstone" alone is not.
    assert matchers.match_ids("Goldstone Partners Group reported") == {"GOLDSTONE"}
    assert matchers.match_ids("Goldstone Partners reported") == {"GOLDSTONE"}
    assert matchers.match_ids("Goldstone reported") == frozenset()


def test_repeated_mentions_deduplicate(matchers):
    text = "Apple Inc. said Apple Inc. and (NASDAQ:AAPL) will remain Apple Inc."
    assert matchers.match_ids(text) == {"APPLE"}
    offsets = [m.offset for m in matchers.iter_matches(text)]
    assert offsets == sorted(offsets)


def test_matching_is_deterministic(adversarial_universe):
    text = "Apple Inc. and (NYSE:GM) and Telamerica Inc all moved."
    results = {MatcherSet(adversarial_universe).match_ids(text) for _ in range(3)}
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


def test_short_tickers_allowed_bare_when_configured(adversarial_universe):
    relaxed = MatcherSet(
        adversarial_universe, MatcherConfig(require_exchange_for_short=False)
    )
    assert relaxed.match_ids("GM posted results") == {"GENMOT"}


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
    occ = extract_occurrences(matchers, article)
    assert occ.companies == {"TELAM"}
    assert occ.quarter == Quarter(2011, 1)


# -- the trie-factored regexes against the flat-alternation oracle -----------

ORACLE_CONFIGS = [
    MatcherConfig(),
    MatcherConfig(case_sensitive_tickers=False, require_exchange_for_short=False),
]

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


def _assert_trie_equals_flat(universe, config, texts):
    trie, flat = MatcherSet(universe, config), flat_matcher(universe, config)
    for text in texts:
        assert list(trie.iter_matches(text)) == list(flat.iter_matches(text)), text


@pytest.mark.parametrize("config", ORACLE_CONFIGS, ids=["default", "relaxed"])
def test_trie_matches_flat_oracle_on_adversarial_and_random_text(nested_universe, config):
    literals = ["Weißbier", "ſtraſſe", "Kelvin", "apple pie", "GMX", "NYSE", "(NYSE:"]
    for rec in nested_universe:
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
    ]
    _assert_trie_equals_flat(nested_universe, config, texts)


@pytest.mark.parametrize("config", ORACLE_CONFIGS, ids=["default", "relaxed"])
def test_trie_matches_flat_oracle_on_default_fixture(default_fixture, config):
    texts = [article_text(a) for a in default_fixture.articles]
    _assert_trie_equals_flat(fixture_universe(default_fixture), config, texts)


def test_trie_matches_flat_oracle_on_letters_ignorecase_equates():
    # "ı" and "i" match the same text under re.IGNORECASE but casefold apart
    records = [
        EntityRecord("DOT", "ı. Co", "DOTC", "NYSE", ("ı.",), ("DOTC",)),
        EntityRecord("IBM", "ıbm xy", "IBMX", "NYSE", ("ıbm xy",), ("IBMX",)),
        EntityRecord("IZ", "i.z", "IZED", "NYSE", ("i.z",), ("IZED",)),
    ]
    texts = ["I.Z", "ı.z", "i.", "IBM XY", "ıbm xy and İ.Z"]
    for config in ORACLE_CONFIGS:
        _assert_trie_equals_flat(EntityUniverse(records), config, texts)


def test_names_match_their_own_spelling_when_casefold_lengthens_them():
    kelvin = next(r for r in NESTED_RECORDS if r.canonical_id == "KELVIN")
    matcher = MatcherSet(EntityUniverse([kelvin]))
    for text in (
        "Straße Kelvin Group rose",
        "STRAẞE KELVIN GROUP rose",
        "Strasse Kelvin Group rose",
        "ſtraſſe kelvin group rose",
    ):
        assert matcher.match_ids(text) == {"KELVIN"}, text
    assert matcher.match_ids("Straß Kelvin Group rose") == frozenset()


def test_trie_keeps_the_longest_literal(nested_universe):
    matcher = MatcherSet(nested_universe)
    text = "Apple Inc. beat Apple Inc while (NYSE:BRK.A) and BRK.A led BRK."
    assert [(m.canonical_id, m.literal, m.offset) for m in matcher.iter_matches(text)] == [
        ("APPLE", "Apple Inc.", 0),
        ("APPLEX", "Apple Inc", 16),
        ("BERKA", "(NYSE:BRK.A)", 32),
        ("BERKA", "BRK.A", 49),
        ("BERK", "BRK", 59),
    ]
