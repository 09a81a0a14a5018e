"""Company mention detection in article text.

The matcher is precision-biased: it only fires on literals that are
unambiguous by construction —

* exchange-qualified tickers like ``(NYSE:KO)`` for any ticker,
* bare tickers, case-sensitively, when the symbol is long enough that a
  case-sensitive hit is unlikely to be an ordinary word,
* full company names (and their explicitly listed variants),
  case-insensitively, plus variants derived by stripping legal suffixes —
  but a derived variant is only used when enough words remain for it to
  still read as a company name ("International Business Machines Corp."
  yields "International Business Machines"; "Apple Inc." yields nothing,
  so a sentence about apple pie matches no company).

All matching literals of a category are compiled into one regex, an
alternation factored into a character trie: literals that share a prefix
share one branch, so the regex follows the text down one path of the trie
rather than trying every literal at every position, and its cost stays flat
as the universe grows. Each node tries its longer continuations before
ending, so the longest literal still wins at any text position. The guards
that keep a literal from matching inside a larger word sit on the trie: one
``(?<!\\w)`` on the branch that holds every literal starting with a word
character, and ``(?!\\w)`` on each end of a literal that ends with one.
A literal that would resolve to two different companies is a configuration
error and raises MatcherCollisionError at compile time.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .corpus import Article, EntityUniverse
from .errors import MatcherCollisionError
from .quarters import Quarter, quarter_of

log = logging.getLogger(__name__)

#: Trailing words that stripped name variants drop, compared case-folded.
LEGAL_SUFFIXES = (
    "Inc",
    "Inc.",
    "Corp",
    "Corp.",
    "Co",
    "Co.",
    "Group",
    "Ltd",
    "PLC",
    "Company",
)
#: Tickers at most this long never match bare: they need the exchange-qualified form.
SHORT_TICKER_MAX_LEN = 2
#: A suffix-stripped name variant is kept only if at least this many words remain.
MIN_STRIPPED_WORDS = 2
_SUFFIX_KEYS = frozenset(s.casefold() for s in LEGAL_SUFFIXES)


@dataclass(frozen=True)
class Match:
    canonical_id: str
    literal: str
    offset: int


@dataclass(frozen=True)
class OccurrenceSet:
    """The set of companies one article mentions."""

    article_id: str
    quarter: Quarter
    polarity: str
    companies: frozenset[str]


def _normalize_name(text: str) -> str:
    return " ".join(text.split()).casefold()


def _is_word(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _trie_regex(
    literals: list[tuple[str, str, list[str]]], flags: int
) -> re.Pattern[str] | None:
    """One alternation over every literal, factored into a character trie.

    Each literal is (key, text, tokens): `tokens` are the regex pieces that
    spell `text`, and `key` ranks literals as a flat alternation sorted by
    (-len(key), key) would. Each node tries its children best rank first and
    its own end last, so the longest literal still wins at a text position.
    The root has two branches: one for literals whose text starts with a word
    character, behind the head guard, and one for the rest. An end whose text
    ends with a word character carries the tail guard.
    """
    # re.IGNORECASE equates "ı" and "i", which casefold keeps apart; one node
    # for both keeps the literals that can match a text on one path.
    fold = str.maketrans("ı", "i") if flags & re.IGNORECASE else {}
    root: dict = {}
    for key, text, tokens in literals:
        node = root
        head = r"(?<!\w)" if _is_word(text[0]) else ""
        for token in [head, *tokens]:
            node = node.setdefault(token.translate(fold), {})
        node[None] = ((-len(key), key), r"(?!\w)" if _is_word(text[-1]) else "")

    def emit(node: dict) -> tuple[tuple[int, str], str]:
        branches = []
        for token, child in node.items():
            if token is not None:
                rank, body = emit(child)
                branches.append((rank, token + body))
        branches.sort()
        if None in node:
            branches.append(node[None])
        best = min(rank for rank, _ in branches)
        if len(branches) == 1:
            return branches[0]
        return best, "(?:" + "|".join(body for _, body in branches) + ")"

    if not root:
        return None
    return re.compile(emit(root)[1], flags)


def _stripped_variants(words: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
    """Progressively drop trailing legal suffixes, keeping viable remainders."""
    current = list(words)
    while len(current) > 1 and current[-1].casefold() in _SUFFIX_KEYS:
        current = current[:-1]
        if len(current) >= MIN_STRIPPED_WORDS:
            yield tuple(current)


class MatcherSet:
    """Compiled mention matchers for one entity universe."""

    def __init__(self, universe: EntityUniverse):
        #: name literal -> canonical_id: each name's case-folded key, which
        #: matched text resolves through, and its lower-cased spelling when
        #: that differs from the key
        self.name_map: dict[str, str] = {}
        #: bare ticker literal (as matched) -> canonical_id
        self.bare_map: dict[str, str] = {}
        #: "EXCHANGE:TICKER" -> canonical_id
        self.exch_map: dict[str, str] = {}
        self._name_re: re.Pattern[str] | None = None
        self._ticker_re: re.Pattern[str] | None = None
        self._build(universe)

    # -- construction --------------------------------------------------

    def _claim(self, table: dict[str, str], key: str, cid: str, what: str) -> None:
        owner = table.get(key)
        if owner is not None and owner != cid:
            raise MatcherCollisionError(
                f"{what} {key!r} would match both {owner!r} and {cid!r}"
            )
        table[key] = cid

    def _build(self, universe: EntityUniverse) -> None:
        # Names first, then tickers, so the single cross-namespace check
        # below sees every (name, ticker) pair.
        for rec in universe:
            seen_keys: set[str] = set()
            for variant in rec.name_variants:
                words = tuple(variant.split())
                if not words:
                    continue
                for candidate in (words, *_stripped_variants(words)):
                    key = _normalize_name(" ".join(candidate))
                    if key in seen_keys:
                        continue
                    seen_keys.add(key)
                    self._claim(self.name_map, key, rec.canonical_id, "name")
                    # re.IGNORECASE folds one character into one, so "ß" never
                    # matches the "ss" of its key: the spelling is a literal too.
                    spelling = " ".join(candidate).lower()
                    if spelling != key:
                        self._claim(self.name_map, spelling, rec.canonical_id, "name")

        for rec in universe:
            for ticker in rec.merged_tickers:
                ticker = ticker.strip()
                if not ticker:
                    continue
                if rec.exchange:
                    self._claim(
                        self.exch_map,
                        f"{rec.exchange}:{ticker}",
                        rec.canonical_id,
                        "qualified ticker",
                    )
                if len(ticker) > SHORT_TICKER_MAX_LEN:
                    self._claim(self.bare_map, ticker, rec.canonical_id, "ticker")
                    name_owner = self.name_map.get(ticker.casefold())
                    if name_owner is not None and name_owner != rec.canonical_id:
                        raise MatcherCollisionError(
                            f"ticker {ticker!r} would match both {name_owner!r} "
                            f"and {rec.canonical_id!r} (as a company name)"
                        )

        self._name_re = self._compile_names()
        self._ticker_re = self._compile_tickers()

    def _compile_names(self) -> re.Pattern[str] | None:
        literals = []
        for key in self.name_map:
            tokens = [re.escape(ch) if ch != " " else r"\s+" for ch in key]
            literals.append((key, key, tokens))
        return _trie_regex(literals, re.IGNORECASE)

    def _compile_tickers(self) -> re.Pattern[str] | None:
        literals = []
        for key in self.exch_map:
            exch, _, tick = key.partition(":")
            tokens = [r"\(\s*", *map(re.escape, exch), r"\s*:\s*", *map(re.escape, tick), r"\s*\)"]
            literals.append((key, f"({key})", tokens))
        for key in self.bare_map:
            literals.append((key, key, [re.escape(ch) for ch in key]))
        return _trie_regex(literals, 0)

    # -- matching ------------------------------------------------------

    def _resolve_ticker(self, text: str) -> str | None:
        if text.startswith("("):
            inner = text.strip("()")
            exch, _, tick = inner.partition(":")
            return self.exch_map.get(f"{exch.strip()}:{tick.strip()}")
        return self.bare_map.get(text)

    def iter_matches(self, text: str) -> Iterator[Match]:
        """Every mention in `text`, in order of position."""
        found: list[Match] = []
        if self._ticker_re is not None:
            for m in self._ticker_re.finditer(text):
                cid = self._resolve_ticker(m.group(0))
                if cid is not None:
                    found.append(Match(cid, m.group(0), m.start()))
        if self._name_re is not None:
            for m in self._name_re.finditer(text):
                cid = self.name_map.get(_normalize_name(m.group(0)))
                if cid is not None:
                    found.append(Match(cid, m.group(0), m.start()))
        found.sort(key=lambda mt: (mt.offset, mt.canonical_id))
        return iter(found)

    def match_ids(self, text: str) -> frozenset[str]:
        return frozenset(m.canonical_id for m in self.iter_matches(text))


def article_text(article: Article) -> str:
    return article.title + "\n\n" + article.body


def extract_occurrences(matchers: MatcherSet, article: Article) -> OccurrenceSet:
    return OccurrenceSet(
        article_id=article.id,
        quarter=quarter_of(article.published_at),
        polarity=article.polarity,
        companies=matchers.match_ids(article_text(article)),
    )


def parse_corpus(
    articles: Iterable[Article], matchers: MatcherSet
) -> dict[Quarter, list[OccurrenceSet]]:
    """Mention sets per quarter for every in-window article.

    Articles that mention no company are kept (they count toward article
    totals but contribute no nodes or edges).
    """
    grouped: dict[Quarter, list[OccurrenceSet]] = {}
    n_articles = 0
    n_matched = 0
    companies: set[str] = set()
    for article in articles:
        if not article.in_window:
            continue
        occ = extract_occurrences(matchers, article)
        grouped.setdefault(occ.quarter, []).append(occ)
        n_articles += 1
        if occ.companies:
            n_matched += 1
            companies.update(occ.companies)
    log.info(
        "parsed corpus articles=%d with_mentions=%d distinct_companies=%d quarters=%d",
        n_articles,
        n_matched,
        len(companies),
        len(grouped),
    )
    return {q: grouped[q] for q in sorted(grouped)}

