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

`MatcherSet` maps every literal of a universe to its company, and a literal
that would resolve to two different companies is a configuration error that
raises MatcherCollisionError there. `MatcherSet.compile(texts)` then compiles
the literals of each category that can match somewhere in `texts` (the
corpus being scanned) into one regex, an alternation factored into a
character trie: literals that share a prefix share one branch, so the regex
follows the text down one path of the trie rather than trying every literal
at every position, and its cost stays flat as the universe grows. Each node
tries its longer continuations before ending, so the longest literal still
wins at any text position. The guards that keep a literal from matching
inside a larger word sit on the trie: ``(?!\\w)`` on each end of a literal
that ends with a word character, and, on a literal that starts with one,
``(?<!\\w)`` on the branch that holds every such name, or ``(?<!\\w.)`` right
after a ticker's first character. That lookbehind sees the character before
it and the character itself, which is never a line break, so it is the same
guard; it leaves the ticker regex starting with a set of literal characters,
and re skips in C every text position that starts no ticker.

A literal is left out of the regex when the first whitespace-free piece of
its text occurs in no whitespace-free token of the corpus. That piece is
spelled by consecutive one-character tokens, so any text the literal matches
holds it inside one token; a literal left out matches nowhere in the corpus,
is never the alternative that succeeds at a position, and every match stays
the same. Names are compared case-insensitively, as `re.IGNORECASE` compares
them, through `FOLD` and `str.lower`.
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
#: The non-ASCII characters that re.IGNORECASE equates with an ASCII letter,
#: mapped to that letter. `str.lower` alone keeps "ı" and "ſ", and turns "İ"
#: into two characters; after `translate(FOLD)`, `lower` maps every character
#: that re.IGNORECASE equates with an ASCII letter to that letter in lower case.
FOLD = str.maketrans({"\u0131": "i", "\u0130": "i", "\u017f": "s", "\u212a": "k"})


@dataclass(frozen=True, slots=True)
class OccurrenceSet:
    """The set of companies one article mentions. Equal quarters and equal
    company sets may be one object, shared by many articles' records."""

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
    A literal whose text starts with a word character carries the head guard:
    under re.IGNORECASE one guard on a root branch that holds them all, and
    case-sensitively one behind each first character, so that the root is a
    branch of literal characters. An end whose text ends with a word
    character carries the tail guard.
    """
    # re.IGNORECASE equates "ı" and "i", which casefold keeps apart; one node
    # for both keeps the literals that can match a text on one path.
    fold = str.maketrans("ı", "i") if flags & re.IGNORECASE else {}
    root: dict = {}
    for key, text, tokens in literals:
        node = root
        if not _is_word(text[0]):
            path = tokens
        elif flags & re.IGNORECASE:
            # one guard for every name: behind each first character, as for
            # tickers, it made the case-insensitive scan about 3x slower
            path = [r"(?<!\w)", *tokens]
        else:
            # "c(?<!\w.)" is "(?<!\w)c", since c, a word character, is never
            # "\n". The root becomes a branch of literals, whose first
            # characters re skips by in C.
            path = [tokens[0] + r"(?<!\w.)", *tokens[1:]]
        for token in path:
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
    """The mention literals of one entity universe, each mapped to its
    company; `compile` builds the regexes that scan a corpus for them."""

    def __init__(self, universe: EntityUniverse):
        #: name literal -> canonical_id: each name's case-folded key, which
        #: matched text resolves through, and its lower-cased spelling when
        #: that differs from the key
        self.name_map: dict[str, str] = {}
        #: bare ticker literal (as matched) -> canonical_id
        self.bare_map: dict[str, str] = {}
        #: "EXCHANGE:TICKER" -> canonical_id
        self.exch_map: dict[str, str] = {}
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

    def compile(self, texts: Iterable[str]) -> Scanner:
        """The regexes over the literals that can match somewhere in `texts`.

        A bare or exchange-qualified ticker is kept when the first piece of
        its ticker occurs in a token of `texts`, case-sensitively; a name
        when its first key word occurs in a token folded as re.IGNORECASE
        folds it, and always when that word is not ASCII.
        """
        pieces: set[str] = set()
        for text in texts:
            pieces.update(text.split())
        joined = " ".join(pieces)
        folded = joined.translate(FOLD).lower()

        names = []
        for key in self.name_map:
            head = key.partition(" ")[0]
            if head in folded or not head.isascii():
                tokens = [re.escape(ch) if ch != " " else r"\s+" for ch in key]
                names.append((key, key, tokens))
        tickers = []
        for key in self.exch_map:
            exch, _, tick = key.partition(":")
            if tick.split()[0] in joined:
                body = [*map(re.escape, exch), r"\s*:\s*", *map(re.escape, tick)]
                tickers.append((key, f"({key})", [r"\(\s*", *body, r"\s*\)"]))
        for key in self.bare_map:
            if key.split()[0] in joined:
                tickers.append((key, key, [re.escape(ch) for ch in key]))
        return Scanner(self, _trie_regex(names, re.IGNORECASE), _trie_regex(tickers, 0))

    # -- resolving matched text ------------------------------------------

    def resolve_ticker(self, text: str) -> str | None:
        if text.startswith("("):
            inner = text.strip("()")
            exch, _, tick = inner.partition(":")
            return self.exch_map.get(f"{exch.strip()}:{tick.strip()}")
        return self.bare_map.get(text)

    def resolve_name(self, text: str) -> str | None:
        return self.name_map.get(_normalize_name(text))


class Scanner:
    """A MatcherSet's regexes, compiled for one corpus; a regex is None
    where its category keeps no literal."""

    def __init__(
        self,
        matchers: MatcherSet,
        name_re: re.Pattern[str] | None,
        ticker_re: re.Pattern[str] | None,
    ):
        pairs = ((ticker_re, matchers.resolve_ticker), (name_re, matchers.resolve_name))
        #: (regex, resolver of its matched text) of each category
        self.patterns = [(pattern, resolve) for pattern, resolve in pairs if pattern is not None]
        #: each distinct set `match_ids` has returned
        self._sets: dict[frozenset[str], frozenset[str]] = {}

    def match_ids(self, text: str) -> frozenset[str]:
        """The companies `text` mentions, resolved from the matched strings.
        Equal sets that one scanner returns are one object."""
        ids: set[str | None] = set()
        for pattern, resolve in self.patterns:
            ids.update(map(resolve, pattern.findall(text)))
        ids.discard(None)
        found = frozenset(ids)
        return self._sets.setdefault(found, found)


def article_text(article: Article) -> str:
    return article.title + "\n\n" + article.body


def extract_occurrences(scanner: Scanner, article: Article) -> OccurrenceSet:
    return OccurrenceSet(
        article_id=article.id,
        quarter=quarter_of(article.published_at),
        polarity=article.polarity,
        companies=scanner.match_ids(article_text(article)),
    )


def parse_corpus(
    articles: Iterable[Article], matchers: MatcherSet
) -> dict[Quarter, list[OccurrenceSet]]:
    """Mention sets per quarter for every in-window article.

    Articles that mention no company are kept (they count toward article
    totals but contribute no nodes or edges). The records of one quarter
    share one `Quarter`, and equal company sets one `frozenset`.
    """
    in_window = [article for article in articles if article.in_window]
    # the tokens of title + "\n\n" + body are those of the title and the body
    scanner = matchers.compile(text for a in in_window for text in (a.title, a.body))
    grouped: dict[Quarter, list[OccurrenceSet]] = {}
    n_matched = 0
    companies: set[str] = set()
    for article in in_window:
        occ = extract_occurrences(scanner, article)
        grouped.setdefault(occ.quarter, []).append(occ)
        if occ.companies:
            n_matched += 1
            companies.update(occ.companies)
    log.info(
        "parsed corpus articles=%d with_mentions=%d distinct_companies=%d quarters=%d",
        len(in_window),
        n_matched,
        len(companies),
        len(grouped),
    )
    return {q: grouped[q] for q in sorted(grouped)}

