"""Loading and validation of articles, the entity universe, market caps, and prices.

File formats:
  articles    JSON lines with fields id, published_at (ISO-8601), author_id,
              polarity ("positive"|"negative"), title, body
  universe    CSV: canonical_id, display_name, primary_ticker, exchange,
              name_variants (pipe-separated), merged_tickers (pipe-separated);
              share classes appear as extra rows with the same canonical_id
  prices      CSV: ticker, date, adjusted_close; three fields a row. Dates
              are exactly YYYY-MM-DD and strictly increasing per ticker.
              Closes are finite and positive in numpy's float syntax:
              Python's float() without `_` separators or non-ASCII digits
              (`1.5`, `2e3`, `.5`). Whitespace around any cell is ignored.
  marketcaps  CSV: canonical_id, quarter (YYYYQN), market_cap_usd_billions

Everything returned by the loaders is immutable by convention and safe for
unrestricted concurrent reads.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import re
import warnings
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import ValidationError
from .quarters import Quarter, parse_quarter

log = logging.getLogger(__name__)

POLARITIES = ("positive", "negative")

#: Default analysis window. Articles outside it are still loaded but flagged,
#: never silently dropped.
DEFAULT_WINDOW = (date(2011, 1, 1), date(2016, 6, 30))

ARTICLE_FIELDS = ("id", "published_at", "author_id", "polarity", "title", "body")
UNIVERSE_COLUMNS = (
    "canonical_id",
    "display_name",
    "primary_ticker",
    "exchange",
    "name_variants",
    "merged_tickers",
)
PRICE_COLUMNS = ("ticker", "date", "adjusted_close")
MARKETCAP_COLUMNS = ("canonical_id", "quarter", "market_cap_usd_billions")


@dataclass(frozen=True)
class Article:
    id: str
    published_at: datetime
    author_id: str
    polarity: str
    title: str
    body: str
    #: Whether published_at falls inside the configured analysis window.
    in_window: bool = True


@dataclass(frozen=True)
class EntityRecord:
    canonical_id: str
    display_name: str
    primary_ticker: str
    exchange: str
    name_variants: tuple[str, ...]
    #: Every ticker of the company, primary and merged share classes alike.
    merged_tickers: tuple[str, ...]


class EntityUniverse:
    """Canonical companies plus ticker and name-variant lookup maps."""

    def __init__(self, records: Iterable[EntityRecord]):
        self.records: dict[str, EntityRecord] = {}
        self.ticker_to_id: dict[str, str] = {}
        self.variant_to_id: dict[str, str] = {}
        for rec in sorted(records, key=lambda r: r.canonical_id):
            if rec.canonical_id in self.records:
                raise ValidationError(f"duplicate canonical_id {rec.canonical_id!r}")
            if not rec.name_variants:
                raise ValidationError(
                    f"company {rec.canonical_id!r} has no name variants"
                )
            self.records[rec.canonical_id] = rec
            for ticker in rec.merged_tickers:
                owner = self.ticker_to_id.get(ticker)
                if owner is not None and owner != rec.canonical_id:
                    raise ValidationError(
                        f"ticker {ticker!r} claimed by both {owner!r} and {rec.canonical_id!r}"
                    )
                self.ticker_to_id[ticker] = rec.canonical_id
            for variant in rec.name_variants:
                key = " ".join(variant.split()).casefold()
                owner = self.variant_to_id.get(key)
                if owner is not None and owner != rec.canonical_id:
                    raise ValidationError(
                        f"name variant {variant!r} claimed by both {owner!r} and {rec.canonical_id!r}"
                    )
                self.variant_to_id[key] = rec.canonical_id

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[EntityRecord]:
        return iter(self.records.values())

    def __contains__(self, canonical_id: str) -> bool:
        return canonical_id in self.records

    def ids(self) -> tuple[str, ...]:
        return tuple(self.records)

    def get(self, canonical_id: str) -> EntityRecord | None:
        return self.records.get(canonical_id)


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Adjusted closes for one company, as two read-only arrays.

    `dates` is datetime64[D], strictly increasing; `closes` is float64. Any
    sequences given are converted (a sequence of `date` works for `dates`).
    """

    key: str
    dates: np.ndarray
    closes: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("dates", "datetime64[D]"), ("closes", np.float64)):
            values = np.asarray(getattr(self, name), dtype=dtype).view()
            values.flags.writeable = False
            object.__setattr__(self, name, values)


class PriceTable:
    """Price series keyed by canonical_id (or raw ticker when unresolved)."""

    def __init__(self, series: Iterable[PriceSeries]):
        self.series: dict[str, PriceSeries] = {
            s.key: s for s in sorted(series, key=lambda s: s.key)
        }

    def __len__(self) -> int:
        return len(self.series)

    def __contains__(self, key: str) -> bool:
        return key in self.series

    def get(self, key: str) -> PriceSeries | None:
        return self.series.get(key)


class MarketCapTable:
    """(canonical_id, quarter) -> market cap in USD billions."""

    def __init__(self, entries: Mapping[tuple[str, Quarter], float]):
        for (cid, quarter), cap in entries.items():
            if cap <= 0:
                raise ValidationError(
                    f"non-positive market cap {cap} for {cid} {quarter}"
                )
        self.entries = dict(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, canonical_id: str, quarter: Quarter) -> float | None:
        return self.entries.get((canonical_id, quarter))


def _parse_timestamp(raw: str) -> datetime:
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        raise ValidationError(f"unparseable timestamp {raw!r}") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def load_articles(
    path: str | Path,
    window: tuple[date, date] = DEFAULT_WINDOW,
) -> list[Article]:
    """Load the article corpus, sorted ascending by publication time.

    Raises ValidationError with the offending line number on malformed
    records and on duplicate article ids.
    """
    path = Path(path)
    articles: list[Article] = []
    seen: set[str] = set()
    win_start, win_end = window
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path.name}:{lineno}: malformed record: {exc}") from None
            missing = [f for f in ARTICLE_FIELDS if f not in raw]
            if missing:
                raise ValidationError(
                    f"{path.name}:{lineno}: missing fields {missing}"
                )
            if raw["polarity"] not in POLARITIES:
                raise ValidationError(
                    f"{path.name}:{lineno}: polarity must be one of {POLARITIES}, "
                    f"got {raw['polarity']!r}"
                )
            article_id = str(raw["id"])
            if article_id in seen:
                raise ValidationError(
                    f"{path.name}:{lineno}: duplicate article id {article_id!r}"
                )
            seen.add(article_id)
            try:
                published = _parse_timestamp(str(raw["published_at"]))
            except ValidationError as exc:
                raise ValidationError(f"{path.name}:{lineno}: {exc}") from None
            in_window = win_start <= published.date() <= win_end
            articles.append(
                Article(
                    id=article_id,
                    published_at=published,
                    author_id=str(raw["author_id"]),
                    polarity=raw["polarity"],
                    title=str(raw["title"]),
                    body=str(raw["body"]),
                    in_window=in_window,
                )
            )
    articles.sort(key=lambda a: (a.published_at, a.id))
    n_excluded = sum(1 for a in articles if not a.in_window)
    log.info(
        "loaded articles file=%s count=%d excluded_from_window=%d",
        path.name,
        len(articles),
        n_excluded,
    )
    return articles


def _split_cell(cell: str) -> list[str]:
    return [part.strip() for part in cell.split("|") if part.strip()]


def load_universe(path: str | Path) -> EntityUniverse:
    """Load the entity universe, collapsing share-class rows into one company."""
    path = Path(path)
    by_id: dict[str, dict] = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        _check_columns(reader.fieldnames, UNIVERSE_COLUMNS, path)
        for lineno, row in enumerate(reader, start=2):
            cid = row["canonical_id"].strip()
            if not cid:
                raise ValidationError(f"{path.name}:{lineno}: empty canonical_id")
            variants = _split_cell(row["name_variants"])
            if not variants:
                raise ValidationError(
                    f"{path.name}:{lineno}: empty name_variants for {cid!r}"
                )
            primary = row["primary_ticker"].strip()
            if not primary:
                raise ValidationError(f"{path.name}:{lineno}: empty primary_ticker")
            tickers = [primary] + _split_cell(row["merged_tickers"])
            entry = by_id.get(cid)
            if entry is None:
                by_id[cid] = {
                    "display_name": row["display_name"].strip(),
                    "primary_ticker": primary,
                    "exchange": row["exchange"].strip(),
                    "variants": list(variants),
                    "tickers": list(tickers),
                }
            else:
                # Additional share-class row for an already-seen company.
                entry["tickers"].extend(tickers)
                entry["variants"].extend(variants)

    records = []
    for cid, entry in by_id.items():
        records.append(
            EntityRecord(
                canonical_id=cid,
                display_name=entry["display_name"],
                primary_ticker=entry["primary_ticker"],
                exchange=entry["exchange"],
                name_variants=tuple(dict.fromkeys(entry["variants"])),
                merged_tickers=tuple(dict.fromkeys(entry["tickers"])),
            )
        )
    universe = EntityUniverse(records)
    log.info("loaded universe file=%s companies=%d", path.name, len(universe))
    return universe


#: `date.toordinal()` of 1970-01-01, day 0 of datetime64[D].
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()

#: Rows of prices.csv that one `np.loadtxt` call parses. Each cell of a chunk
#: is a `str` until the chunk is coded, and the allocator keeps the pages they
#: took. On a 2-vCPU VM, 4096-row chunks raised a whole run's peak RSS by about
#: 0.5 MB over a row-at-a-time loader. 512-row chunks stay below it, and parse
#: a 203 000-row file within 10 % of the time 4096-row chunks take.
_PRICE_CHUNK = 512
_PRICE_ROW = np.dtype([("t", object), ("d", object), ("c", "f8")])
_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _day_ordinal(cell: str) -> int:
    """`date.toordinal()` of a `YYYY-MM-DD` cell; ValueError on any other form."""
    text = cell.strip()
    if not _ISO_DAY.fullmatch(text):
        raise ValueError(f"not a YYYY-MM-DD date: {cell!r}")
    return date.fromisoformat(text).toordinal()


def _close_value(cell: str) -> float:
    """A close cell as `np.loadtxt` reads it: `float()` syntax, but ASCII
    only and without `_` digit separators."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {cell!r}")
    return float(text)


class _Memo(dict):
    """`convert(cell)` by cell as written; each distinct cell is converted once."""

    def __init__(self, convert: Callable[[str], int]):
        super().__init__()
        self.convert = convert

    def __missing__(self, cell: str) -> int:
        value = self[cell] = self.convert(cell)
        return value


def _price_columns(lines: Iterator[str]) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Tickers, and the code, date ordinal and close of every row grouped by ticker.

    `np.loadtxt` parses the rows a chunk at a time; each distinct ticker and
    date cell goes through Python once. Raises ValueError, without naming a
    line, when any row is faulty.
    """
    names: dict[str, int] = {}  # ticker -> code
    codes = _Memo(lambda cell: names.setdefault(cell.strip(), len(names)))
    ordinals = _Memo(_day_ordinal)
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    while not parts or len(parts[-1][2]) == _PRICE_CHUNK:
        with warnings.catch_warnings():
            # loadtxt warns when a call finds no rows and when it skips a blank line
            warnings.simplefilter("ignore", UserWarning)
            chunk = np.loadtxt(
                lines,
                dtype=_PRICE_ROW,
                delimiter=",",
                quotechar='"',
                comments=None,
                ndmin=1,
                max_rows=_PRICE_CHUNK,
            )
        parts.append(
            (
                np.fromiter(map(codes.__getitem__, chunk["t"]), np.int32, len(chunk)),
                np.fromiter(map(ordinals.__getitem__, chunk["d"]), np.int32, len(chunk)),
                chunk["c"].copy(),  # a view would keep every str of the chunk alive
            )
        )
    code_col, day_col, close_col = map(np.concatenate, zip(*parts))
    if not (np.isfinite(close_col) & (close_col > 0)).all():
        raise ValueError("non-finite or non-positive close")
    order = np.argsort(code_col, kind="stable")
    code_col, day_col, close_col = code_col[order], day_col[order], close_col[order]
    if ((code_col[1:] == code_col[:-1]) & (day_col[1:] <= day_col[:-1])).any():
        raise ValueError("dates not strictly increasing")
    return list(names), code_col, day_col, close_col


def _first_fault(path: Path) -> str | None:
    """`line: message` for the first faulty row of a prices file.

    Reads row by row in file order, and runs only once the columnar parse
    has failed. A price fault beats a date-order fault on the same line. A
    row `csv.reader` cannot read is a fault too: numpy reads cells longer
    than `csv.field_size_limit()`, which the row reader refuses.
    """
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            return _first_faulty_row(reader)
        except csv.Error as exc:
            return f"{reader.line_num}: {exc}"


def _first_faulty_row(reader) -> str | None:
    last_day: dict[str, int] = {}
    next(reader, None)
    for row in reader:
        if len(row) != len(PRICE_COLUMNS):
            if not row:
                continue  # blank line
            return f"{reader.line_num}: expected {len(PRICE_COLUMNS)} fields, got {len(row)}"
        ticker, day, close = row
        ticker = ticker.strip()
        try:
            ordinal = _day_ordinal(day)
        except ValueError:
            return f"{reader.line_num}: bad date {day!r}"
        try:
            value = _close_value(close)
        except ValueError:
            return f"{reader.line_num}: bad price {close!r}"
        if not (math.isfinite(value) and value > 0):
            kind = "non-positive price" if math.isfinite(value) else "bad price"
            return f"{reader.line_num}: {kind} {value} for {ticker}"
        if last_day.get(ticker, 0) >= ordinal:  # ordinals start at 1
            return f"{reader.line_num}: dates for {ticker} not strictly increasing"
        last_day[ticker] = ordinal
    return None


def load_prices(path: str | Path, universe: EntityUniverse | None = None) -> PriceTable:
    """Load daily adjusted closes.

    When a universe is given, series are re-keyed by canonical_id; for a
    company with several share-class series the primary ticker's series wins.
    Missing companies are permitted (the backtest disqualifies them later).

    numpy's C parser reads the rows in bounded chunks, each ticker coded to a
    small int; one stable sort then groups them by ticker, and the price and
    date-order checks run over whole columns. A malformed file raises
    ValidationError naming its first faulty line, found by a row-by-row
    re-read that runs only then.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        _check_columns(next(csv.reader(fh), None), PRICE_COLUMNS, path)
        try:
            ticker_of, codes_col, days_col, closes_col = _price_columns(fh)
        except ValueError as exc:
            fault = _first_fault(path) or f" {exc}"
            raise ValidationError(f"{path.name}:{fault}") from None

    days_col = (days_col - _EPOCH_ORDINAL).astype("datetime64[D]")
    starts = np.flatnonzero(np.diff(codes_col, prepend=-1))
    ends = np.append(starts[1:], len(codes_col))
    per_ticker = {
        ticker_of[codes_col[lo]]: (days_col[lo:hi], closes_col[lo:hi])
        for lo, hi in zip(starts, ends)
    }

    chosen: dict[str, PriceSeries] = {}
    for ticker in sorted(per_ticker):
        dates, values = per_ticker[ticker]
        key = ticker
        if universe is not None:
            cid = universe.ticker_to_id.get(ticker)
            if cid is not None:
                key = cid
                primary = universe.records[cid].primary_ticker
                if key in chosen and ticker != primary:
                    continue  # keep the earlier (or primary) series
        chosen[key] = PriceSeries(key=key, dates=dates, closes=values)
    table = PriceTable(chosen.values())
    log.info("loaded prices file=%s series=%d", path.name, len(table))
    return table


def load_marketcaps(path: str | Path) -> MarketCapTable:
    """Load quarter-end market caps in USD billions."""
    path = Path(path)
    entries: dict[tuple[str, Quarter], float] = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        _check_columns(reader.fieldnames, MARKETCAP_COLUMNS, path)
        for lineno, row in enumerate(reader, start=2):
            cid = row["canonical_id"].strip()
            try:
                quarter = parse_quarter(row["quarter"])
            except ValueError as exc:
                raise ValidationError(f"{path.name}:{lineno}: {exc}") from None
            try:
                cap = float(row["market_cap_usd_billions"])
            except ValueError:
                raise ValidationError(
                    f"{path.name}:{lineno}: bad market cap {row['market_cap_usd_billions']!r}"
                ) from None
            if cap <= 0:
                raise ValidationError(
                    f"{path.name}:{lineno}: non-positive market cap {cap} for {cid}"
                )
            entries[(cid, quarter)] = cap
    table = MarketCapTable(entries)
    log.info("loaded marketcaps file=%s entries=%d", path.name, len(table))
    return table


def _check_columns(found, expected, path: Path) -> None:
    if found is None or list(found) != list(expected):
        raise ValidationError(
            f"{path.name}: expected columns {list(expected)}, found {found}"
        )


# ---------------------------------------------------------------------------
# Writer. Loading what write_articles wrote gives back the same articles; the
# fixture generator writes its corpus through it.
# ---------------------------------------------------------------------------


def write_articles(path: str | Path, articles: Iterable[Article]) -> int:
    path = Path(path)
    n = 0
    with path.open("w", encoding="utf-8") as fh:
        for article in articles:
            record = {
                "id": article.id,
                "published_at": article.published_at.astimezone(timezone.utc)
                .isoformat()
                .replace("+00:00", "Z"),
                "author_id": article.author_id,
                "polarity": article.polarity,
                "title": article.title,
                "body": article.body,
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
            n += 1
    return n
