"""Loading and validation of articles, the entity universe, market caps, and prices.

File formats:
  articles    JSON lines with fields id, published_at (ISO-8601), author_id,
              polarity ("positive"|"negative"), title, body
  universe    CSV: canonical_id, display_name, primary_ticker, exchange,
              name_variants (pipe-separated), merged_tickers (pipe-separated);
              share classes appear as extra rows with the same canonical_id
  prices      CSV: ticker, date, adjusted_close. Dates are exactly
              YYYY-MM-DD and strictly increasing per ticker.
  marketcaps  CSV: canonical_id, quarter (YYYYQN), market_cap_usd_billions

Every CSV file the package reads, input or artifact, is read by
`read_table`, whose cell grammar the README's "Input formats" states; the
loaders ignore whitespace around a cell. A plain `prices.csv`, as the
fixtures write it, is read as bytes by `pricerows.plain_columns` instead,
and any other price file by `read_table`. Every CSV file it writes, artifact
or fixture, is formatted by `format_table` and written a slice of rows at a
time, so a write holds one slice whatever the size of the file. A file that
is not UTF-8 is refused with the line that holds its first undecodable
byte. A UTF-8 byte-order mark at the start of a CSV file is skipped.

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
from array import array
from dataclasses import dataclass
from datetime import date, datetime, timezone
from itertools import islice
from json.encoder import encode_basestring as _json_str
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .pricerows import PRICE_COLUMNS, Refused, Tickers, plain_columns
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
MARKETCAP_COLUMNS = ("canonical_id", "quarter", "market_cap_usd_billions")


@dataclass(frozen=True, slots=True)
class Article:
    id: str
    published_at: datetime
    author_id: str
    polarity: str
    title: str
    body: str
    #: Whether published_at falls inside the configured analysis window.
    in_window: bool = True


@dataclass(frozen=True, slots=True)
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

    def ids(self) -> tuple[str, ...]:
        return tuple(self.records)


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
    """Price series by key: `load_prices` keys them by canonical_id when
    given a universe, holding only the tickers it lists, and by ticker
    without one. The backtest passes the universe of its datapoints'
    companies, so its table holds the series it reads and no other."""

    def __init__(self, series: Iterable[PriceSeries]):
        self.series: dict[str, PriceSeries] = {
            s.key: s for s in sorted(series, key=lambda s: s.key)
        }

    def __len__(self) -> int:
        return len(self.series)

    def get(self, key: str) -> PriceSeries | None:
        return self.series.get(key)


class MarketCapTable:
    """(canonical_id, quarter) -> market cap in USD billions."""

    def __init__(self, entries: Mapping[tuple[str, Quarter], float]):
        for (cid, quarter), cap in entries.items():
            if not math.isfinite(cap):
                raise ValidationError(f"non-finite market cap {cap} for {cid} {quarter}")
            if cap <= 0:
                raise ValidationError(f"non-positive market cap {cap} for {cid} {quarter}")
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
    try:
        with path.open("r", encoding="utf-8-sig") as fh:
            articles = _read_articles(path, fh, window)
    except UnicodeDecodeError:
        # The text layer decodes ahead of the line being read: read the lines
        # before the first byte that is not UTF-8, then name that byte.
        undecodable = _undecodable(path)
        if undecodable is None:
            raise
        line, problem = undecodable
        with path.open("r", encoding="utf-8-sig", errors="surrogateescape") as fh:
            _read_articles(path, islice(fh, line - 1), window)
        raise _input_error(path, line, problem) from None
    articles.sort(key=lambda a: (a.published_at, a.id))
    n_excluded = sum(1 for a in articles if not a.in_window)
    log.info(
        "loaded articles file=%s count=%d excluded_from_window=%d",
        path.name,
        len(articles),
        n_excluded,
    )
    return articles


def _read_articles(path: Path, lines: Iterable[str], window: tuple[date, date]) -> list[Article]:
    """The articles of `lines`, in file order. Equal author ids and
    polarities are one string, as `_Memo` shares a column's equal cells."""
    articles: list[Article] = []
    seen: set[str] = set()
    shared: dict[str, str] = {}
    win_start, win_end = window
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path.name}:{lineno}: malformed record: {exc}") from None
        if not isinstance(raw, dict):
            raise ValidationError(f"{path.name}:{lineno}: record is not a JSON object")
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
        author_id = str(raw["author_id"])
        articles.append(
            Article(
                id=article_id,
                published_at=published,
                author_id=shared.setdefault(author_id, author_id),
                polarity=shared.setdefault(raw["polarity"], raw["polarity"]),
                title=str(raw["title"]),
                body=str(raw["body"]),
                in_window=in_window,
            )
        )
    return articles


# ---------------------------------------------------------------------------
# The CSV reader. Every CSV input and every artifact a stage reads back goes
# through `read_table`, but a plain price file; its caller checks the values
# and words the errors.
# ---------------------------------------------------------------------------

#: Rows that one `np.loadtxt` call parses. Each cell of a chunk is a `str`
#: until the chunk is copied into the columns, and the allocator keeps the
#: pages they took, so the chunk is the one slice of the file the reader
#: holds besides its result. On a 2-vCPU VM, loading the 203 000-row
#: wide-universe price file by `read_table` for the 23 companies its
#: backtest reads (75 KB of series) raised peak RSS by 0.24 MB with 512-row
#: chunks, 0.30 MB with 1 024, 0.41 MB with 2 048 and 0.66 MB with 4 096;
#: keeping every row (3.25 MB of series), by 4.54, 4.55, 4.67 and 4.92 MB.
#: Larger chunks parse faster, and the per-chunk checks of `load_prices`
#: cost less per row. The byte route that reads a plain `prices.csv`
#: checks a chunk of rows at a time too. Checking two chunks at a time, it
#: loaded the wide-universe prices for the 23 companies in 52 ms against
#: 62 ms, but loading 100 000 rows for 10 of their 200 tickers grew peak RSS
#: by 0.56 to 0.62 MB against 0.46 MB, with the package's bytecode cached.
_CHUNK = 1024
#: Bytes the row count reads at a time.
_BLOCK = 1 << 15


@dataclass(frozen=True)
class Kind:
    """How the cells of one column are read.

    `parse` maps a cell to its value, once per distinct cell. It raises
    ValueError, KeyError or OverflowError on a cell it rejects, which `bad`
    describes, formatted with the column's `name`, the `cell` and the
    `error`. numpy parses a float64 column, whose `parse` is `float_cell`.
    Any other column is an array of `parse`'s values, a list if `object`.
    """

    parse: Callable[[str], Any]
    bad: str = ""
    dtype: Any = object


@dataclass(frozen=True)
class Dialect:
    """How a caller words what `read_table` finds wrong: `header` gets the
    `found` and `expected` columns, `width` the cell counts `got` and
    `expected`. `error(path, line, problem)` is the exception to raise; the
    line is None for the header."""

    header: str
    width: str
    error: Callable[[Path, int | None, str], Exception]


class Table(dict):
    """A CSV file's columns by name, as `read_table` read them.

    `fault` is the row index and problem of the first row that could not be
    read, if any; the columns then hold the rows before it. `ends` holds the
    line that ends each row, and the fault's, once a scan has counted them.
    """

    def __init__(self, path: Path, dialect: Dialect, columns: dict[str, Any],
                 ends=None, fault=None):
        super().__init__(columns)
        self.path, self.dialect = path, dialect
        self.ends: Sequence[int] | None = ends
        self.fault: tuple[int, str] | None = fault

    def raise_first(self, *checks: tuple[Sequence[bool], Callable[[int], str]]) -> None:
        """Raise for the earliest faulty row, if any: the row that could not
        be read, or the first row a check flags. A check is a flag per row
        and the problem of a flagged row. On one row, a row that cannot be
        read comes first, then the checks in the order given."""
        flagged = [(int(np.argmax(f)), i) for i, (f, _) in enumerate(checks) if np.any(f)]
        if self.fault is not None:
            flagged.append((self.fault[0], -1))
        if not flagged:
            return
        row, i = min(flagged)
        problem = self.fault[1] if i < 0 else checks[i][1](row)
        if self.ends is None:  # numpy read the rows, and counted no lines
            line, unreadable = _end_line(self.path, row)
            raise self.dialect.error(self.path, line, unreadable or problem)
        raise self.dialect.error(self.path, self.ends[row], problem)


def read_table(path: Path, kinds: Mapping[str, Kind], dialect: Dialect,
               keep: Callable[[dict[str, np.ndarray]], np.ndarray | None] | None = None) -> Table:
    """The columns of the CSV file at `path`, whose header must name `kinds`.

    One pass over the bytes bounds the rows, and each array column is
    reserved once at that bound. numpy's C parser then reads the rows in
    chunks of `_CHUNK`, which are copied into the columns, so the reader
    holds its result and one chunk at a time. Each distinct cell of a
    column that is not float64 goes through Python once. When a row stops
    the parser, or a byte that is not UTF-8 (UnicodeDecodeError is a
    ValueError), `_scan` reads the file again row by row.

    `keep`, when given, gets the columns of each chunk as they are read,
    every one an array, and returns the indices of the rows to hold, or
    None to hold them all; it may raise to stop the read. The row scan
    holds every row and calls no `keep`; only its table has `ends`.
    """
    try:
        with path.open("r", encoding="utf-8-sig", newline="") as fh:
            _check_header(path, next(csv.reader(fh), None), kinds, dialect)
            return Table(path, dialect, _parse(fh, kinds, _row_bound(path), keep))
    except ValueError:
        return _scan(path, kinds, dialect)


def _row_bound(path: Path) -> int:
    """At least the rows of `path`, header included: each row ends at a line
    feed, a carriage return, a CR LF pair or the end of the file."""
    ends = 1
    with path.open("rb") as fh:
        while block := fh.read(_BLOCK):
            octets = np.frombuffer(block, np.uint8)
            ends += int(np.count_nonzero(octets == ord("\n")))
            ends += int(np.count_nonzero(octets == ord("\r")))
    return ends


def _check_header(path: Path, header: list[str] | None, kinds: Mapping[str, Kind],
                  dialect: Dialect) -> None:
    if header != list(kinds):
        problem = dialect.header.format(found=header, expected=list(kinds))
        raise dialect.error(path, None, problem)


def _undecodable(path: Path) -> tuple[int, str] | None:
    """The line that holds the first byte of `path` that is not UTF-8, and
    the problem that names it, if there is one. The text layer decodes
    ahead of the line being read, so the line is found by a scan of the
    file's bytes, which runs on the error path only."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start] + b"x").splitlines())  # the line the byte is on
        return line, f"has byte 0x{data[exc.start]:02x}, which is not UTF-8 ({exc.reason})"
    return None


def _parse(lines: Iterator[str], kinds: Mapping[str, Kind], rows: int,
           keep: Callable[[dict[str, np.ndarray]], np.ndarray | None] | None) -> dict[str, Any]:
    """The columns of `lines` that `keep` holds, of at most `rows` rows: a
    list for an `object` column, else an array. A row past `rows` raises
    ValueError."""
    memos = {name: _Memo(name, kind) for name, kind in kinds.items()}
    row = np.dtype([(name, kind.dtype if kind.dtype is np.float64 else object)
                    for name, kind in kinds.items()])
    columns = {name: [] if kind.dtype is object else np.empty(rows, kind.dtype)
               for name, kind in kinds.items()}
    read = held = 0
    count = _CHUNK
    while count == _CHUNK:
        with warnings.catch_warnings():
            # loadtxt warns when a call finds no rows and when it skips a blank line
            warnings.simplefilter("ignore", UserWarning)
            chunk = np.loadtxt(
                lines, dtype=row, delimiter=",", quotechar='"', comments=None, ndmin=1,
                max_rows=_CHUNK,
            )
        count = len(chunk)
        read += count
        if read > rows:
            raise ValueError(f"more than {rows} rows")
        cells = {name: _values(chunk[name], memos[name]) for name in kinds}
        picked = keep(cells) if keep is not None and count else None
        if picked is not None:
            cells = {name: values[picked] for name, values in cells.items()}
        for name, column in columns.items():
            if isinstance(column, list):
                column.extend(cells[name])
            else:
                column[held:held + len(cells[name])] = cells[name]
        held += count if picked is None else len(picked)
        del chunk, cells, picked  # so that the next chunk is parsed with this one freed
    return {name: column if isinstance(column, list) else column[:held]
            for name, column in columns.items()}


def _values(cells: np.ndarray, memo: _Memo) -> np.ndarray:
    """A chunk's cells of one column as an array of values: numpy parsed a
    float64 column; any other goes through its memo."""
    if memo.kind.dtype is np.float64:
        return cells
    return np.fromiter(map(memo.__getitem__, cells), memo.kind.dtype, len(cells))


def _scan(path: Path, kinds: Mapping[str, Kind], dialect: Dialect) -> Table:
    """`read_table` by `csv.reader`, row by row, which counts the lines of
    each row and names the first row it cannot read. Like np.loadtxt, it
    skips blank lines. It also stops at a cell longer than
    `csv.field_size_limit()`, which numpy reads, and at the row that holds
    the first byte that is not UTF-8."""
    stop, byte = _undecodable(path) or (math.inf, "")
    memos = [_Memo(name, kind) for name, kind in kinds.items()]
    columns: list[list] = [[] for _ in kinds]
    ends = array("q")
    fault = None
    with path.open("r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if reader.line_num >= stop:
            raise dialect.error(path, stop, byte)
        _check_header(path, header, kinds, dialect)
        try:
            for cells in reader:
                if reader.line_num >= stop:
                    raise ValueError(byte)
                if not cells:
                    continue
                if len(cells) != len(kinds):
                    raise ValueError(dialect.width.format(got=len(cells), expected=len(kinds)))
                row = [memo[cell] for memo, cell in zip(memos, cells)]
                for column, value in zip(columns, row):
                    column.append(value)
                ends.append(reader.line_num)
        except (csv.Error, ValueError) as exc:
            # a row that holds the undecodable byte is faulty for that byte
            fault = (len(ends), str(exc) if reader.line_num < stop else byte)
            ends.append(min(reader.line_num, stop))
    return Table(
        path, dialect,
        {name: values if kind.dtype is object else np.fromiter(values, kind.dtype, len(values))
         for (name, kind), values in zip(kinds.items(), columns)},
        ends, fault,
    )


def _end_line(path: Path, row: int) -> tuple[int, str | None]:
    """The line that ends data row `row`, counted as `_scan` counts it, but
    keeping no cells; or the line and problem of a row up to it that
    `csv.reader` cannot read."""
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for _ in islice(filter(None, reader), row + 2):  # the header, then rows
                pass
        except csv.Error as exc:
            return reader.line_num, str(exc)
    return reader.line_num, None


class _Memo(dict):
    """The values of one column's cells, by cell as written; each distinct
    cell is parsed once. ValueError describes a cell the column rejects."""

    def __init__(self, name: str, kind: Kind):
        super().__init__()
        self.name, self.kind = name, kind

    def __missing__(self, cell: str) -> Any:
        try:
            value = self.kind.parse(cell)
        except (ValueError, KeyError, OverflowError) as exc:
            raise ValueError(self.kind.bad.format(name=self.name, cell=cell, error=exc)) from None
        if self.kind.dtype is not np.float64:  # float cells are nearly all distinct
            self[cell] = value
        return value


def _input_error(path: Path, line: int | None, problem: str) -> ValidationError:
    return ValidationError(f"{path.name}:{line}: {problem}" if line else f"{path.name}: {problem}")


#: How the loaders word a fault: `prices.csv:7: bad date '2011-13-01'`.
INPUT = Dialect(
    "expected columns {expected}, found {found}", "expected {expected} fields, got {got}",
    _input_error,
)


# ---------------------------------------------------------------------------
# The CSV formatter. Every CSV file the package writes, each artifact and each
# fixture input, is formatted by `format_table`, a slice of rows at a time.
# ---------------------------------------------------------------------------

#: The characters that make a cell quoted: `csv.writer`'s minimal quoting,
#: and a lone carriage return on every Python version (3.11's `csv.writer`
#: leaves it bare, but `csv.reader` ends a record there).
_QUOTED = ',"\n\r'
_FLOATS = {float, np.float64}
#: Rows `format_table` formats and yields at a time: a write holds the cells
#: and the text of one slice, whatever the size of the file.
_JOIN_ROWS = 1024


def _needs_quotes(text: str) -> bool:
    return any(char in text for char in _QUOTED)


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if _needs_quotes(cell) else cell


def _text(value: object) -> str:
    if value is None or value != value:  # NaN rates are undefined, like None
        return ""
    if isinstance(value, float):
        return float.__repr__(value)
    return value if isinstance(value, str) else str(value)


def _cells(column: Sequence) -> Sequence[str]:
    """A column's cells as text; a column of one type is formatted in one pass."""
    if isinstance(column, np.ndarray):
        column = column.tolist()
    kinds = set(map(type, column))
    if kinds <= _FLOATS:
        cells = list(map(float.__repr__, column))
        return [cell if cell != "nan" else "" for cell in cells] if "nan" in cells else cells
    if kinds == {int}:
        return list(map(int.__repr__, column))
    if not kinds <= {str}:
        column = list(map(_text, column))
    return list(map(_quote, column)) if _needs_quotes("".join(column)) else column


def format_table(header: Sequence[str], blocks: Iterable[Sequence[Sequence]]) -> Iterator[str]:
    """A CSV file's text, a slice at a time: the header line, then the rows
    of each block, which is one list, tuple or numpy array per column, all
    of one length. Strings get CSV-minimal quoting, floats `repr`, None and
    NaN an empty cell, anything else `str`, so every value reads back
    exactly. The text of `_JOIN_ROWS` rows of a block is yielded at a time;
    a cell's text does not depend on its slice."""
    yield ",".join(map(_quote, header)) + "\n"
    for columns in blocks:
        lengths = [len(column) for column in columns]
        if len(lengths) != len(header) or len(set(lengths)) > 1:
            raise ValueError(f"{len(header)} columns, got a block of {lengths} cells")
        for lo in range(0, lengths[0], _JOIN_ROWS):
            cells = [_cells(column[lo:lo + _JOIN_ROWS]) for column in columns]
            if len(cells) == 1:  # a lone empty cell is quoted, or its row would be blank
                cells = [['""' if cell == "" else cell for cell in cells[0]]]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"


# ---------------------------------------------------------------------------
# The loaders of the CSV inputs
# ---------------------------------------------------------------------------


def _split_cell(cell: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in cell.split("|") if part.strip())


_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


#: `date.toordinal()` of 1970-01-01, day 0 of datetime64[D].
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def _epoch_day(cell: str) -> int:
    """Days from 1970-01-01 to a `YYYY-MM-DD` cell; ValueError on any other form."""
    text = cell.strip()
    if not _ISO_DAY.fullmatch(text):
        raise ValueError(f"not a YYYY-MM-DD date: {cell!r}")
    return date.fromisoformat(text).toordinal() - _EPOCH_ORDINAL


def float_cell(cell: str) -> float:
    """A float64 cell as `np.loadtxt` reads it: `float()` syntax, but ASCII
    only and without `_` digit separators."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {cell!r}")
    return float(text)


_TEXT = Kind(str.strip)
_UNIVERSE = dict(zip(UNIVERSE_COLUMNS, (_TEXT,) * 4 + (Kind(_split_cell),) * 2))


def load_universe(path: str | Path) -> EntityUniverse:
    """Load the entity universe, collapsing share-class rows into one company.

    The first row of a company gives its display name, primary ticker and
    exchange; the name variants and tickers of all its rows are merged.
    """
    path = Path(path)
    table = read_table(path, _UNIVERSE, INPUT)
    ids, primaries = table["canonical_id"], table["primary_ticker"]
    variants = table["name_variants"]
    table.raise_first(
        ([not cid for cid in ids], lambda r: "empty canonical_id"),
        ([not names for names in variants], lambda r: f"empty name_variants for {ids[r]!r}"),
        ([not ticker for ticker in primaries], lambda r: "empty primary_ticker"),
    )
    rows: dict[str, list[int]] = {}
    for r, cid in enumerate(ids):
        rows.setdefault(cid, []).append(r)
    universe = EntityUniverse(
        EntityRecord(
            canonical_id=cid,
            display_name=table["display_name"][rs[0]],
            primary_ticker=primaries[rs[0]],
            exchange=table["exchange"][rs[0]],
            name_variants=tuple(dict.fromkeys(v for r in rs for v in variants[r])),
            merged_tickers=tuple(
                dict.fromkeys(t for r in rs for t in (primaries[r], *table["merged_tickers"][r]))
            ),
        )
        for cid, rs in rows.items()
    )
    log.info("loaded universe file=%s companies=%d", path.name, len(universe))
    return universe


_DAY = Kind(_epoch_day, "bad date {cell!r}", np.int64)
_CLOSE = Kind(float_cell, "bad price {cell!r}", np.float64)


def _price_columns(
    path: Path, universe: EntityUniverse | None
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Tickers, and the code, day since 1970 and close of each row whose
    ticker is kept, grouped by ticker: without a universe every ticker is
    kept, with one each ticker it lists.

    A plain file is read as bytes by `pricerows.plain_columns`, a chunk of
    rows at a time; any other file, and any file with a fault, by
    `read_table`. Each ticker is coded in the order it first appears, so the
    codes of a file whose tickers are already grouped never decrease, and
    its kept rows are returned as read. Only the kept rows of a file that
    interleaves tickers are grouped, by one stable sort."""
    known = None if universe is None else universe.ticker_to_id
    tickers = Tickers(known)
    columns = plain_columns(path, tickers, _CHUNK, _row_bound(path))
    if columns is None:
        tickers = Tickers(known)
        columns = _read_price_columns(path, tickers)
    codes, days, closes = columns
    if np.any(codes[1:] < codes[:-1]):
        order = np.argsort(codes, kind="stable")
        codes, days, closes = codes[order], days[order], closes[order]
    return list(tickers), codes, days, closes


def _read_price_columns(path: Path, tickers: Tickers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The code, day since 1970 and close of each row of `path` whose
    ticker `tickers` keeps, in file order, by `read_table`. Each chunk is
    checked as it is read, and only its kept rows are held. When a chunk
    fails a check, or a row cannot be read, every row of the file is read
    and the whole columns are checked here, so the first faulty line is
    named."""
    kinds = dict(zip(PRICE_COLUMNS, (Kind(tickers.code, dtype=np.int32), _DAY, _CLOSE)))
    try:
        table = read_table(path, kinds, INPUT, tickers.keep)
    except Refused:  # the traceback holds the rows read so far until this block ends
        table = None
    whole = table is None or table.ends is not None  # else only the kept rows were read
    if table is None:
        table = read_table(path, kinds, INPUT)
    codes, days, closes = (table[name] for name in PRICE_COLUMNS)
    names = list(tickers)
    if whole:
        order = np.argsort(codes, kind="stable") if np.any(codes[1:] < codes[:-1]) else None
        by_code, by_day = (codes, days) if order is None else (codes[order], days[order])
        late = 1 + np.flatnonzero((by_code[1:] == by_code[:-1]) & (by_day[1:] <= by_day[:-1]))
        unordered = np.zeros(len(codes), dtype=bool)
        unordered[late if order is None else order[late]] = True
        table.raise_first(
            (~np.isfinite(closes), lambda r: f"bad price {float(closes[r])} for {names[codes[r]]}"),
            (closes <= 0, lambda r: f"non-positive price {float(closes[r])} for {names[codes[r]]}"),
            (unordered, lambda r: f"dates for {names[codes[r]]} not strictly increasing"),
        )
        held = np.flatnonzero(tickers.kept[codes])
        codes, days, closes = codes[held], days[held], closes[held]
    return codes, days, closes


def load_prices(path: str | Path, universe: EntityUniverse | None = None) -> PriceTable:
    """Load daily adjusted closes.

    When a universe is given, series are keyed by the canonical_id their
    ticker resolves to, and the rows of a ticker the universe does not list
    are checked and then left out, never held; for a company with several
    share-class series the primary ticker's series wins. Missing companies
    are permitted (the backtest disqualifies them later).

    The file is read and checked a chunk at a time, and only the rows of
    kept tickers are held, in columns reserved once at the file's row
    bound, whose untouched pages take no memory. A plain file, as the
    fixtures write it, is read as bytes by `pricerows.plain_columns`, which
    parses the closes of kept rows only; any other file by `read_table`.
    The series of a file grouped by ticker are views of those columns,
    whose days since 1970 are viewed as dates, so the loader holds little
    more than its result and one chunk. A malformed file raises
    ValidationError naming its first faulty line.
    """
    path = Path(path)
    tickers, codes, days, closes = _price_columns(path, universe)
    dates = days.view("datetime64[D]")
    cuts = (np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist()
    per_ticker = {
        tickers[codes[lo]]: (dates[lo:hi], closes[lo:hi])
        for lo, hi in zip([0, *cuts], [*cuts, len(codes)])
        if lo < hi  # a file without rows has no series
    }

    chosen: dict[str, PriceSeries] = {}
    for ticker in sorted(per_ticker):
        dates, values = per_ticker[ticker]
        key = ticker
        if universe is not None:  # which lists every ticker held
            key = universe.ticker_to_id[ticker]
            if key in chosen and ticker != universe.records[key].primary_ticker:
                continue  # keep the earlier (or primary) series
        chosen[key] = PriceSeries(key=key, dates=dates, closes=values)
    prices = PriceTable(chosen.values())
    log.info("loaded prices file=%s series=%d", path.name, len(prices))
    return prices


_CAP = Kind(float_cell, "bad market cap {cell!r}", np.float64)
_MARKETCAPS = dict(zip(MARKETCAP_COLUMNS, (_TEXT, Kind(parse_quarter, "{error}"), _CAP)))


def load_marketcaps(path: str | Path) -> MarketCapTable:
    """Load quarter-end market caps in USD billions."""
    path = Path(path)
    table = read_table(path, _MARKETCAPS, INPUT)
    ids, quarters, caps = (table[name] for name in MARKETCAP_COLUMNS)
    first: dict[tuple[str, Quarter], int] = {}  # the row each key first appears on
    keys = list(zip(ids, quarters))
    table.raise_first(
        (~np.isfinite(caps), lambda r: f"non-finite market cap {float(caps[r])} for {ids[r]}"),
        (caps <= 0, lambda r: f"non-positive market cap {float(caps[r])} for {ids[r]}"),
        ([first.setdefault(key, r) != r for r, key in enumerate(keys)],
         lambda r: f"duplicate market cap for {ids[r]} {quarters[r]}"),
    )
    marketcaps = MarketCapTable(dict(zip(keys, caps.tolist())))
    log.info("loaded marketcaps file=%s entries=%d", path.name, len(marketcaps))
    return marketcaps


# ---------------------------------------------------------------------------
# Writer. Loading what write_articles wrote gives back the same articles; the
# fixture generator writes its corpus through it.
# ---------------------------------------------------------------------------


def write_articles(path: str | Path, articles: Iterable[Article]) -> int:
    """Write one JSON object a line, as `json.dumps(record,
    ensure_ascii=False)` writes it: the keys are fixed and every value is a
    string, quoted by the function `json` quotes strings with."""
    n = 0
    with Path(path).open("w", encoding="utf-8") as fh:
        for article in articles:
            stamp = article.published_at.astimezone(timezone.utc).isoformat()
            fh.write(
                f'{{"id": {_json_str(article.id)}, '
                f'"published_at": {_json_str(stamp.replace("+00:00", "Z"))}, '
                f'"author_id": {_json_str(article.author_id)}, '
                f'"polarity": {_json_str(article.polarity)}, '
                f'"title": {_json_str(article.title)}, '
                f'"body": {_json_str(article.body)}}}\n'
            )
            n += 1
    return n
