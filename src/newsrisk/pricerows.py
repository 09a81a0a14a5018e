"""The one reader of `prices.csv` (ticker, date, adjusted_close): `load_prices`,
the tables it returns, its two routes and the checks of its rows.

A plain price file, as the fixtures write it, is read as bytes by
`plain_columns` without a parse; any other price file, and any file with a
fault, by `corpus.read_table`, which names the first faulty line. Both
routes read a chunk of rows at a time, and code tickers and check the
order of their days through `Tickers`.
"""

from __future__ import annotations

import codecs
import math
import re
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import BinaryIO, Container, Iterable, Iterator

import numpy as np

from . import corpus  # whose _CHUNK and _BLOCK both routes read at call time
from .corpus import INPUT, EntityUniverse, Kind, float_cell, read_table

#: The columns of `prices.csv`, in order.
PRICE_COLUMNS = ("ticker", "date", "adjusted_close")
#: Keys `code * _SPAN + day` order rows by ticker code, then by day: the
#: days since 1970 of the years 1 to 9999 lie less than `_SPAN` apart.
_SPAN = np.int64(1 << 32)
#: The key of a ticker's last row before any is read.
_UNREAD = np.iinfo(np.int64).min


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


def load_prices(path: str | Path, universe: EntityUniverse | None = None) -> PriceTable:
    """Load daily adjusted closes.

    When a universe is given, series are keyed by the canonical_id their
    ticker resolves to, and the rows of a ticker the universe does not list
    are checked and then left out, never held; for a company with several
    share-class series the primary ticker's series wins. Missing companies
    are permitted (the backtest disqualifies them later).

    Only the rows of kept tickers are held, in columns reserved once at
    the file's row bound, whose untouched pages take no memory. Tickers are
    coded in the order they first appear, so the series of a file grouped
    by ticker are views of those columns, days since 1970 viewed as dates;
    the kept rows of a file that interleaves tickers are grouped by one
    stable sort. A malformed file raises ValidationError naming its first
    faulty line.
    """
    path = Path(path)
    known = None if universe is None else universe.ticker_to_id
    tickers = Tickers(known)
    columns = plain_columns(path, tickers)
    if columns is None:
        tickers = Tickers(known)
        columns = _read_price_columns(path, tickers)
    codes, days, closes = columns
    if np.any(codes[1:] < codes[:-1]):
        order = np.argsort(codes, kind="stable")
        codes, days, closes = codes[order], days[order], closes[order]
    names = list(tickers)
    dates = days.view("datetime64[D]")
    cuts = (np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist()
    per_ticker = {
        names[codes[lo]]: (dates[lo:hi], closes[lo:hi])
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
    corpus.log.info("loaded prices file=%s series=%d", path.name, len(prices))
    return prices


_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
#: `date.toordinal()` of 1970-01-01, day 0 of datetime64[D].
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def _epoch_day(cell: str) -> int:
    """Days from 1970-01-01 to a `YYYY-MM-DD` cell; ValueError on any other form."""
    text = cell.strip()
    if not _ISO_DAY.fullmatch(text):
        raise ValueError(f"not a YYYY-MM-DD date: {cell!r}")
    return date.fromisoformat(text).toordinal() - _EPOCH_ORDINAL


_DAY = Kind(_epoch_day, "bad date {cell!r}", np.int64)
_CLOSE = Kind(float_cell, "bad price {cell!r}", np.float64)


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
    if whole:
        names = list(tickers)
        tickers.last.fill(_UNREAD)  # the rows the chunks checked are read again
        table.raise_first(
            (~np.isfinite(closes), lambda r: f"bad price {float(closes[r])} for {names[codes[r]]}"),
            (closes <= 0, lambda r: f"non-positive price {float(closes[r])} for {names[codes[r]]}"),
            (tickers.late(codes, days),
             lambda r: f"dates for {names[codes[r]]} not strictly increasing"),
        )
        kept = tickers.kept[codes]
        codes, days, closes = codes[kept], days[kept], closes[kept]
    return codes, days, closes


class Refused(Exception):
    """A chunk of a price file failed a check; the whole file is checked."""


class Tickers(dict):
    """The code of each ticker read, in the order first read, and for each
    code whether its rows are kept and the key of its last row read."""

    def __init__(self, known: Container[str] | None):
        super().__init__()
        self.known = known  # the tickers kept; None keeps every ticker
        self.kept = np.zeros(0, dtype=bool)
        self.last = np.zeros(0, dtype=np.int64)

    def code(self, cell: str) -> int:
        """The ticker column's `parse`, which runs once per distinct cell:
        the code of the cell's ticker, the next one for a new ticker."""
        ticker = cell.strip()
        code = self.get(ticker)
        if code is None:
            code = self[ticker] = len(self)
            if code == len(self.kept):  # double the room of the per-code arrays
                self.kept = np.concatenate((self.kept, np.zeros(code + 1, dtype=bool)))
                self.last = np.concatenate((self.last, np.full(code + 1, _UNREAD)))
            self.kept[code] = self.known is None or ticker in self.known
        return code

    def keep(self, cells: dict[str, np.ndarray]) -> np.ndarray | None:
        """The rows of a chunk whose ticker is kept (None: every row), once
        every row of it is checked as `_read_price_columns` checks a whole
        file; `Refused` on a fault. `cells` holds the chunk's codes, days
        and closes, in that order."""
        codes, days, closes = cells.values()
        if not closes.min() > 0 or closes.max() == math.inf:  # a NaN fails the first
            raise Refused
        return self.pick(codes.astype(np.intp), days)  # numpy indexes by intp without a cast

    def pick(self, codes: np.ndarray, days: np.ndarray) -> np.ndarray | None:
        """The rows whose ticker is kept (None: every row), once no row is
        `late`; `Refused` if one is."""
        if np.count_nonzero(self.late(codes, days)):
            raise Refused
        picked = self.kept[codes].nonzero()[0]
        return None if len(picked) == len(codes) else picked

    def late(self, codes: np.ndarray, days: np.ndarray) -> np.ndarray:
        """Whether each row's day is at most that of its ticker's row before
        it, or of its ticker's last row read; the rows are then the last
        read. Tickers may interleave: the rows are sorted by code if need be."""
        key = codes * _SPAN + days
        late = self._late(codes, key)
        if np.count_nonzero(late):  # interleaved tickers, or a fault
            order = np.argsort(codes, kind="stable")
            late[order] = self._late(codes[order], key[order])
        np.maximum.at(self.last, codes, key)
        return late

    def _late(self, codes: np.ndarray, key: np.ndarray) -> np.ndarray:
        """Whether each row's key is at most that of the row before it or of
        its ticker's last row read before."""
        bound = self.last[codes]
        np.maximum(bound[1:], key[:-1], out=bound[1:])
        return key <= bound


#: The longest close the byte route reads. At most this many ASCII digits
#: and one `.`, with a nonzero digit, make a number above 1e-300 and below
#: 1e300: finite and positive, so such a close is checked without a parse.
_CLOSE_BYTES = 300
#: Zero bytes after the bytes the byte route reads, so that every window of
#: close bytes and every word it reads lies in them.
_PADDING = bytes(_CLOSE_BYTES + 8)
_LF, _CR, _COMMA, _DOT = b"\n\r,."
_HEADER = ",".join(PRICE_COLUMNS).encode()
#: The bytes a ticker of a plain row is made of: ASCII letters, digits and
#: punctuation but `"`, which the CSV reader would read as a quote.
_TICKER_BYTES = bytes(range(0x21, 0x7F)).replace(b'"', b"")
#: The longest ticker of a plain row. Rows are told apart by the words of
#: their ticker and comma, at most four.
_TICKER_LENGTH = 31
#: The masks of a word's first 0 to 8 bytes.
_WORD_HEADS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
#: Bytes 0xFF, then as many zeros: the k bytes 0xFF before the zeros, and
#: the zeros, mask the first k bytes of a row.
_FILL = np.repeat(np.array([0xFF, 0], dtype=np.uint8), _CLOSE_BYTES + 8)
#: Where a date's two words start after the comma before it, the words of
#: their form, `YYYY-MM-` and `YY-MM-DD`, and the bytes of their dashes.
_DATE_WORDS = np.array([[1], [3]])
_DATE_FORMS = np.array([[int.from_bytes(form, "little")] for form in (b"0000-00-", b"00-00-00")],
                       dtype=np.uint64)
_DATE_DASHES = np.array([[0xFF0000FF00000000], [0x0000FF0000FF0000]], dtype=np.uint64)
#: Added to bytes of at most 9, these leave every byte's top bit clear.
_NINES, _TOPS = np.uint64(0x7676767676767676), np.uint64(0x8080808080808080)
#: The days of each month of a year that is not leap, by its number; 0 for
#: numbers that are no month.
_MONTH_DAYS = np.zeros(100, dtype=np.int64)
_MONTH_DAYS[1:13] = 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31
#: The days of a year that starts on 1 March before the first of each month.
_MARCH_DAYS = np.array([0, 306, 337, 0, 31, 61, 92, 122, 153, 184, 214, 245, 275])
#: The days from 1 March of year 0 to 1 January 1970, and one more, as the
#: days of a month count from 1.
_EPOCH = 719469


def _words(octets: np.ndarray) -> np.ndarray:
    """The little-endian eight-byte word at each byte of `octets`."""
    return np.ndarray((len(octets) - 7,), "<u8", octets, strides=(1,))


def _line_blocks(fh: BinaryIO, rows: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The lines of the rest of `fh`, read `corpus._BLOCK` bytes at a time,
    `rows` lines at a time and fewer at its end, with blank lines left out,
    as `read_table` leaves them out: for each block, the bytes read so far,
    padded by `_PADDING`, the first byte of each of its lines, and the end
    of each, at its LF or at the CR of its CR LF. A last line without a
    line feed is given one."""
    rest = b""
    # The lines in `rest` not yet given, and the first byte of its unended line.
    starts = stops = np.zeros(0, dtype=np.intp)
    head = 0
    while True:
        data = fh.read(corpus._BLOCK)
        end = not data
        if end and not rest.endswith(b"\n"):
            data = b"\n"
        lo, hi = len(rest), len(rest) + len(data)
        octets = np.frombuffer(b"".join((rest, data, _PADDING)), np.uint8)
        del rest, data
        feeds = np.flatnonzero(octets[lo:hi] == _LF)
        feeds += lo
        firsts = np.empty_like(feeds)
        if len(feeds):
            firsts[0], firsts[1:] = head, feeds[:-1] + 1
            head = int(feeds[-1]) + 1
        feeds -= octets[feeds - 1] == _CR  # a blank line's LF is its first byte
        filled = feeds > firsts
        starts = np.concatenate((starts, firsts[filled]))
        stops = np.concatenate((stops, feeds[filled]))
        del feeds, firsts, filled
        full = len(starts) - len(starts) % rows
        for row in range(0, full, rows):
            yield octets, starts[row:row + rows], stops[row:row + rows]
        if end:
            if full < len(starts):
                yield octets, starts[full:], stops[full:]
            return
        lo = int(starts[full]) if full < len(starts) else head
        rest = octets[lo:len(octets) - len(_PADDING)].tobytes()
        starts, stops, head = starts[full:] - lo, stops[full:] - lo, head - lo
        del octets  # so that the next read is made with it freed


def _plain_rows(octets: np.ndarray, starts: np.ndarray, stops: np.ndarray, tickers: Tickers,
                known: dict, columns: tuple[np.ndarray, ...], held: int) -> int | None:
    """Check one block of `_line_blocks` and write the code, day since 1970
    and close of each of its kept rows to `columns` from row `held` on; the
    rows held then, or None if a row of the block is not plain."""
    lo = int(starts[0])
    commas = np.flatnonzero(octets[lo:stops[-1]] == _COMMA)
    if len(commas) != 2 * len(starts):
        return None
    commas += lo
    first, second = commas[0::2], commas[1::2]
    widths = stops - second
    widths -= 1
    # With two commas a line in all, each line's first comma lies after its
    # first byte and its second before its end: two in each line.
    if not ((first > starts).all() and (second - first == 11).all() and widths.min() > 0
            and widths.max() <= _CLOSE_BYTES):
        return None
    codes = _plain_codes(octets, starts, first, tickers, known)
    days = None if codes is None else _plain_days(octets, first)
    closes = None if days is None else _plain_closes(octets, second, widths)
    if closes is None:
        return None
    try:
        picked = tickers.pick(codes, days)
    except Refused:
        return None
    if picked is not None:
        codes, days, closes = codes[picked], days[picked], closes[picked]
    end = held + len(codes)
    for column, values in zip(columns, (codes, days, closes.view(f"S{closes.shape[1]}")[:, 0])):
        column[held:end] = values  # the close bytes are parsed here
    return end


def _plain_codes(octets: np.ndarray, starts: np.ndarray, first: np.ndarray,
                 tickers: Tickers, known: dict) -> np.ndarray | None:
    """The code of each row's ticker, or None if one is not at most
    `_TICKER_LENGTH` of `_TICKER_BYTES`. A row is keyed by the words of its
    ticker and comma, zero past the comma; a row with the key of the row
    before it has its code, and the key of each other row is looked up in
    `known`, which holds the code of each key read so far. A ticker first
    read is checked and coded by `tickers`."""
    words = _words(octets)
    keyed = first - starts
    keyed += 1
    longest = int(keyed.max())
    if longest > _TICKER_LENGTH + 1:
        return None
    keys = [words[starts] & _WORD_HEADS[np.minimum(keyed, 8)]]
    for at in range(8, longest, 8):  # a shorter ticker's word is read at its comma, and masked
        keys.append(words[np.minimum(starts + at, first)] & _WORD_HEADS[np.clip(keyed - at, 0, 8)])
    new = np.empty(len(starts), dtype=bool)
    new[0], new[1:] = True, False
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    runs = new.nonzero()[0]
    run_keys = (keys[0][runs].tolist() if len(keys) == 1
                else list(zip(*(key[runs].tolist() for key in keys))))
    codes = list(map(known.get, run_keys))
    if None in codes:
        for i in [i for i, code in enumerate(codes) if code is None]:
            cell = octets[starts[runs[i]]:first[runs[i]]].tobytes()
            if cell.translate(None, _TICKER_BYTES):
                return None
            codes[i] = known[run_keys[i]] = tickers.code(cell.decode())
    lengths = np.empty_like(runs)
    lengths[:-1], lengths[-1] = runs[1:] - runs[:-1], len(starts) - runs[-1]
    return np.repeat(np.array(codes, dtype=np.intp), lengths)


def _plain_days(octets: np.ndarray, first: np.ndarray) -> np.ndarray | None:
    """The days since 1970 of each row's `YYYY-MM-DD` date, or None if one
    is not a date of the years 1 to 9999.

    numpy's `S10` to `datetime64[D]` cast would check months, days and leap
    years in less than half the time, but it is not this check: it also
    reads `today`, `NaT`, `0000-01-01` and `20110101`. And on numpy 2.4.6,
    one process that casts arrays of 1, 2, 8, 16, 100 and 1 000 cells that
    each hold `2011-02-30`, each cast refused, ends in a segmentation fault
    at the last."""
    # XOR the bytes of the form, a date's digits are their values and its
    # dashes zero; then each byte k holds digits k and k + 1 as a number.
    dates = _words(octets)[first + _DATE_WORDS]
    dates ^= _DATE_FORMS
    bad = dates + _NINES
    bad |= dates
    bad &= _TOPS
    bad |= dates & _DATE_DASHES
    if bad.any():
        return None
    del bad
    pairs = dates >> 8
    dates *= 10
    dates += pairs
    del pairs
    head, tail = dates
    year, month, day = (field.view(np.int64) for field in (
        (head & 0xFF) * 100 + (tail & 0xFF), tail >> 24 & 0xFF, tail >> 48 & 0xFF))
    if not (year.all() and day.all()):
        return None
    inside = day <= _MONTH_DAYS[month]  # so the month is one too
    if not inside.all():  # the dates outside must be 29 February of leap years
        out = (~inside).nonzero()[0]
        for y, m, d in zip(year[out].tolist(), month[out].tolist(), day[out].tolist()):
            if (m, d) != (2, 29) or y % 4 or (y % 100 == 0 and y % 400):
                return None
    # Count years from 1 March, so that a leap day ends the year it is in.
    year -= month < 3
    days = year * 365
    days += year >> 2
    days -= year // 100
    days += year // 400
    days += _MARCH_DAYS[month]
    days += day
    days -= _EPOCH
    return days


def _plain_closes(octets: np.ndarray, second: np.ndarray, widths: np.ndarray) -> np.ndarray | None:
    """Each row's close bytes, then zeros, in rows a whole number of words
    wide; None if a close is not ASCII digits and at most one dot with a
    nonzero digit."""
    width = -(-int(widths.max()) // 8) * 8
    windows = np.ndarray((len(octets) - width + 1,), f"V{width}", octets, strides=(1,))
    closes = windows[second + 1].view(np.uint8).reshape(len(second), width)
    # Zero each row past its close: row k of `heads` is k bytes 0xFF, then zeros.
    heads = np.ndarray((width + 1,), f"V{width}", _FILL, len(_FILL) // 2, (-1,))
    close_words = closes.view(np.uint64)
    close_words &= heads[widths].view(np.uint64).reshape(close_words.shape)
    # Count the zeros, the other digits and the dots, and the rows that hold
    # a digit that is not zero and a dot.
    zeros = np.count_nonzero(closes == ord("0"))
    counts, rows = [], []
    for low, high in ((ord("1"), ord("9")), (_DOT, _DOT)):
        marks = closes >= low
        marks &= closes <= high
        counts.append(np.count_nonzero(marks))
        words = marks.view(np.uint64)
        rows.append(words[:, 0].copy())
        for k in range(1, width // 8):  # or each row's words together
            rows[-1] |= words[:, k]
        del marks, words
    (digits, dots), (nonzero, dotted) = counts, rows
    if zeros + digits + dots != widths.sum():
        return None  # a byte that is neither a digit nor a dot
    if not nonzero.all() or np.count_nonzero(dotted) != dots:
        return None  # a close without a digit that is not zero, or with two dots
    return closes


def plain_columns(path: Path, tickers: Tickers) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The code, day since 1970 and close of each row of the plain price
    file at `path` whose ticker `tickers` keeps, in file order; None if any
    row is not plain.

    A plain file is the `PRICE_COLUMNS` header line, after a byte-order mark
    or not, then rows of a ticker of at most `_TICKER_LENGTH` of
    `_TICKER_BYTES`, a `YYYY-MM-DD` date of the years 1 to 9999 and a close
    of at most `_CLOSE_BYTES` ASCII digits and one `.` with a nonzero digit,
    each row ended by LF or CR LF, and the last by the end of the file, and
    each ticker's days increasing; blank lines are left out. numpy checks
    `corpus._CHUNK` rows at a time, as `read_table` parses them; the closes
    of the rows whose ticker is kept are parsed, and no other. The columns
    are reserved once, at `read_table`'s bound on the file's rows."""
    known: dict = {}
    held = 0
    with path.open("rb") as fh:
        first_line = fh.readline(64).removeprefix(codecs.BOM_UTF8)
        if first_line.rstrip(b"\n").removesuffix(b"\r") != _HEADER:
            return None
        bound = corpus._row_bound(path)
        columns = tuple(np.empty(bound, dtype) for dtype in (np.int32, np.int64, np.float64))
        for block in _line_blocks(fh, corpus._CHUNK):
            held = _plain_rows(*block, tickers, known, columns, held)
            del block  # so that the next block is read with this one freed
            if held is None:
                return None
    return tuple(column[:held] for column in columns)
