"""Price rows: the columns of `prices.csv`, the code of each ticker and the
order of each ticker's days, and the byte route that reads a plain price
file without parsing it.

`corpus.load_prices` reads a plain price file, as the fixtures write it, by
`plain_columns`, a chunk of rows at a time, and any other price file by
`corpus.read_table`; both routes code tickers and check the order of their
days through `Tickers`.
"""

from __future__ import annotations

import codecs
import math
from pathlib import Path
from typing import BinaryIO, Container, Iterator

import numpy as np

#: The columns of `prices.csv`, in order.
PRICE_COLUMNS = ("ticker", "date", "adjusted_close")
#: Keys `code * _SPAN + day` order rows by ticker code, then by day: the
#: days since 1970 of the years 1 to 9999 lie less than `_SPAN` apart.
_SPAN = np.int64(1 << 32)


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
                self.last = np.concatenate((self.last, np.full(code + 1, np.iinfo(np.int64).min)))
            self.kept[code] = self.known is None or ticker in self.known
        return code

    def keep(self, cells: dict[str, np.ndarray]) -> np.ndarray | None:
        """The rows of a chunk whose ticker is kept (None: every row), once
        every row of it is checked as `corpus._read_price_columns` checks a
        whole file; `Refused` on a fault. `cells` holds the chunk's codes,
        days and closes, in that order."""
        codes, days, closes = cells.values()
        if not closes.min() > 0 or closes.max() == math.inf:  # a NaN fails the first
            raise Refused
        return self.pick(codes.astype(np.intp), days)  # numpy indexes by intp without a cast

    def pick(self, codes: np.ndarray, days: np.ndarray) -> np.ndarray | None:
        """The rows whose ticker is kept (None: every row), once each
        ticker's days are checked to increase strictly; `Refused` if they
        do not. Each ticker's days are checked against its last row read,
        so tickers may interleave; only rows whose codes decrease are
        sorted."""
        key = codes * _SPAN + days
        if not self._ordered(codes, key):  # interleaved tickers, or a fault
            order = np.argsort(codes, kind="stable")
            if not self._ordered(codes[order], key[order]):
                raise Refused
        np.maximum.at(self.last, codes, key)
        picked = self.kept[codes].nonzero()[0]
        return None if len(picked) == len(codes) else picked

    def _ordered(self, codes: np.ndarray, key: np.ndarray) -> bool:
        """Whether the key of each row is above the key of the row before it
        and of its ticker's last row read before: so the codes never
        decrease, and each ticker's days increase strictly."""
        bound = self.last[codes]
        np.maximum(bound[1:], key[:-1], out=bound[1:])
        return bool((key > bound).all())


#: The longest close the byte route reads. At most this many ASCII digits
#: and one `.`, with a nonzero digit, make a number above 1e-300 and below
#: 1e300: finite and positive, so such a close is checked without a parse.
_CLOSE_BYTES = 300
#: Bytes the byte route reads at a time.
_READ = 1 << 15
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
    """The lines of the rest of `fh`, read `_READ` bytes at a time, `rows`
    lines at a time and fewer at its end, with blank lines left out, as
    `read_table` leaves them out: for each block, the bytes read so far,
    padded by `_PADDING`, the first byte of each of its lines, and the end
    of each, at its LF or at the CR of its CR LF. A last line without a
    line feed is given one."""
    rest = b""
    # The lines in `rest` not yet given, and the first byte of its unended line.
    starts = stops = np.zeros(0, dtype=np.intp)
    head = 0
    while True:
        data = fh.read(_READ)
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
    is not a date of the years 1 to 9999."""
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


def plain_columns(path: Path, tickers: Tickers, rows: int,
                  bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The code, day since 1970 and close of each row of the plain price
    file at `path` whose ticker `tickers` keeps, in file order; None if any
    row is not plain.

    A plain file is the `PRICE_COLUMNS` header line, after a byte-order mark
    or not, then rows of a ticker of at most `_TICKER_LENGTH` of
    `_TICKER_BYTES`, a `YYYY-MM-DD` date of the years 1 to 9999 and a close
    of at most `_CLOSE_BYTES` ASCII digits and one `.` with a nonzero digit,
    each row ended by LF or CR LF, and the last by the end of the file, and
    each ticker's days increasing; blank lines are left out. numpy checks
    `rows` rows at a time; the closes of the rows whose ticker is kept are
    parsed, and no other. The columns are reserved at `bound` rows, at least
    the file's."""
    known: dict = {}
    columns = tuple(np.empty(bound, dtype) for dtype in (np.int32, np.int64, np.float64))
    held = 0
    with path.open("rb") as fh:
        first_line = fh.readline(64).removeprefix(codecs.BOM_UTF8)
        if first_line.rstrip(b"\n").removesuffix(b"\r") != _HEADER:
            return None
        for block in _line_blocks(fh, rows):
            held = _plain_rows(*block, tickers, known, columns, held)
            del block  # so that the next block is read with this one freed
            if held is None:
                return None
    codes, days, closes = (column[:held] for column in columns)
    return codes, days, closes
