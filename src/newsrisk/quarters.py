"""Calendar quarters and UTC timestamp bucketing."""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date, datetime, timezone
from functools import cache

_LABEL_RE = re.compile(r"([0-9]{4})Q([1-4])")

_QUARTER_END = {1: (3, 31), 2: (6, 30), 3: (9, 30), 4: (12, 31)}


@dataclass(frozen=True, order=True)
class Quarter:
    """One calendar quarter, totally ordered by (year, index)."""

    year: int
    index: int

    def __post_init__(self) -> None:
        if not 1 <= self.year <= 9999:  # the years of `date`
            raise ValueError(f"quarter year must be 1..9999, got {self.year}")
        if not 1 <= self.index <= 4:
            raise ValueError(f"quarter index must be 1..4, got {self.index}")

    @property
    def label(self) -> str:
        return f"{self.year}Q{self.index}"

    @property
    def start_date(self) -> date:
        return date(self.year, 3 * (self.index - 1) + 1, 1)

    @property
    def end_date(self) -> date:
        month, day = _QUARTER_END[self.index]
        return date(self.year, month, day)

    def next(self) -> Quarter:
        if self.index == 4:
            return Quarter(self.year + 1, 1)
        return Quarter(self.year, self.index + 1)

    def __str__(self) -> str:
        return self.label


def parse_quarter(label: str) -> Quarter:
    """Parse a YYYYQN label such as '2016Q2': ASCII digits, and a year of
    the calendar (0001 to 9999)."""
    match = _LABEL_RE.fullmatch(label.strip())
    if match is None or match.group(1) == "0000":
        raise ValueError(f"bad quarter label {label!r}, expected YYYYQN")
    return Quarter(int(match.group(1)), int(match.group(2)))


def quarter_of(ts: datetime) -> Quarter:
    """Calendar quarter containing a timestamp, evaluated in UTC.

    Naive datetimes are taken to already be UTC. Every call for one quarter
    returns the same object, so the articles of a corpus share one
    `Quarter` per quarter.
    """
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc)
    return _shared_quarter(ts.year, (ts.month - 1) // 3 + 1)


#: One `Quarter` per (year, index) seen: at most four a calendar year.
_shared_quarter = cache(Quarter)


def quarter_range(first: Quarter, last: Quarter) -> list[Quarter]:
    """All quarters from `first` through `last`, inclusive."""
    if last < first:
        raise ValueError(f"empty quarter range {first}..{last}")
    out = [first]
    while out[-1] < last:
        out.append(out[-1].next())
    return out
