"""Loaders, writers, and calendar-quarter bucketing."""

import copy
import json
import pickle
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest

from newsrisk import corpus, pricerows
from newsrisk.centrality import RankEntry
from newsrisk.corpus import (
    _CHUNK,
    INPUT,
    Article,
    EntityRecord,
    EntityUniverse,
    Kind,
    MarketCapTable,
    float_cell,
    format_table,
    load_articles,
    load_marketcaps,
    load_universe,
    read_table,
    write_articles,
)
from newsrisk.entities import OccurrenceSet
from newsrisk.errors import ValidationError
from newsrisk.fixtures import FixtureSpec, generate_fixture, write_fixture
from newsrisk.pipeline import RunConfig
from newsrisk.pricerows import (
    PRICE_COLUMNS,
    PriceSeries,
    PriceTable,
    Tickers,
    load_prices,
    plain_columns,
)
from newsrisk.quarters import Quarter, parse_quarter, quarter_of, quarter_range
from newsrisk.riskrank import PlayerSet, RiskDatapoint

from _oracles import (
    analysis_articles,
    articles_by_quarter,
    load_prices_by_row,
    scalar_series,
    traced_peak,
    write_marketcaps,
    write_prices,
    write_universe,
)


def art(i, ts, polarity="positive", body="nothing to see"):
    return Article(
        id=f"A{i}",
        published_at=datetime.fromisoformat(ts),
        author_id="AUTH01",
        polarity=polarity,
        title=f"note {i}",
        body=body,
    )


# -- quarters ---------------------------------------------------------------


def test_quarter_labels_and_dates():
    q = Quarter(2013, 4)
    assert q.label == "2013Q4"
    assert q.start_date == date(2013, 10, 1)
    assert q.end_date == date(2013, 12, 31)
    assert q.next() == Quarter(2014, 1)
    assert parse_quarter(" 2013Q4 ") == q
    assert parse_quarter("0001Q1") == Quarter(1, 1)
    assert str(q) == "2013Q4"


def test_quarter_ordering_and_range():
    assert Quarter(2011, 4) < Quarter(2012, 1)
    span = quarter_range(Quarter(2011, 3), Quarter(2012, 2))
    assert [q.label for q in span] == ["2011Q3", "2011Q4", "2012Q1", "2012Q2"]
    with pytest.raises(ValueError):
        quarter_range(Quarter(2012, 1), Quarter(2011, 4))
    with pytest.raises(ValueError):
        Quarter(2011, 5)
    with pytest.raises(ValueError):
        parse_quarter("2011-Q1")


@pytest.mark.parametrize(
    "label", ["0000Q4", "\u0662\u0660\u0661\u0661Q1", "2011Q\u0661", "12011Q1"]
)
def test_a_quarter_label_needs_a_calendar_year_of_ascii_digits(label):
    """Year 0000 has no dates, and a date cell holds only ASCII digits."""
    with pytest.raises(ValueError, match=r"^bad quarter label .*, expected YYYYQN$"):
        parse_quarter(label)


@pytest.mark.parametrize("year", [0, 10000])
def test_a_quarter_year_outside_the_calendar_is_refused(tmp_path, year):
    """A quarter has dates only in the years 1 to 9999, so a config cannot
    hold one outside them and fail later in its window."""
    with pytest.raises(ValueError, match=rf"^quarter year must be 1\.\.9999, got {year}$"):
        Quarter(year, 1)
    with pytest.raises(ValueError, match=rf"^quarter year must be 1\.\.9999, got {year}$"):
        RunConfig(*(tmp_path / name for name in ("a", "u", "p", "m", "out")),
                  first_quarter=Quarter(year, 4))
    assert Quarter(1, 1).start_date == date(1, 1, 1)
    assert Quarter(9999, 4).end_date == date(9999, 12, 31)


def test_quarter_of_boundaries():
    assert quarter_of(datetime(2011, 3, 31, 23, 59, 59)) == Quarter(2011, 1)
    assert quarter_of(datetime(2011, 4, 1, 0, 0, 0)) == Quarter(2011, 2)
    # timezone conversion happens before bucketing
    eastern = datetime.fromisoformat("2011-04-01T01:30:00+03:00")
    assert quarter_of(eastern) == Quarter(2011, 1)
    utc = datetime(2011, 4, 1, tzinfo=timezone.utc)
    assert quarter_of(utc) == Quarter(2011, 2)


# -- articles ---------------------------------------------------------------


def test_articles_round_trip(tmp_path):
    originals = [
        art(1, "2011-02-01T09:30:00+00:00"),
        art(2, "2012-07-15T16:00:00+02:00", polarity="negative"),
        art(3, "2016-06-30T23:59:00+00:00"),
    ]
    path = tmp_path / "articles.jsonl"
    assert write_articles(path, originals) == 3
    loaded = load_articles(path)
    assert [a.id for a in loaded] == ["A1", "A2", "A3"]
    for a, b in zip(loaded, originals):
        assert a.published_at == b.published_at
        assert a.published_at.tzinfo is not None
        assert a.polarity == b.polarity
        assert a.body == b.body
        assert a.in_window


def test_written_articles_are_the_lines_json_dumps_writes(tmp_path):
    texts = (
        "plain",
        'a "quote", a \\ and a /',
        "tab\t, breaks \n\r, controls \x00\x1f\x7f",
        "café Straße ı İ ſ K,   , 😀",
        "",
    )
    articles = [
        Article(f"A{i}", datetime(2011, 1, 2, 3, 4, 5, 6 * i, tzinfo=timezone(timedelta(hours=i))),
                text, "negative", text[::-1], text)
        for i, text in enumerate(texts)
    ]
    path = tmp_path / "articles.jsonl"
    assert write_articles(path, articles) == len(texts)
    expected = "".join(
        json.dumps({
            "id": a.id,
            "published_at": a.published_at.astimezone(timezone.utc).isoformat().replace("+00:00", "Z"),
            "author_id": a.author_id,
            "polarity": a.polarity,
            "title": a.title,
            "body": a.body,
        }, ensure_ascii=False) + "\n"
        for a in articles
    )
    assert path.read_bytes() == expected.encode("utf-8")


def test_articles_sorted_by_time_then_id(tmp_path):
    path = tmp_path / "articles.jsonl"
    write_articles(
        path,
        [
            art(2, "2011-02-01T10:00:00+00:00"),
            art(1, "2011-02-01T10:00:00+00:00"),
            art(3, "2011-01-15T10:00:00+00:00"),
        ],
    )
    loaded = load_articles(path)
    assert [a.id for a in loaded] == ["A3", "A1", "A2"]


def test_articles_window_flagging(tmp_path):
    path = tmp_path / "articles.jsonl"
    write_articles(
        path,
        [
            art(1, "2010-12-31T12:00:00+00:00"),
            art(2, "2011-01-01T00:00:00+00:00"),
            art(3, "2016-07-01T12:00:00+00:00"),
        ],
    )
    loaded = load_articles(path)
    assert [a.in_window for a in loaded] == [False, True, False]
    assert [a.id for a in analysis_articles(loaded)] == ["A2"]


def test_articles_malformed_line_number(tmp_path):
    path = tmp_path / "articles.jsonl"
    good = {
        "id": "A1",
        "published_at": "2011-02-01T09:30:00Z",
        "author_id": "x",
        "polarity": "positive",
        "title": "t",
        "body": "b",
    }
    path.write_text(json.dumps(good) + "\n" + "{broken\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"articles\.jsonl:2"):
        load_articles(path)


def test_articles_field_and_polarity_errors(tmp_path):
    path = tmp_path / "articles.jsonl"
    record = {
        "id": "A1",
        "published_at": "2011-02-01T09:30:00Z",
        "author_id": "x",
        "polarity": "positive",
        "title": "t",
        "body": "b",
    }
    missing = {k: v for k, v in record.items() if k != "title"}
    path.write_text(json.dumps(missing) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r":1: missing fields \['title'\]"):
        load_articles(path)

    bad_pol = dict(record, polarity="neutral")
    path.write_text(json.dumps(bad_pol) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="polarity"):
        load_articles(path)

    bad_ts = dict(record, published_at="yesterday")
    path.write_text(json.dumps(bad_ts) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="unparseable timestamp"):
        load_articles(path)


@pytest.mark.parametrize(
    "line", ["42", "null", json.dumps(" ".join(corpus.ARTICLE_FIELDS))], ids=["int", "null", "str"]
)
def test_articles_a_line_that_is_not_an_object_is_refused(tmp_path, line):
    path = tmp_path / "articles.jsonl"
    write_articles(path, [art(1, "2011-02-01T09:30:00+00:00")])
    path.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"^articles\.jsonl:2: record is not a JSON object$"):
        load_articles(path)


def test_articles_duplicate_id(tmp_path):
    path = tmp_path / "articles.jsonl"
    write_articles(
        path, [art(1, "2011-02-01T09:30:00+00:00"), art(2, "2011-02-02T09:30:00+00:00")]
    )
    lines = path.read_text().splitlines()
    lines.append(lines[0])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r":3: duplicate article id 'A1'"):
        load_articles(path)


def test_articles_with_a_byte_order_mark_load(tmp_path):
    """A byte-order mark before the first record is skipped, and lines are
    counted as without it, also the line of a byte that is not UTF-8."""
    plain, marked = tmp_path / "plain.jsonl", tmp_path / "articles.jsonl"
    write_articles(
        plain, [art(1, "2011-02-01T09:30:00+00:00"), art(2, "2011-02-02T09:30:00+00:00")]
    )
    bom = "\ufeff".encode("utf-8")
    marked.write_bytes(bom + plain.read_bytes())
    assert load_articles(marked) == load_articles(plain)
    marked.write_bytes(bom + plain.read_bytes() + b"{broken\n")
    with pytest.raises(ValidationError, match=r"^articles\.jsonl:3: malformed record"):
        load_articles(marked)
    marked.write_bytes(bom + plain.read_bytes() + b'{"id": "\xff"}\n')
    with pytest.raises(
        ValidationError, match=r"^articles\.jsonl:3: has byte 0xff, which is not UTF-8"
    ):
        load_articles(marked)


def test_articles_by_quarter_groups_sorted():
    arts = [
        art(1, "2011-05-01T09:00:00+00:00"),
        art(2, "2011-02-01T09:00:00+00:00"),
        art(3, "2011-04-02T09:00:00+00:00"),
    ]
    grouped = articles_by_quarter(arts)
    assert [q.label for q in grouped] == ["2011Q1", "2011Q2"]
    assert [a.id for a in grouped[Quarter(2011, 2)]] == ["A1", "A3"]


# -- the per-item records ---------------------------------------------------


RECORDS = [
    art(1, "2011-02-01T09:30:00+00:00"),
    EntityRecord("APPLE", "Apple Inc.", "AAPL", "NASDAQ", ("Apple Inc.",), ("AAPL", "AAPLB")),
    OccurrenceSet("A1", Quarter(2011, 1), "positive", frozenset({"APPLE", "IBM"})),
    PlayerSet("APPLE", ("APPLE", "IBM"), {"APPLE": 0.5, "IBM": 0.5}, {}),
    RiskDatapoint("APPLE", Quarter(2011, 1), 0.5, 0.25, 0.125, 0.0, 0.375),
    RankEntry("APPLE", 1.5, 2),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_have_slots_and_copy_pickle_and_replace(record):
    """The records held per article, company or datapoint carry no instance
    dict, and still copy, pickle and `replace` as frozen dataclasses do."""
    assert not hasattr(record, "__dict__")
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    name = fields(record)[0].name
    changed = replace(record, **{name: "OTHER"})
    assert getattr(changed, name) == "OTHER"
    assert changed != record and replace(changed, **{name: getattr(record, name)}) == record
    with pytest.raises(FrozenInstanceError):
        setattr(record, name, "OTHER")


# -- universe ---------------------------------------------------------------


UNIVERSE_CSV = """\
canonical_id,display_name,primary_ticker,exchange,name_variants,merged_tickers
ACME,Acme Industrial Corp,ACME,NYSE,Acme Industrial Corp|Acme Industrial,
BOLT,Bolt Works Inc,BOLT,NASDAQ,Bolt Works Inc,BLTW
"""


def test_universe_loading_and_lookup(tmp_path):
    path = tmp_path / "universe.csv"
    path.write_text(UNIVERSE_CSV, encoding="utf-8")
    uni = load_universe(path)
    assert len(uni) == 2
    assert uni.ids() == ("ACME", "BOLT")
    rec = uni.records.get("BOLT")
    assert rec.merged_tickers == ("BOLT", "BLTW")
    assert uni.ticker_to_id["BLTW"] == "BOLT"
    assert uni.variant_to_id["acme industrial"] == "ACME"
    assert "ACME" in uni.records and "NOPE" not in uni.records


def test_universe_share_class_rows_merge(tmp_path):
    csv_text = UNIVERSE_CSV + "ACME,Acme Industrial Corp Class B,ACME.B,NYSE,Acme Class B,\n"
    path = tmp_path / "universe.csv"
    path.write_text(csv_text, encoding="utf-8")
    uni = load_universe(path)
    assert len(uni) == 2
    rec = uni.records.get("ACME")
    assert rec.primary_ticker == "ACME"
    assert set(rec.merged_tickers) == {"ACME", "ACME.B"}
    assert "Acme Class B" in rec.name_variants
    # round trip through the writer keeps one row per share class ticker
    out = tmp_path / "roundtrip.csv"
    write_universe(out, uni)
    again = load_universe(out)
    assert again.records.get("ACME").merged_tickers == rec.merged_tickers


def test_universe_validation_errors(tmp_path):
    path = tmp_path / "universe.csv"
    path.write_text(
        UNIVERSE_CSV.replace("ACME,Acme Industrial Corp,ACME", ",Acme Industrial Corp,ACME"),
        encoding="utf-8",
    )
    with pytest.raises(ValidationError, match=":2: empty canonical_id"):
        load_universe(path)

    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="expected columns"):
        load_universe(path)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("ACME,Acme\n", ":2: expected 6 fields, got 2"),
        ("ACME,Acme,ACME,NYSE,Acme,,ACX\n", ":2: expected 6 fields, got 7"),
        ("ACME,Acme,,NYSE,Acme,\n", ":2: empty primary_ticker"),
        ("ACME,Acme,ACME,NYSE, | ,\n", ":2: empty name_variants for 'ACME'"),
        # blank lines and the lines of a quoted cell count
        ("ACME,Acme,ACME,NYSE,Acme,\n\n,Bolt,BOLT,NYSE,Bolt,\n", ":4: empty canonical_id"),
        ('ACME,"Acme\nIndustrial",ACME,NYSE,Acme,\n,Bolt,BOLT,NYSE,Bolt,\n',
         ":4: empty canonical_id"),
        ('ACME,"Acme, Inc",ACME,NYSE,Acme,\nBOLT,Bolt\n', ":3: expected 6 fields, got 2"),
        # two faults: the one on the earlier line is reported
        ("ACME,Acme,ACME,NYSE,,\nBOLT,Bolt\n", ":2: empty name_variants for 'ACME'"),
        ("ACME,Acme\n,Bolt,BOLT,NYSE,Bolt,\n", ":2: expected 6 fields, got 2"),
        (",Acme,,NYSE,,\n", ":2: empty canonical_id"),
    ],
)
def test_universe_reports_the_first_faulty_line(tmp_path, rows, message):
    path = tmp_path / "universe.csv"
    path.write_text(UNIVERSE_CSV.splitlines()[0] + "\n" + rows, encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^universe.csv{message}$"):
        load_universe(path)


@pytest.mark.parametrize(
    "rows, message",
    [("ACME,Acme\n", ":4: expected 6 fields, got 2"),
     (",Cog,COG,NYSE,Cog,\n", ":4: empty canonical_id")],
)
def test_universe_with_a_byte_order_mark_loads(tmp_path, rows, message):
    """Spreadsheets save "CSV UTF-8" with a byte-order mark. It is not part
    of the first column's name, and a faulty line is counted as without it."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "universe.csv"
    plain.write_text(UNIVERSE_CSV, encoding="utf-8")
    marked.write_text(UNIVERSE_CSV, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_universe(marked).records == load_universe(plain).records
    marked.write_text(UNIVERSE_CSV + rows, encoding="utf-8-sig")
    with pytest.raises(ValidationError, match=f"^universe.csv{message}$"):
        load_universe(marked)


def test_universe_ticker_claimed_twice():
    records = [
        EntityRecord("A", "Aco", "TICK", "NYSE", ("Aco",), ("TICK",)),
        EntityRecord("B", "Bco", "TICK", "NYSE", ("Bco",), ("TICK",)),
    ]
    with pytest.raises(ValidationError, match="claimed by both"):
        EntityUniverse(records)


def test_universe_duplicate_variant_and_id():
    with pytest.raises(ValidationError, match="name variant"):
        EntityUniverse(
            [
                EntityRecord("A", "Same Name", "AAA", "NYSE", ("Same Name",), ("AAA",)),
                EntityRecord("B", "Same  name", "BBB", "NYSE", ("Same  name",), ("BBB",)),
            ]
        )
    with pytest.raises(ValidationError, match="duplicate canonical_id"):
        EntityUniverse(
            [
                EntityRecord("A", "One", "AAA", "NYSE", ("One",), ("AAA",)),
                EntityRecord("A", "Two", "BBB", "NYSE", ("Two",), ("BBB",)),
            ]
        )


# -- prices -----------------------------------------------------------------


def series(key, start, closes):
    days = []
    d = start
    while len(days) < len(closes):
        if d.weekday() < 5:
            days.append(d)
        d += date.resolution
    return PriceSeries(key=key, dates=tuple(days), closes=tuple(closes))


def test_price_series_on_or_before():
    # the reference lookup the backtest oracle uses, over a package series
    s = scalar_series(series("X", date(2011, 3, 28), [10.0, 11.0, 12.0, 13.0, 14.0]))
    assert s.on_or_before(date(2011, 3, 30)) == (date(2011, 3, 30), 12.0)
    # april 2nd 2011 is a saturday: falls back to friday's close
    assert s.on_or_before(date(2011, 4, 2)) == (date(2011, 4, 1), 14.0)
    assert s.on_or_before(date(2011, 3, 27)) is None


def test_prices_round_trip_and_rekeying(tmp_path):
    table = PriceTable(
        [
            series("ACME", date(2011, 1, 3), [50.0, 50.5]),
            series("BLTW", date(2011, 1, 3), [8.0, 8.1]),
            series("UNKNOWN", date(2011, 1, 3), [1.0, 2.0]),
        ]
    )
    path = tmp_path / "prices.csv"
    assert write_prices(path, table) == 6

    plain = load_prices(path)
    assert set(plain.series) == {"ACME", "BLTW", "UNKNOWN"}
    assert plain.get("ACME").closes.tolist() == [50.0, 50.5]

    uni = EntityUniverse(
        [
            EntityRecord("ACME", "Acme Corp", "ACME", "NYSE", ("Acme Corp",), ("ACME",)),
            EntityRecord("BOLT", "Bolt Inc", "BOLT", "NYSE", ("Bolt Inc",), ("BOLT", "BLTW")),
        ]
    )
    rekeyed = load_prices(path, uni)
    # BLTW resolves to its canonical id, the unknown ticker is left out
    assert set(rekeyed.series) == {"ACME", "BOLT"}
    assert rekeyed.get("BOLT").closes.tolist() == [8.0, 8.1]


def test_prices_primary_series_wins(tmp_path):
    path = tmp_path / "prices.csv"
    table = PriceTable(
        [
            series("AAA", date(2011, 1, 3), [10.0]),
            series("AAB", date(2011, 1, 3), [99.0]),
        ]
    )
    write_prices(path, table)
    uni = EntityUniverse(
        [EntityRecord("CO", "Co Inc", "AAB", "NYSE", ("Co Inc",), ("AAB", "AAA"))]
    )
    loaded = load_prices(path, uni)
    # AAA sorts first but AAB is the primary ticker, so AAB's series is kept
    assert loaded.get("CO").closes.tolist() == [99.0]


def test_prices_validation(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text(
        "ticker,date,adjusted_close\nX,2011-01-04,10.0\nX,2011-01-03,11.0\n",
        encoding="utf-8",
    )
    with pytest.raises(ValidationError, match="not strictly increasing"):
        load_prices(path)

    path.write_text("ticker,date,adjusted_close\nX,2011-13-01,10.0\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=":2: bad date"):
        load_prices(path)

    path.write_text("ticker,date,adjusted_close\nX,2011-01-03,zero\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=":2: bad price"):
        load_prices(path)

    path.write_text("ticker,date,adjusted_close\nX,2011-01-03,-4\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="non-positive price"):
        load_prices(path)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("X,2011-01-03\n", ":2: expected 3 fields, got 2"),
        ("X,2011-01-03,10.0,11.0\n", ":2: expected 3 fields, got 4"),
        ("X,2011-01-03,10.0\nX\n", ":3: expected 3 fields, got 1"),
        ("X,2011-01-03,nan\n", ":2: bad price nan for X"),
        ("X,2011-01-03,10.0\nX,2011-01-04,inf\n", ":3: bad price inf for X"),
        ("X,2011-01-03,-Infinity\n", ":2: bad price -inf for X"),
        # blank lines are skipped, and still counted
        ("\nX,2011-01-03,0\n", ":3: non-positive price 0.0 for X"),
        # two faults: the one on the earlier line is reported
        ("X,2011-01-03,nan\nX,2011-01-04\n", ":2: bad price nan"),
        ("X,2011-01-04,1\nX,2011-01-03,1\nY,2011-13-01,1\n", ":3: dates for X not strictly"),
        ("Y,2011-01-03,1\nX,2011-01-05,1\nY,2011-01-04,0\nX,2011-01-04,2\n",
         ":4: non-positive price 0.0 for Y"),
        ("Y,2011-01-03,1\nX,2011-01-05,1\nX,2011-01-04,2\nY,2011-01-04,0\n",
         ":4: dates for X not strictly"),
        ("X,2011-01-03,1\nX,2011-01-03,-1\n", ":3: non-positive price -1.0"),
        ("Y,2011-01-03,1\nY,2011-01-03,1\nX,2011-01-03,zero\n", ":3: dates for Y not strictly"),
        ("X,2011-01-03,0\nY,2011-01-03,1,\n", ":2: non-positive price"),
        ("X,2011-01-03,0\nX,2011-01-04,nan\n", ":2: non-positive price 0.0"),
        ("Y,2011-01-04,1\nX,2011-01-04,1\nX,2011-01-03,1\nY,2011-01-03,1\n",
         ":4: dates for X not strictly"),
        # dates are YYYY-MM-DD only, whatever `date.fromisoformat` accepts
        ("X,20110103,1\n", ":2: bad date '20110103'"),
        ("X,2011-W01-1,1\n", ":2: bad date '2011-W01-1'"),
        ("X,2011-01-03,1\nX,2011-01-0٤,1\n", ":3: bad date '2011-01-0٤'"),
        # closes follow numpy's float syntax, not `float()`'s
        ("X,2011-01-03,1\nX,2011-01-04,1_0\n", ":3: bad price '1_0'"),
        ("X,2011-01-03,٤\n", ":2: bad price '٤'"),
        ("X,2011-01-03,1\n   \nX,2011-01-04,1\n", ":3: expected 3 fields, got 1"),
    ],
)
def test_prices_report_the_first_faulty_line(tmp_path, rows, message):
    path = tmp_path / "prices.csv"
    path.write_text("ticker,date,adjusted_close\n" + rows, encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^prices.csv{message}"):
        load_prices(path)


@pytest.mark.parametrize(
    "rows, message",
    [("X,2011-01-05\n", ":4: expected 3 fields, got 2"),
     ("X,2011-01-05,0\n", ":4: non-positive price 0.0 for X")],
)
def test_prices_with_a_byte_order_mark_load(tmp_path, rows, message):
    """A byte-order mark is not part of the `ticker` column's name, and a
    faulty line is counted as without it."""
    text = "ticker,date,adjusted_close\nX,2011-01-03,1.5\nX,2011-01-04,2\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "prices.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert scalar_series(load_prices(marked).get("X")) == scalar_series(load_prices(plain).get("X"))
    marked.write_text(text + rows, encoding="utf-8-sig")
    with pytest.raises(ValidationError, match=f"^prices.csv{message}$"):
        load_prices(marked)


def test_a_cell_past_the_csv_field_limit_names_its_line(tmp_path):
    """numpy reads a cell longer than `csv.field_size_limit()`; when the file
    has a fault, the row-by-row scan that names it stops at that cell's line
    with a ValidationError, not a bare `csv.Error`."""
    path = tmp_path / "prices.csv"
    long_row = "T" * 200_000 + ",2011-01-03,1\n"
    path.write_text("ticker,date,adjusted_close\n" + long_row, encoding="utf-8")
    assert len(load_prices(path)) == 1
    path.write_text(
        "ticker,date,adjusted_close\n" + long_row + "X,2011-01-03,0\n", encoding="utf-8"
    )
    with pytest.raises(ValidationError, match=r"^prices\.csv:2: field larger than field limit"):
        load_prices(path)


def test_prices_match_the_row_loader(tmp_path):
    """Interleaved tickers, share classes and loose cells load as the
    row-at-a-time reference loads them."""
    rng = np.random.default_rng(5)
    tickers = ["AAA", "AAB", "BBB", "CCA", "CCB", "RAW", "ONE"]
    sizes = {"ONE": 1}
    pending = {}
    for t in tickers:
        n = sizes.get(t, int(rng.integers(2, 60)))
        days = sorted(rng.choice(400, size=n, replace=False).tolist())
        pending[t] = [
            (date(2011, 1, 3) + timedelta(days=d), float(rng.lognormal(3.0, 1.0)))
            for d in days
        ]
    cells = [
        lambda c: repr(c),
        lambda c: f" {c:.2f}",
        lambda c: f"{c:e}",
        lambda c: str(int(c) + 1),
    ]
    lines = ["ticker,date,adjusted_close"]
    while pending:
        t = str(rng.choice(sorted(pending)))
        day, close = pending[t].pop(0)
        if not pending[t]:
            del pending[t]
        ticker = f" {t} " if rng.random() < 0.2 else t
        stamp = f"{day.isoformat()} " if rng.random() < 0.2 else day.isoformat()
        lines.append(f"{ticker},{stamp},{cells[int(rng.integers(len(cells)))](close)}")
    path = tmp_path / "prices.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    uni = EntityUniverse(
        [
            EntityRecord("A", "A Co", "AAB", "NYSE", ("A Co",), ("AAB", "AAA")),
            EntityRecord("B", "B Co", "BBB", "NYSE", ("B Co",), ("BBB",)),
            EntityRecord("C", "C Co", "CCX", "NYSE", ("C Co",), ("CCX", "CCB", "CCA")),
            EntityRecord("O", "O Co", "ONE", "NYSE", ("O Co",), ("ONE",)),
        ]
    )
    for universe in (None, uni):
        loaded = load_prices(path, universe)
        expected = load_prices_by_row(path, universe)
        assert list(loaded.series) == list(expected)
        for key, reference in expected.items():
            assert scalar_series(loaded.get(key)) == reference, key
    assert set(load_prices(path, uni).series) == {"A", "B", "C", "O"}


def test_an_unknown_ticker_named_like_a_company_takes_no_series(tmp_path):
    """A ticker the universe does not know keys no series, even when it
    equals the id of a company whose own ticker has prices."""
    path = tmp_path / "prices.csv"
    path.write_text(
        "ticker,date,adjusted_close\n"
        "ALP,2011-01-03,10.0\nALP,2011-01-04,11.0\n"
        "ZZZ,2011-01-03,999.0\nZZZ,2011-01-04,999.0\n",
        encoding="utf-8",
    )
    uni = EntityUniverse([EntityRecord("ZZZ", "Zed Co", "ALP", "NYSE", ("Zed Co",), ("ALP",))])
    series = load_prices(path, uni).series
    assert list(series) == ["ZZZ"]
    assert series["ZZZ"].closes.tolist() == [10.0, 11.0]
    assert set(load_prices(path).series) == {"ALP", "ZZZ"}


def _load_prices_strictly(path, universe=None):
    """`load_prices` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return load_prices(path, universe)


def _assert_loads_like_the_row_loader(path, universe=None):
    loaded = _load_prices_strictly(path, universe)
    expected = load_prices_by_row(path, universe)
    assert list(loaded.series) == list(expected)
    for key, reference in expected.items():
        assert scalar_series(loaded.get(key)) == reference, key
    return loaded


@pytest.mark.parametrize(
    "body, keys",
    [
        ("X,2011-01-03,1.5\r\nY,2011-01-03,2\r\n\r\nX,2011-01-04,1.75\r\n", ["X", "Y"]),
        ("X,2011-01-03,1.5\rY,2011-01-03,2\r\rX,2011-01-04,1.75\r", ["X", "Y"]),
        ('"A,""B",2011-01-03,1.5\nX,2011-01-03,2\n"A,""B",2011-01-04,3\n', ['A,"B', "X"]),
        ("ABCDEFGHIJKLMNOPQRSTUVWXYZ,2011-01-03,1\n", ["ABCDEFGHIJKLMNOPQRSTUVWXYZ"]),
        ("#X,2011-01-03,1\n#X,2011-01-04,2\n", ["#X"]),
        ("", []),
        ("\n\n", []),
        (" Ünï ,2011-01-03 , 4.5 \n", ["Ünï"]),
    ],
    ids=[
        "crlf", "cr-only", "quoted", "long-ticker", "hash-ticker", "header-only", "blank-only",
        "loose",
    ],
)
def test_prices_parse_cells_as_the_row_loader_does(tmp_path, body, keys):
    path = tmp_path / "prices.csv"
    path.write_bytes(("ticker,date,adjusted_close\n" + body).encode("utf-8"))
    assert list(_assert_loads_like_the_row_loader(path).series) == keys


#: What follows the header of a good price file, for each way a row can end:
#: a line feed, a lone carriage return, CR LF, line breaks inside quoted
#: cells, or the end of the file.
ROW_ENDS = {
    "lone-cr": "\rX,2011-01-03,1.5\rY,2011-01-03,2\r\rX,2011-01-04,1.75\r",
    "crlf": "\r\nX,2011-01-03,1.5\r\nY,2011-01-03,2\r\n\r\nX,2011-01-04,1.75\r\n",
    "mixed": "\r\nX,2011-01-03,1.5\rX,2011-01-04,2\nX,2011-01-05,2\r\n",
    "quoted-breaks": '\n"A\nB",2011-01-03,1.5\n"C\rD",2011-01-03,2\r\n"E\r\nF",2011-01-03,3\n'
                     '"A\nB",2011-01-04,4\n',
    "no-final-newline": "\nX,2011-01-03,1.5\nX,2011-01-04,2",
    "one-row-no-newline": "\nX,2011-01-03,1.5",
    "header-no-newline": "",
    "blank-lines-only": "\n\r\n\r\n\n",
}


@pytest.mark.parametrize("chunk", [1, 512])
@pytest.mark.parametrize("rest", ROW_ENDS.values(), ids=ROW_ENDS)
def test_the_row_bound_keeps_good_files_on_the_fast_path(tmp_path, monkeypatch, rest, chunk):
    """The columns are sized by a count of line feeds and carriage returns;
    a file with more rows would be read again by the row scan. numpy reads
    each of these files, and they load as the row-at-a-time loader loads
    them."""
    monkeypatch.setattr(corpus, "_CHUNK", chunk)
    path = tmp_path / "prices.csv"
    path.write_bytes(("ticker,date,adjusted_close" + rest).encode("utf-8"))
    kinds = {"ticker": Kind(str.strip), "date": Kind(str.strip),
             "adjusted_close": Kind(float_cell, dtype=np.float64)}
    assert read_table(path, kinds, INPUT).ends is None
    _assert_loads_like_the_row_loader(path)


def _write_wide_prices(path, tickers, n_days):
    """A price file grouped by ticker, `n_days` closes for each ticker."""
    days = np.datetime_as_string(np.datetime64("2011-01-03") + np.arange(n_days)).tolist()
    closes = np.random.default_rng(3).lognormal(3.0, 1.0, len(tickers) * n_days)
    rows = [ticker for ticker in tickers for _ in days]
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.writelines(format_table(PRICE_COLUMNS, [(rows, days * len(tickers), closes)]))


def test_loading_grouped_prices_holds_little_more_than_the_series(tmp_path):
    """A file grouped by ticker is read into columns sized once, and its
    series are views of them, so loading it peaks at less than 1.7 times
    the bytes of the series' arrays."""
    path = tmp_path / "prices.csv"
    _write_wide_prices(path, [f"T{i:03d}" for i in range(200)], 500)
    prices, peak = traced_peak(load_prices, path)
    held = sum(s.dates.nbytes + s.closes.nbytes for s in prices.series.values())
    assert held == 16 * 100_000
    assert peak <= 1.7 * held, peak / held


def _listing(tickers):
    """A universe of one company per ticker."""
    return EntityUniverse(
        EntityRecord(f"C{t}", f"{t} Co", t, "NYSE", (f"{t} Co",), (t,)) for t in tickers
    )


#: A fresh interpreter's peak RSS growth, in bytes, while it loads the price
#: file `argv[2]` for the tickers `argv[3:]`, after one load of the small
#: file `argv[1]`. It reads the kernel's counts for this process's memory:
#: `ru_maxrss` would also count the parent's RSS at the fork. The growth
#: counts from the RSS before the load, not from the high-water mark, so no
#: earlier peak hides any of it.
_RSS_PROBE = """
import sys
from newsrisk.corpus import EntityRecord, EntityUniverse
from newsrisk.pricerows import load_prices
def kib(field):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith(field))
small, path, tickers = sys.argv[1], sys.argv[2], sys.argv[3:]
universe = EntityUniverse(EntityRecord(t, t, t, "NYSE", (t,), (t,)) for t in tickers)
load_prices(small, universe)
before = kib("VmRSS:")
prices = load_prices(path, universe)
print((kib("VmHWM:") - before) * 1024)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_loading_prices_for_some_tickers_holds_their_series_and_one_chunk(tmp_path):
    """With a universe that lists 10 of 200 tickers, every row is checked but
    only theirs are held. The columns are reserved at the file's row bound,
    which tracemalloc counts whole, but only the kept rows are written to
    them, and pages never written take no memory: the peak RSS of a fresh
    interpreter grows by little more than the kept series and one chunk,
    where holding every row would take 2 MB."""
    tickers = [f"T{i:03d}" for i in range(200)]
    path = tmp_path / "prices.csv"
    _write_wide_prices(path, tickers, 500)
    listed = tickers[::20]
    prices = load_prices(path, _listing(listed))
    held = sum(s.dates.nbytes + s.closes.nbytes for s in prices.series.values())
    assert sorted(prices.series) == [f"C{t}" for t in listed]
    assert held == 16 * 5_000

    small = tmp_path / "small.csv"
    _write_wide_prices(small, listed[:1], 20)
    probe = [sys.executable, "-c", _RSS_PROBE, str(small), str(path), *listed]
    grown = int(subprocess.run(probe, capture_output=True, text=True, check=True).stdout)
    assert grown <= held + 500 * _CHUNK, grown


@pytest.mark.parametrize("rows", [1024, 1029])
def test_prices_spanning_several_chunks_load_as_the_row_loader_does(tmp_path, monkeypatch, rows):
    """Interleaved tickers over three 512-row parse chunks, the last full or
    not, with blank lines after the last row."""
    monkeypatch.setattr(corpus, "_CHUNK", 512)
    tickers = ["AAA", "AAB", "BBB"]
    lines = ["ticker,date,adjusted_close"]
    for i in range(rows):
        day = date(2011, 1, 3) + timedelta(days=i // len(tickers))
        lines.append(f"{tickers[i % len(tickers)]},{day.isoformat()},{1.0 + i / 7}")
    path = tmp_path / "prices.csv"
    path.write_text("\n".join(lines) + "\n\n\n", encoding="utf-8")
    uni = EntityUniverse(
        [EntityRecord("A", "A Co", "AAB", "NYSE", ("A Co",), ("AAB", "AAA"))]
    )
    for universe in (None, uni):
        _assert_loads_like_the_row_loader(path, universe)
    assert len(_load_prices_strictly(path).get("BBB").dates) == -(-(rows - 2) // 3)


def test_price_cells_follow_numpy_float_syntax(tmp_path):
    """A close loads exactly when numpy's parser reads it, to the same value;
    otherwise the error names the line."""
    rng = np.random.default_rng(8)
    alphabet = list("0123456789.eE+-_ ") + ["nan", "inf", "Infinity", "x", " ", "٤", "\t"]
    cells = ["1_0", " 2.5 ", "+.5", "5.", "1e5", "0x10", "-0", "1e400", "", "  "]
    cells += ["".join(rng.choice(alphabet, size=int(rng.integers(1, 6)))) for _ in range(300)]
    path = tmp_path / "prices.csv"
    for cell in cells:
        try:
            value = float(np.loadtxt([f"{cell},1"], delimiter=",", comments=None, ndmin=2)[0, 0])
        except ValueError:
            value = None
        path.write_text(f"ticker,date,adjusted_close\nX,2011-01-03,{cell}\n", encoding="utf-8")
        if value is not None and np.isfinite(value) and value > 0:
            assert _load_prices_strictly(path).get("X").closes.tolist() == [value], cell
        else:
            with pytest.raises(ValidationError, match="^prices.csv:2: "):
                _load_prices_strictly(path)


@pytest.mark.parametrize("chunk", [1, 512])
def test_the_row_scan_reads_what_numpy_reads(tmp_path, monkeypatch, chunk):
    """Wherever numpy's parser reads a file, the row-by-row scan that names
    faults reads the same rows from it and finds none: stray and doubled
    quotes, line breaks inside and outside quoted cells, and blank lines."""
    monkeypatch.setattr(corpus, "_CHUNK", chunk)
    rng = np.random.default_rng(21)
    alphabet = ["a", "b", ",", '"', '""', "\r", "\n", "\r\n", " ", "\t", "é", "#"]
    kinds = {"x": Kind(str), "y": Kind(str)}
    path = tmp_path / "cells.csv"
    read_by_numpy = 0
    for _ in range(3000):
        body = "".join(rng.choice(alphabet, size=int(rng.integers(0, 16))))
        path.write_bytes(("x,y\n" + body).encode("utf-8"))
        table = read_table(path, kinds, INPUT)
        if table.ends is None:  # numpy read every row
            read_by_numpy += 1
            scan = corpus._scan(path, kinds, INPUT)
            assert (scan.fault, scan) == (None, table), body
    assert read_by_numpy > 300


#: One fault of each kind, planted in place of a (ticker, date, close) row.
#: Each returns the new line and the message expected for it.
PLANTED_FAULTS = {
    "fields": lambda t, d, c, prev: (f"{t},{d}", "expected 3 fields, got 2"),
    "date": lambda t, d, c, prev: (f"{t},{d.replace('-', '')},{c}", f"bad date {d.replace('-', '')!r}"),
    "price": lambda t, d, c, prev: (f"{t},{d},1_0", "bad price '1_0'"),
    "non-finite": lambda t, d, c, prev: (f"{t},{d},-inf", f"bad price -inf for {t}"),
    "infinite": lambda t, d, c, prev: (f"{t},{d},inf", f"bad price inf for {t}"),
    "non-positive": lambda t, d, c, prev: (f"{t},{d},-{c}", f"non-positive price -{c} for {t}"),
    "date-order": lambda t, d, c, prev: (f"{t},{prev},{c}", f"dates for {t} not strictly increasing"),
}


def _assert_planted_faults_name_the_earliest_line(path, source, universe, seed, trials):
    """Plant one or two faults in copies of the price file's `source` lines,
    each in a row whose ticker has a row before it, so that a date-order
    fault can be planted, and check that loading each copy for `universe`
    names the earliest faulty line. Returns the ticker of each of those
    lines."""
    before: dict[int, int] = {}  # row index -> the index of its ticker's row before it
    latest: dict[str, int] = {}
    for index in range(1, len(source)):
        ticker = source[index].split(",")[0]
        if ticker in latest:
            before[index] = latest[ticker]
        latest[ticker] = index
    rng = np.random.default_rng(seed)
    earliest = []
    for trial in range(trials):
        lines = list(source)
        planted = {}
        for index in rng.choice(sorted(before), size=1 + trial % 2, replace=False).tolist():
            kind = str(rng.choice(sorted(PLANTED_FAULTS)))
            ticker, day, close = lines[index].split(",")
            previous_day = source[before[index]].split(",")[1]
            lines[index], message = PLANTED_FAULTS[kind](ticker, day, close, previous_day)
            planted[index + 1] = message
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        line = min(planted)
        earliest.append(source[line - 1].split(",")[0])
        with pytest.raises(ValidationError) as caught:
            _load_prices_strictly(path, universe)
        assert str(caught.value) == f"prices.csv:{line}: {planted[line]}", planted
    return earliest


def test_planted_price_faults_report_the_earliest_line(tmp_path, small_fixture_dir):
    source = (small_fixture_dir / "prices.csv").read_text(encoding="utf-8").splitlines()
    _assert_planted_faults_name_the_earliest_line(tmp_path / "prices.csv", source, None, 13, 24)


def _interleaved(lines):
    """A price file's header, then its rows sorted by date, then ticker, so
    that every ticker interleaves with the others."""
    header, *rows = lines
    return [header, *sorted(rows, key=lambda row: row.split(",")[1::-1])]


def _some_companies(small_fixture_dir):
    """The small fixture's universe without every other company, keeping the
    one with two share classes."""
    companies = list(load_universe(small_fixture_dir / "universe.csv"))
    return EntityUniverse(
        c for k, c in enumerate(companies) if k % 2 == 0 or len(c.merged_tickers) > 1
    )


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("layout", ["grouped", "interleaved"])
def test_prices_for_some_companies_match_the_row_loader(
    tmp_path, monkeypatch, small_fixture_dir, layout, chunk
):
    """The rows of the tickers the universe lists load as the row-at-a-time
    loader loads them, and no others are held."""
    monkeypatch.setattr(corpus, "_CHUNK", chunk)
    lines = (small_fixture_dir / "prices.csv").read_text(encoding="utf-8").splitlines()
    path = tmp_path / "prices.csv"
    path.write_text("\n".join(lines if layout == "grouped" else _interleaved(lines)) + "\n",
                    encoding="utf-8")
    universe = _some_companies(small_fixture_dir)
    loaded = _assert_loads_like_the_row_loader(path, universe)
    assert set(loaded.series) == set(universe.ids())
    rows = sum(len(s.dates) for s in loaded.series.values())
    listed = sum(line.split(",")[0] in universe.ticker_to_id for line in lines[1:])
    assert rows <= listed < len(lines) - 1


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("layout", ["grouped", "interleaved"])
def test_planted_faults_in_rows_left_out_report_the_earliest_line(
    tmp_path, monkeypatch, small_fixture_dir, layout, chunk
):
    """The rows of a ticker the universe does not list are checked before
    they are left out: the earliest faulty line is named, whichever ticker
    it holds, in a file grouped by ticker or interleaved, at any chunk
    size."""
    monkeypatch.setattr(corpus, "_CHUNK", chunk)
    source = (small_fixture_dir / "prices.csv").read_text(encoding="utf-8").splitlines()
    if layout == "interleaved":
        source = _interleaved(source)
    universe = _some_companies(small_fixture_dir)
    earliest = _assert_planted_faults_name_the_earliest_line(
        tmp_path / "prices.csv", source, universe, 17, 21
    )
    assert sum(ticker not in universe.ticker_to_id for ticker in earliest) >= 4


def _outcome(path, universe=None):
    """What `load_prices` gives for a file: each series by key, as scalars,
    or the message of the error it raises."""
    try:
        loaded = _load_prices_strictly(path, universe)
    except ValidationError as exc:
        return str(exc)
    return {key: scalar_series(series) for key, series in loaded.series.items()}


def _assert_loads_as_the_reader_route(path, monkeypatch, plain, universe=None):
    """`load_prices` gives the series or the error that the `read_table`
    route gives, and the byte route reads the file exactly when it is
    `plain`. Returns the outcome."""
    known = None if universe is None else universe.ticker_to_id
    read = plain_columns(path, Tickers(known))
    assert (read is not None) == plain
    outcome = _outcome(path, universe)
    with monkeypatch.context() as patched:
        patched.setattr(pricerows, "plain_columns", lambda *args: None)
        assert _outcome(path, universe) == outcome
    return outcome


#: Rows at the edges of what the byte route reads: whether it reads them, and
#: the error they raise, if any.
BYTE_ROUTE_EDGES = {
    "leap-days": ("X,2000-02-29,1\nX,2012-02-28,1\nX,2012-02-29,2\nX,2012-03-01,3\n", True, None),
    "not-leap-2011": ("X,2011-02-28,1\nX,2011-02-29,2\n", False, ":3: bad date '2011-02-29'"),
    "not-leap-1900": ("X,1900-02-28,1\nX,1900-02-29,2\n", False, ":3: bad date '1900-02-29'"),
    "calendar-ends": ("X,0001-01-01,1\nX,9999-12-31,2\n", True, None),
    "year-0": ("X,0000-01-01,1\n", False, ":2: bad date '0000-01-01'"),
    "close-forms": ("X,2011-01-03,1.\nX,2011-01-04,.5\nX,2011-01-05,00012.50\n", True, None),
    "zero-close": ("X,2011-01-03,1\nX,2011-01-04,0.000\n", False,
                   ":3: non-positive price 0.0 for X"),
    "300-byte-closes": (f"X,2011-01-03,{'9' * 300}\nX,2011-01-04,0.{'0' * 297}1\n", True, None),
    "301-byte-close": (f"X,2011-01-03,{'9' * 301}\n", False, None),
    "exponent": ("X,2011-01-03,1e3\n", False, None),
    "crlf": ("X,2011-01-03,1.5\r\nY,2011-01-03,2\r\nX,2011-01-04,3\r\n", True, None),
    "no-final-newline": ("X,2011-01-03,1.5\nX,2011-01-04,2", True, None),
    "blank-lines": ("\nX,2011-01-03,1.5\n\r\nX,2011-01-04,2\r\n\n\n", True, None),
    "spaces-line": ("X,2011-01-03,1.5\n \nX,2011-01-04,2\n", False,
                    ":3: expected 3 fields, got 1"),
    "interleaved": ("X,2011-01-03,1\nY,2011-01-03,2\nX,2011-01-04,3\nY,2011-01-04,4\n", True, None),
    "quoted-ticker": ('"X",2011-01-03,1\nX,2011-01-04,2\n', False, None),
    "non-utf8-ticker": ("X,2011-01-03,1\nX\udcff,2011-01-04,2\n", False,
                        ":3: has byte 0xff, which is not UTF-8 (invalid start byte)"),
    "31-byte-ticker": (f"{'T' * 31},2011-01-03,1\n{'T' * 31},2011-01-04,2\n", True, None),
    "32-byte-ticker": (f"X,2011-01-03,1\n{'T' * 32},2011-01-04,2\n", False, None),
}


@pytest.mark.parametrize("mark", [False, True], ids=["plain", "bom"])
@pytest.mark.parametrize("rows, plain, message", BYTE_ROUTE_EDGES.values(), ids=BYTE_ROUTE_EDGES)
def test_rows_at_the_edges_of_the_byte_route_load_as_the_reader_route(
    tmp_path, monkeypatch, rows, plain, message, mark
):
    """Leap days, the calendar's first and last days, closes without a
    leading or trailing digit and of 300 bytes load by the byte route, with
    a byte-order mark or without, CR LF row ends, blank lines and a last row
    without an end; what it does not read loads, or names its line, as
    before."""
    path = tmp_path / "prices.csv"
    path.write_text("ticker,date,adjusted_close\n" + rows, errors="surrogateescape",
                    encoding="utf-8-sig" if mark else "utf-8", newline="")
    outcome = _assert_loads_as_the_reader_route(path, monkeypatch, plain)
    if message is not None:
        assert outcome == f"prices.csv{message}"
    elif not mark:  # the row loader reads no byte-order mark
        expected = load_prices_by_row(path)
        assert list(outcome.items()) == list(expected.items())
    assert outcome != {}


@pytest.mark.parametrize("read", [61, 1 << 16])
@pytest.mark.parametrize("chunk", [1, 512])
@pytest.mark.parametrize("layout", ["grouped", "interleaved"])
def test_rows_across_block_edges_load_as_the_reader_route(
    tmp_path, monkeypatch, layout, chunk, read
):
    """The byte route checks `_CHUNK` rows at a time, read `_BLOCK` bytes at
    a time: rows of one ticker, of a ticker longer than a word and with
    closes of 1 to 19 bytes straddle both edges; two tickers differ past
    their first word only. A fault planted on either side of a chunk edge
    is named at its line."""
    monkeypatch.setattr(corpus, "_CHUNK", chunk)
    monkeypatch.setattr(corpus, "_BLOCK", read)
    rng = np.random.default_rng(26)
    rows = [
        [ticker, (date(2011, 1, 3) + timedelta(days=day)).isoformat(),
         f"{1 + rng.lognormal(3.0, 1.0):.{int(rng.integers(0, 16))}f}"]
        for ticker in ["A", "BB", "LONG.TICKER-1", "LONG.TICKER-2"] for day in range(280)
    ]
    if layout == "interleaved":
        rows.sort(key=lambda row: row[1::-1])
    path = tmp_path / "prices.csv"
    header = "ticker,date,adjusted_close\n"
    path.write_text(header + "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    universe = _listing(["BB", "LONG.TICKER-2"])
    for listed in (None, universe):
        outcome = _assert_loads_as_the_reader_route(path, monkeypatch, True, listed)
        assert list(outcome.items()) == list(load_prices_by_row(path, listed).items())

    edge = chunk  # the index of the second chunk's first row
    before = {}  # the index of each row's ticker's row before it
    for index, (ticker, _, _) in enumerate(rows):
        before[index], before[ticker] = before.get(ticker), index
    again = next(i for i in range(edge, len(rows)) if before[i] is not None)
    for row, cell, value in ((edge, 1, "2011-02-30"), (edge - 1, 2, "-1"),
                             (again, 1, rows[before[again]][1])):
        faulty = [list(r) for r in rows]
        faulty[row][cell] = value
        path.write_text(header + "".join(",".join(r) + "\n" for r in faulty), encoding="utf-8")
        for listed in (None, universe):
            message = _assert_loads_as_the_reader_route(path, monkeypatch, False, listed)
            assert message.startswith(f"prices.csv:{row + 2}: "), message


@pytest.mark.parametrize("read", [61, 1 << 16])
@pytest.mark.parametrize("chunk", [1, 2, 512])
def test_blank_lines_are_left_out_by_the_byte_route_at_any_edge(
    tmp_path, monkeypatch, chunk, read
):
    """Blank lines, LF or CR LF, before the first row, between rows and
    after the last, load by the byte route as the row loader reads them,
    wherever a chunk or a read ends."""
    monkeypatch.setattr(corpus, "_CHUNK", chunk)
    monkeypatch.setattr(corpus, "_BLOCK", read)
    ends = ["\n", "\n\n", "\r\n", "\r\n\r\n", "\n\r\n"]
    body = "".join(
        f"{ticker},{date(2011, 1, 3) + timedelta(days=day)},{1 + day / 8}{ends[day % 5]}"
        for ticker in ["A", "BB"] for day in range(40)
    )
    path = tmp_path / "prices.csv"
    path.write_text("ticker,date,adjusted_close\n\n" + body + "\n\r\n", encoding="utf-8",
                    newline="")
    for listed in (None, _listing(["BB"])):
        outcome = _assert_loads_as_the_reader_route(path, monkeypatch, True, listed)
        assert list(outcome.items()) == list(load_prices_by_row(path, listed).items())


def test_fixture_prices_take_the_byte_route(tmp_path, monkeypatch):
    """The price files of the default fixture and of the wide-universe
    benchmark's shape load with the `read_table` route refused: a fixture
    row the byte route stopped reading fails here, not only the benchmark."""

    def refused(path, tickers):
        raise AssertionError(f"{path} was read by read_table")

    monkeypatch.setattr(pricerows, "_read_price_columns", refused)
    wide = dict(n_companies=1000, n_quarters=2, n_articles=44, clusters_per_quarter=2,
                cluster_size=2, cluster_articles=3, anchor_positive_articles=6,
                anchor_negative_articles=4)
    for spec in (FixtureSpec(), FixtureSpec(seed=1, **wide)):
        out = tmp_path / f"fixture-{spec.n_companies}"
        write_fixture(generate_fixture(spec), out)
        companies = list(load_universe(out / "universe.csv"))
        for universe in (None, EntityUniverse(companies[::20])):
            assert len(load_prices(out / "prices.csv", universe)) >= len(companies[::20])


# -- market caps ------------------------------------------------------------


def test_marketcaps_round_trip(tmp_path):
    table = MarketCapTable(
        {
            ("ACME", Quarter(2011, 1)): 12.5,
            ("ACME", Quarter(2011, 2)): 13.25,
            ("BOLT", Quarter(2011, 1)): 0.75,
        }
    )
    path = tmp_path / "caps.csv"
    assert write_marketcaps(path, table) == 3
    loaded = load_marketcaps(path)
    assert loaded.get("ACME", Quarter(2011, 2)) == 13.25
    assert loaded.get("BOLT", Quarter(2011, 2)) is None


def test_marketcaps_validation(tmp_path):
    with pytest.raises(ValidationError, match="non-positive market cap"):
        MarketCapTable({("A", Quarter(2011, 1)): 0.0})

    path = tmp_path / "caps.csv"
    path.write_text(
        "canonical_id,quarter,market_cap_usd_billions\nA,2011T1,5\n", encoding="utf-8"
    )
    with pytest.raises(ValidationError, match=":2: bad quarter label"):
        load_marketcaps(path)

    path.write_text(
        "canonical_id,quarter,market_cap_usd_billions\nA,2011Q1,-5\n", encoding="utf-8"
    )
    with pytest.raises(ValidationError, match="non-positive market cap"):
        load_marketcaps(path)

    for cap in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="non-finite market cap"):
            MarketCapTable({("A", Quarter(2011, 1)): cap})
    for cell, message in (
        ("nan", ":2: non-finite market cap nan for A"),
        ("-inf", ":2: non-finite market cap -inf for A"),
        ("1_0", ":2: bad market cap '1_0'"),
        ("٤", ":2: bad market cap '٤'"),
    ):
        path.write_text(
            f"canonical_id,quarter,market_cap_usd_billions\nA,2011Q1,{cell}\n", encoding="utf-8"
        )
        with pytest.raises(ValidationError, match=f"^caps.csv{message}$"):
            load_marketcaps(path)
    path.write_text(
        "canonical_id,quarter,market_cap_usd_billions\nA,2011Q1, 2e3 \n", encoding="utf-8"
    )
    assert load_marketcaps(path).get("A", Quarter(2011, 1)) == 2000.0


def test_marketcaps_reject_a_repeated_company_quarter(tmp_path):
    """A second cap for one company and quarter is refused at its own line,
    also when spaces around its cells differ."""
    path = tmp_path / "marketcaps.csv"
    header = "canonical_id,quarter,market_cap_usd_billions\n"
    rows = "C0000,2011Q1,236.1\nC0001,2011Q1,5\nC0000,2011Q2,7\n"
    path.write_text(header + rows, encoding="utf-8")
    assert len(load_marketcaps(path)) == 3
    for repeated in ("C0000,2011Q1,999.0\n", " C0000 , 2011Q1 ,236.1\n"):
        path.write_text(header + rows + repeated, encoding="utf-8")
        with pytest.raises(
            ValidationError, match=r"^marketcaps\.csv:5: duplicate market cap for C0000 2011Q1$"
        ):
            load_marketcaps(path)


@pytest.mark.parametrize(
    "rows, message",
    [("B,2011T1,1\n", ":3: bad quarter label '2011T1', expected YYYYQN"),
     ("B,2011Q1,-1\n", ":3: non-positive market cap -1.0 for B")],
)
def test_marketcaps_with_a_byte_order_mark_load(tmp_path, rows, message):
    """A byte-order mark is not part of the `canonical_id` column's name,
    and a faulty line is counted as without it."""
    path = tmp_path / "marketcaps.csv"
    text = "canonical_id,quarter,market_cap_usd_billions\nA,2011Q1,5\n"
    path.write_text(text, encoding="utf-8-sig")
    assert load_marketcaps(path).entries == {("A", Quarter(2011, 1)): 5.0}
    path.write_text(text + rows, encoding="utf-8-sig")
    with pytest.raises(ValidationError, match=f"^marketcaps.csv{message}$"):
        load_marketcaps(path)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("A,2011Q1\n", ":2: expected 3 fields, got 2"),
        ("A,2011Q1,5,6\n", ":2: expected 3 fields, got 4"),
        # blank lines and the lines of a quoted cell count
        ("A,2011Q1,5\n\nB,2011Q1,-1\n", ":4: non-positive market cap -1.0 for B"),
        ('"A\nB",2011Q1,5\nC,2011T1,1\n', ":4: bad quarter label '2011T1', expected YYYYQN"),
        ("A,0000Q4,5\n", ":2: bad quarter label '0000Q4', expected YYYYQN"),
        # a quarter's digits are ASCII
        ("A,\u0662\u0660\u0661\u0661Q1,5\n",
         ":2: bad quarter label '\u0662\u0660\u0661\u0661Q1', expected YYYYQN"),
        # two faults: the one on the earlier line is reported
        ("A,2011Q1,0\nB,2011Q1\n", ":2: non-positive market cap 0.0 for A"),
        ("A,2011Q1,5\nB,2011Q1,x\nC,2011Q1,-1\n", ":3: bad market cap 'x'"),
        ("A,2011Q1,5\nB,2011Q1,nan\nC,2011Q1\n", ":3: non-finite market cap nan for B"),
    ],
)
def test_marketcaps_reports_the_first_faulty_line(tmp_path, rows, message):
    path = tmp_path / "marketcaps.csv"
    path.write_text("canonical_id,quarter,market_cap_usd_billions\n" + rows, encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^marketcaps.csv{message}$"):
        load_marketcaps(path)
