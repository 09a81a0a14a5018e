"""The synthetic data generator: determinism, planted ground truth, and
round-trips through the real loaders."""

import csv
import json
from bisect import bisect_right
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from newsrisk.corpus import (
    UNIVERSE_COLUMNS,
    MarketCapTable,
    PriceSeries,
    PriceTable,
    load_articles,
    load_marketcaps,
    load_prices,
    load_universe,
)
from newsrisk.entities import MatcherSet, article_text
from newsrisk.errors import ValidationError
from newsrisk.fixtures import (
    WEIGHT_SUM_TOLERANCE,
    FixtureSpec,
    _mention_cdf,
    _sample,
    generate_fixture,
    write_fixture,
)
from newsrisk.quarters import Quarter, parse_quarter, quarter_of

from conftest import SMALL_SPEC
from _oracles import match_ids, planted_drift, traced_peak, write_marketcaps, write_prices


def test_generation_is_deterministic(small_fixture):
    again = generate_fixture(SMALL_SPEC)
    assert again.companies == small_fixture.companies
    assert again.universe_rows == small_fixture.universe_rows
    assert again.articles == small_fixture.articles
    assert again.calendar.tobytes() == small_fixture.calendar.tobytes()
    assert again.prices.keys() == small_fixture.prices.keys()
    for ticker, closes in again.prices.items():
        assert closes.tobytes() == small_fixture.prices[ticker].tobytes(), ticker
    assert again.marketcaps == small_fixture.marketcaps
    assert again.truth == small_fixture.truth


def test_write_is_byte_identical(small_fixture, small_fixture_dir, tmp_path):
    other = write_fixture(small_fixture, tmp_path / "again")
    for name, path in other.items():
        assert path.read_bytes() == (small_fixture_dir / path.name).read_bytes(), name


def test_spec_validation():
    with pytest.raises(ValidationError, match="not enough companies"):
        FixtureSpec(n_companies=10, clusters_per_quarter=3, cluster_size=4)
    with pytest.raises(ValidationError, match="negative_share"):
        FixtureSpec(negative_share=1.5)
    with pytest.raises(ValidationError, match="anchor article counts"):
        FixtureSpec(anchor_negative_articles=-1)
    with pytest.raises(ValidationError, match="mention_count_weights"):
        FixtureSpec(mention_count_weights=(0.5, 0.5, 0.5, 0.0))
    with pytest.raises(ValidationError, match="drift window"):
        FixtureSpec(drift_window=(0, 10))
    with pytest.raises(ValidationError, match="share-class pairs"):
        FixtureSpec(share_class_pairs=99)
    with pytest.raises(ValidationError, match="quota.*too small"):
        generate_fixture(
            FixtureSpec(seed=1, n_companies=30, n_quarters=4, n_articles=100)
        )


def _refused_by_choice(weights) -> bool:
    try:
        np.random.default_rng(0).choice(4, p=weights)
    except ValueError:
        return True
    return False


def test_mention_count_weights_with_nan_are_refused():
    weights = (0.78, float("nan"), 0.22, 0.0)
    assert _refused_by_choice(weights)
    with pytest.raises(ValidationError, match="mention_count_weights must not hold NaN"):
        FixtureSpec(mention_count_weights=weights)


def test_negative_mention_count_weights_are_refused():
    weights = (0.8, 0.3, -0.1, 0.0)  # sums to 1
    assert _refused_by_choice(weights)
    with pytest.raises(ValidationError, match="mention_count_weights must be non-negative"):
        FixtureSpec(mention_count_weights=weights)


def test_mention_count_weights_must_sum_to_1_as_choice_requires():
    """Refused past `Generator.choice`'s tolerance, and taken within it."""
    off = (0.78 + 2 * WEIGHT_SUM_TOLERANCE, 0.22, 0.0, 0.0)
    assert _refused_by_choice(off)
    with pytest.raises(ValidationError, match="mention_count_weights must sum to 1"):
        FixtureSpec(mention_count_weights=off)
    near = (0.78 + WEIGHT_SUM_TOLERANCE / 2, 0.22, 0.0, 0.0)
    assert not _refused_by_choice(near)
    assert FixtureSpec(mention_count_weights=near).mention_count_weights == near


# -- the draw helpers take the draws of the numpy calls they stand for --------
# Twin generators: the helper on one, numpy's call on the other; then the
# next draw of both must agree, so the streams stay aligned. Generator
# streams are not promised across numpy versions, so these compare calls on
# the installed numpy rather than stored digests.


def test_sample_draws_what_choice_without_replacement_draws():
    for n in range(61):
        pool = [f"C{i:04d}" for i in range(n)]
        for k in range(n + 1):
            ours, numpys = np.random.default_rng(n * 61 + k), np.random.default_rng(n * 61 + k)
            picked = [str(x) for x in numpys.choice(pool, size=k, replace=False)]
            assert _sample(ours, pool, k) == picked, (n, k)
            assert ours.random() == numpys.random(), (n, k)


@pytest.mark.parametrize(
    "weights", [FixtureSpec().mention_count_weights, (0.6, 0.25, 0.1, 0.05)]
)
def test_mention_count_draw_is_choice_with_p(weights):
    cdf = _mention_cdf(weights)
    ours, numpys = np.random.default_rng(15), np.random.default_rng(15)
    for _ in range(5000):
        k = bisect_right(cdf, ours.random()) + 1
        assert k == numpys.choice((1, 2, 3, 4), p=weights)
    assert ours.random() == numpys.random()


def test_a_sized_uniform_draw_is_that_many_scalar_draws():
    ours, numpys = np.random.default_rng(16), np.random.default_rng(16)
    for n in range(1, 30):
        assert ours.uniform(0.9, 1.1, n).tolist() == [numpys.uniform(0.9, 1.1) for _ in range(n)]
    assert ours.random() == numpys.random()


def test_quarters_property(small_fixture):
    labels = [q.label for q in small_fixture.quarters]
    assert labels == ["2011Q1", "2011Q2", "2011Q3"]


def test_article_totals_match_truth(small_fixture):
    truth = small_fixture.truth
    articles = small_fixture.articles
    assert len(articles) == SMALL_SPEC.n_articles
    assert truth.n_positive + truth.n_negative == len(articles)
    assert truth.n_positive == sum(1 for a in articles if a.polarity == "positive")
    assert truth.n_negative == sum(1 for a in articles if a.polarity == "negative")
    assert set(truth.mentions) == {a.id for a in articles}


def test_planted_text_matches_the_real_parser(small_fixture, small_fixture_dir):
    universe = load_universe(small_fixture_dir / "universe.csv")
    matchers = MatcherSet(universe)
    for article in small_fixture.articles:
        found = match_ids(matchers, article_text(article))
        assert found == set(small_fixture.truth.mentions[article.id]), article.id


def test_clusters_are_disjoint_and_all_negative(small_fixture):
    truth = small_fixture.truth
    for label, clusters in truth.clusters.items():
        seen: set[str] = set()
        for members in clusters:
            assert len(members) == SMALL_SPEC.cluster_size
            assert not (set(members) & seen)
            seen.update(members)
            assert set(members) <= set(truth.all_negative[label])
        assert not (seen & set(truth.anchors))


def test_anchors_appear_only_jointly(small_fixture):
    truth = small_fixture.truth
    anchors = set(truth.anchors)
    assert len(anchors) == 2
    per_quarter: dict[str, int] = {}
    for article in small_fixture.articles:
        mentioned = set(truth.mentions[article.id])
        assert len(mentioned) <= 2  # the default mention distribution stops at 2
        if mentioned & anchors:
            assert mentioned == anchors, article.id
            label = quarter_of(article.published_at).label
            per_quarter[label] = per_quarter.get(label, 0) + 1
    expected = SMALL_SPEC.anchor_positive_articles + SMALL_SPEC.anchor_negative_articles
    assert per_quarter == {q.label: expected for q in small_fixture.quarters}


def test_all_negative_truth_is_consistent(small_fixture):
    truth = small_fixture.truth
    by_quarter: dict[str, dict[str, list[int]]] = {}
    for article in small_fixture.articles:
        label = quarter_of(article.published_at).label
        for cid in truth.mentions[article.id]:
            slot = by_quarter.setdefault(label, {}).setdefault(cid, [0, 0])
            slot[0 if article.polarity == "positive" else 1] += 1
    for label, counts in by_quarter.items():
        expected = sorted(
            cid for cid, (pos, neg) in counts.items() if pos == 0 and neg > 0
        )
        assert truth.all_negative[label] == expected


def test_measurement_dates_are_last_weekdays(small_fixture):
    for quarter in small_fixture.quarters:
        day = quarter.end_date
        while day.weekday() >= 5:
            day -= timedelta(days=1)
        assert small_fixture.truth.measurement_dates[quarter.label] == day.isoformat()


def test_price_series_shape(small_fixture):
    tickers = {c.ticker for c in small_fixture.companies}
    extras = {c.extra_ticker for c in small_fixture.companies if c.extra_ticker}
    assert set(small_fixture.prices) == tickers | extras
    assert len(extras) == SMALL_SPEC.share_class_pairs
    first = small_fixture.quarters[0].start_date - timedelta(days=7)
    last = small_fixture.quarters[-1].end_date + timedelta(days=97)
    dates = small_fixture.calendar.tolist()
    assert all(d.weekday() < 5 for d in dates)
    assert first <= dates[0] and dates[-1] <= last
    assert all(a < b for a, b in zip(dates, dates[1:]))
    for closes in small_fixture.prices.values():
        assert closes.dtype == np.float64 and len(closes) == len(dates)
        assert all(c > 0 for c in closes)


def test_share_class_prices_track_the_primary(small_fixture):
    for company in small_fixture.companies:
        if not company.extra_ticker:
            continue
        primary = small_fixture.prices[company.ticker]
        extra = small_fixture.prices[company.extra_ticker]
        for p, e in zip(primary, extra):
            assert e == pytest.approx(p * 1.02, rel=1e-6)


def test_missing_caps_spare_the_planted_companies(small_fixture):
    spec = small_fixture.spec
    truth = small_fixture.truth
    n_quarters = len(small_fixture.quarters)
    expected = spec.n_companies * n_quarters - spec.missing_caps
    assert len(small_fixture.marketcaps) == expected
    protected = set(truth.anchors)
    for clusters in truth.clusters.values():
        for members in clusters:
            protected.update(members)
    for cid in protected:
        for quarter in small_fixture.quarters:
            assert (cid, quarter.label) in small_fixture.marketcaps


def test_drift_only_touches_all_negative_pairs():
    fixture = generate_fixture(
        FixtureSpec(
            seed=SMALL_SPEC.seed,
            n_companies=SMALL_SPEC.n_companies,
            n_quarters=SMALL_SPEC.n_quarters,
            n_articles=SMALL_SPEC.n_articles,
            clusters_per_quarter=SMALL_SPEC.clusters_per_quarter,
            cluster_size=SMALL_SPEC.cluster_size,
            anchor_positive_articles=SMALL_SPEC.anchor_positive_articles,
            anchor_negative_articles=SMALL_SPEC.anchor_negative_articles,
            drift_pct_per_day=-1.0,
        )
    )
    truth = fixture.truth
    assert truth.drifted  # the planted effect is actually present
    expected = [
        [cid, label]
        for label in sorted(truth.all_negative)
        for cid in truth.all_negative[label]
    ]
    assert sorted(truth.drifted) == sorted(expected)
    # an undrifted spec plants nothing
    assert generate_fixture(SMALL_SPEC).truth.drifted == []


def test_planted_drift_matches_the_per_day_walk():
    """log(drifted / undrifted) is the planted path the per-day walk of the
    drift and recovery windows builds. An 80-day window's recovery overlaps
    the next quarter's drift, and a window one day off moves every path."""
    spec = replace(SMALL_SPEC, drift_window=(1, 80))
    flat = generate_fixture(spec)
    drifted = generate_fixture(replace(spec, drift_pct_per_day=-1.0))
    expected = planted_drift(drifted)
    assert len(expected) > 1
    none = np.zeros(len(drifted.calendar))
    for company in drifted.companies:
        log_ratio = np.log(drifted.prices[company.ticker] / flat.prices[company.ticker])
        want = expected.get(company.canonical_id, none)
        np.testing.assert_allclose(log_ratio, want, rtol=0, atol=1e-9, err_msg=company.ticker)


def test_written_csvs_match_csv_writer(small_fixture, small_fixture_dir, tmp_path):
    """The column-wise writer writes every fixture CSV byte for byte as
    `csv.writer` writes it row by row."""
    write_prices(tmp_path / "prices.csv", PriceTable(
        PriceSeries(ticker, small_fixture.calendar, closes)
        for ticker, closes in small_fixture.prices.items()
    ))
    caps = small_fixture.marketcaps
    write_marketcaps(tmp_path / "marketcaps.csv", MarketCapTable(
        {(cid, parse_quarter(label)): cap for (cid, label), cap in caps.items()}
    ))
    with (tmp_path / "universe.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(UNIVERSE_COLUMNS)
        writer.writerows(small_fixture.universe_rows)
    for name in ("prices.csv", "marketcaps.csv", "universe.csv"):
        assert (tmp_path / name).read_bytes() == (small_fixture_dir / name).read_bytes(), name


def test_writing_a_fixture_holds_a_few_slices_of_its_prices(tmp_path):
    """`write_fixture` hands the formatter `prices.csv` a ticker at a time
    and writes each slice as it comes, so writing a 1 000-company fixture,
    whose prices.csv is several MB, allocates at most a small fixed multiple
    of one `_JOIN_ROWS`-row slice of it."""
    from newsrisk.corpus import _JOIN_ROWS

    spec = FixtureSpec(seed=1, n_companies=1000, n_quarters=2, n_articles=200)
    fixture = generate_fixture(spec)
    paths, peak = traced_peak(write_fixture, fixture, tmp_path)
    size = paths["prices"].stat().st_size
    with paths["prices"].open(encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    assert rows == len(fixture.prices) * len(fixture.calendar)
    assert size > 5_000_000
    one_slice = size / rows * _JOIN_ROWS
    assert peak <= 12 * one_slice, peak / one_slice


def test_files_roundtrip_through_loaders(small_fixture, small_fixture_dir):
    universe = load_universe(small_fixture_dir / "universe.csv")
    assert universe.ids() == tuple(c.canonical_id for c in small_fixture.companies)
    # the share-class row merges into the primary record
    paired = next(c for c in small_fixture.companies if c.extra_ticker)
    record = universe.records.get(paired.canonical_id)
    assert set(record.merged_tickers) == {paired.ticker, paired.extra_ticker}

    articles = load_articles(
        small_fixture_dir / "articles.jsonl",
        window=(date(2011, 1, 1), date(2011, 12, 31)),
    )
    assert [a.id for a in articles] == [a.id for a in small_fixture.articles]
    assert all(a.in_window for a in articles)
    assert articles == small_fixture.articles

    prices = load_prices(small_fixture_dir / "prices.csv", universe)
    # primary and share-class series both resolve to the canonical id
    assert len(prices) == SMALL_SPEC.n_companies
    series = prices.get(paired.canonical_id)
    assert series.dates.tolist() == small_fixture.calendar.tolist()
    assert series.closes.tolist() == small_fixture.prices[paired.ticker].tolist()

    caps = load_marketcaps(small_fixture_dir / "marketcaps.csv")
    assert len(caps) == len(small_fixture.marketcaps)
    for (cid, label), cap in small_fixture.marketcaps.items():
        assert caps.get(cid, parse_quarter(label)) == cap


def test_truth_json_mirrors_the_dataclass(small_fixture, small_fixture_dir):
    payload = json.loads((small_fixture_dir / "truth.json").read_text())
    truth = small_fixture.truth
    assert payload["seed"] == truth.seed
    assert payload["anchors"] == truth.anchors
    assert payload["mentions"] == truth.mentions
    assert payload["clusters"] == truth.clusters
    assert payload["all_negative"] == truth.all_negative
    assert payload["drifted"] == truth.drifted
    assert payload["measurement_dates"] == truth.measurement_dates
