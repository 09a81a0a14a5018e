"""Decline-event bookkeeping, threshold subsets, range summaries, and the
plain-text report rendering."""

import math
from datetime import date, timedelta

import numpy as np
import pytest

import newsrisk.backtest as bt
from newsrisk.corpus import load_universe
from newsrisk.errors import ValidationError
from newsrisk.fixtures import FixtureSpec, generate_fixture, write_fixture
from newsrisk.pricerows import PriceSeries, PriceTable, load_prices
from newsrisk.quarters import Quarter, quarter_range
from newsrisk.riskrank import RiskDatapoint

from _oracles import (
    FixtureStudy,
    best_delay_by_loop,
    decline_event,
    load_prices_by_row,
    measurement_date,
    range_report,
    scalar_events,
    scalar_series,
)

Q1 = Quarter(2012, 1)


def series(key, points):
    dates, closes = zip(*((date.fromisoformat(d), c) for d, c in points))
    return PriceSeries(key=key, dates=dates, closes=closes)


def dp(cid, rr_total, x_own, quarter=Q1):
    return RiskDatapoint(
        canonical_id=cid,
        quarter=quarter,
        x_own=x_own,
        rr_own=rr_total / 2,
        rr_direct=rr_total / 2,
        rr_indirect=0.0,
        rr_total=rr_total,
    )


# 2012-03-30 is the last weekday of 2012Q1; 2012-04-02 the first of Q2.
AAA = series(
    "AAA",
    [
        ("2012-03-26", 100.0),
        ("2012-03-27", 100.0),
        ("2012-03-28", 100.0),
        ("2012-03-29", 100.0),
        ("2012-03-30", 100.0),
        ("2012-04-02", 99.0),
        ("2012-04-03", 101.0),
        ("2012-04-04", 100.0),
    ],
)
BBB = series("BBB", [("2012-03-28", 10.0), ("2012-03-29", 10.0), ("2012-03-30", 10.0)])
DDD = series("DDD", [("2013-01-07", 5.0), ("2013-01-08", 5.0)])
EEE = series("EEE", [("2012-03-30", 50.0), ("2012-04-04", 49.0)])


@pytest.fixture(scope="module")
def hand_study():
    prices = PriceTable([AAA, BBB, DDD, EEE])
    datapoints = [
        dp("AAA", 0.8, 0.3),
        dp("BBB", 0.6, 0.6),  # no trading day after measurement
        dp("CCC", 0.6, 0.6),  # no price series at all
        dp("DDD", 0.6, 0.6),  # series starts after the quarter
        dp("EEE", 0.4, 0.9),
    ]
    return bt.compute_events(datapoints, prices, delay_lo=3, delay_hi=5)


# The scalar reference that compute_events is checked against, on hand cases.


def test_measurement_date_cases():
    aaa, ddd = scalar_series(AAA), scalar_series(DDD)
    assert measurement_date(Q1, aaa) == date(2012, 3, 30)
    assert measurement_date(Q1, ddd) is None  # starts after the quarter
    # a series that ended before the quarter began yields nothing
    assert measurement_date(Quarter(2013, 1), aaa) is None


def test_decline_event_strictness_and_lookback():
    aaa, eee = scalar_series(AAA), scalar_series(EEE)
    measured = date(2012, 3, 30)
    assert decline_event(aaa, measured, 3) is True  # 99 < 100
    assert decline_event(aaa, measured, 4) is False  # 101
    assert decline_event(aaa, measured, 5) is False  # equal close: not strict
    # delays past the last trading day fall back to it (2012-04-04, equal)
    assert decline_event(aaa, measured, 6) is False
    assert decline_event(aaa, measured, 8) is False  # lands on a Saturday
    # the same backward lookup across a weekend, seen from EEE's decline
    assert decline_event(eee, measured, 9) is True
    # delay lands before any post-measurement trading day: undefined
    assert decline_event(aaa, measured, 1) is None
    assert decline_event(aaa, measured, 2) is None
    # measurement precedes the series entirely
    assert decline_event(aaa, date(2012, 3, 1), 3) is None


def test_event_matrix_and_counters(hand_study):
    study = hand_study
    assert [d.canonical_id for d in study.datapoints] == ["AAA", "EEE"]
    assert study.n_no_series == 1  # CCC
    assert study.n_no_quarter_day == 1  # DDD
    assert study.n_no_events == 1  # BBB
    assert study.outcomes.tolist() == [[1, 0, 0], [-1, -1, 1]]
    assert all(d.measurement_date == date(2012, 3, 30) for d in study.datapoints)
    assert list(study.delays) == [3, 4, 5]
    assert len(study) == 2


def test_daily_rates_and_defined_counts(hand_study):
    rates, defined = hand_study.daily_rates()
    assert rates.tolist() == [100.0, 0.0, 50.0]
    assert defined.tolist() == [1, 1, 2]
    subset, defined = hand_study.daily_rates(np.array([1]))
    assert np.isnan(subset[0]) and np.isnan(subset[1]) and subset[2] == 100.0
    assert defined.tolist() == [0, 0, 1]


def test_threshold_subsets(hand_study):
    agg = hand_study.indices_at_threshold(0.5, bt.AGGREGATED)
    ind = hand_study.indices_at_threshold(0.5, bt.INDIVIDUAL)
    assert agg.tolist() == [0]
    assert ind.tolist() == [1]
    with pytest.raises(ValidationError, match="unknown risk kind"):
        bt.risk_value(hand_study.datapoints[0], "blended")


def test_threshold_tolerates_float_dust():
    prices = PriceTable([AAA])
    study = bt.compute_events(
        [dp("AAA", 0.9999999999999998, 1.0 - 2e-16)], prices, 3, 5
    )
    assert study.indices_at_threshold(1.0, bt.AGGREGATED).tolist() == [0]
    assert study.indices_at_threshold(1.0, bt.INDIVIDUAL).tolist() == [0]


def assert_events_match_oracle(datapoints, prices, delay_lo, delay_hi):
    """compute_events equals the scalar reference; returns the study."""
    study = bt.compute_events(datapoints, prices, delay_lo, delay_hi)
    table = {key: scalar_series(s) for key, s in prices.series.items()}
    kept, rows, counters = scalar_events(datapoints, table, delay_lo, delay_hi)
    assert study.datapoints == tuple(kept)
    assert study.outcomes.dtype == np.int8
    assert study.outcomes.shape == (len(kept), delay_hi - delay_lo + 1)
    assert study.outcomes.tolist() == rows
    assert (study.n_no_series, study.n_no_quarter_day, study.n_no_events) == counters
    return study


def test_events_match_oracle_on_the_default_fixture(tmp_path):
    """Every risk datapoint of FixtureSpec(), on prices loaded from its file
    by both loaders."""
    fixture = generate_fixture(FixtureSpec())
    write_fixture(fixture, tmp_path)
    universe = load_universe(tmp_path / "universe.csv")
    prices = load_prices(tmp_path / "prices.csv", universe)
    reference = load_prices_by_row(tmp_path / "prices.csv", universe)
    assert {key: scalar_series(s) for key, s in prices.series.items()} == reference
    datapoints = FixtureStudy(fixture).values["datapoints"]
    assert len(datapoints) > 100
    study = assert_events_match_oracle(datapoints, prices, bt.DELAY_LO, bt.DELAY_HI)
    assert len(study) == len(datapoints)


def random_series(rng, key, shape):
    """A weekday series over 2011-2012 with random gaps; `shape` picks a
    single row, a late start, an early end, quarter bounds only, or the whole
    span."""
    first, last = date(2010, 12, 1), date(2013, 4, 30)
    if shape == "bounds":
        # a quarter whose only trading day is its first or its last day
        quarters = quarter_range(Quarter(2010, 4), Quarter(2013, 1))
        days = [q.start_date if rng.random() < 0.5 else q.end_date for q in quarters]
        return PriceSeries(key=key, dates=days, closes=rng.choice([9.5, 10.0], size=len(days)))
    span = (last - first).days
    start, end = first, last
    if shape == "late":
        start = first + timedelta(days=int(rng.integers(30, span)))
    elif shape == "early":
        end = first + timedelta(days=int(rng.integers(0, span - 30)))
    gap = float(rng.choice([0.0, 0.1, 0.5, 0.9]))
    days = [
        start + timedelta(days=d)
        for d in range((end - start).days + 1)
        if (start + timedelta(days=d)).weekday() < 5 and rng.random() >= gap
    ]
    if shape == "single" or not days:
        days = [start + timedelta(days=int(rng.integers(0, (end - start).days + 1)))]
    # few distinct closes, so equal closes (not a decline) are common
    closes = rng.choice([9.5, 10.0, 10.5, 11.0], size=len(days))
    return PriceSeries(key=key, dates=days, closes=closes)


@pytest.mark.parametrize("delay_lo, delay_hi", [(3, 90), (1, 5), (90, 90)])
def test_events_match_oracle_on_random_series(delay_lo, delay_hi):
    rng = np.random.default_rng(delay_lo * 100 + delay_hi)
    shapes = ("full", "late", "early", "single", "bounds")
    prices = PriceTable(random_series(rng, f"S{i:02d}", shapes[i % 5]) for i in range(80))
    quarters = quarter_range(Quarter(2011, 1), Quarter(2012, 4))
    datapoints = [
        dp(key, float(rng.random()), float(rng.random()), quarter)
        for key in [*prices.series, "MISSING"]
        for quarter in quarters
    ]
    study = assert_events_match_oracle(datapoints, prices, delay_lo, delay_hi)
    # every branch is exercised (a kept row of one delay has no undefined cell)
    assert study.n_no_series and study.n_no_quarter_day and study.n_no_events
    outcomes = {0, 1} if delay_lo == delay_hi else {-1, 0, 1}
    assert set(np.unique(study.outcomes).tolist()) == outcomes


def test_compute_events_rejects_bad_bounds():
    with pytest.raises(ValidationError, match=r"bad delay bounds \[0, 5\]"):
        bt.compute_events([], PriceTable([]), 0, 5)
    with pytest.raises(ValidationError, match="bad delay bounds"):
        bt.compute_events([], PriceTable([]), 10, 5)


def test_range_stat_reference_arithmetic():
    # benchmark [b-s, b+s] has mean b and population std s; a flat subset at
    # b+d then outperforms by exactly d/s
    cases = [
        (4.82, 2.82, 1.71, 0.02),
        (7.03, 3.09, 2.28, 0.02),
        (9.59, 0.72, 13.41, 0.10),
    ]
    for d, s, expected, tol in cases:
        b = 40.0
        stat = bt.range_stat(
            "3 to 4",
            3,
            4,
            np.array([b + d, b + d]),
            np.array([b - s, b + s]),
            delay_lo=3,
        )
        assert stat.abs_diff == pytest.approx(d, abs=1e-12)
        assert stat.benchmark_daily_std == pytest.approx(s, abs=1e-12)
        assert stat.std_outperformance == pytest.approx(expected, abs=tol)
        assert stat.rel_diff == pytest.approx(100.0 * d / b, abs=1e-9)


def test_range_stat_edge_cases():
    nan = float("nan")
    # no defined subset day in range
    assert bt.range_stat("3 to 4", 3, 4, np.array([nan, nan]), np.ones(2), 3) is None
    # no defined benchmark day in range
    assert bt.range_stat("3 to 4", 3, 4, np.ones(2), np.array([nan, nan]), 3) is None
    # zero benchmark rate: relative difference undefined
    stat = bt.range_stat("3 to 4", 3, 4, np.array([5.0, 5.0]), np.zeros(2), 3)
    assert stat.rel_diff is None
    assert stat.std_outperformance is None  # flat benchmark: zero spread
    # NaN days inside the range are skipped, not propagated
    stat = bt.range_stat("3 to 5", 3, 5, np.array([4.0, nan, 8.0]), np.array([2.0, 4.0, nan]), 3)
    assert stat.subset_rate == 6.0
    assert stat.benchmark_rate == 3.0


@pytest.mark.parametrize("delay_lo", [10, 50])
def test_range_stat_reads_only_the_delays_of_the_window(delay_lo):
    """A range that starts before the configured delays is summarized over
    those of its delays the window holds, and one that ends before them is
    left out: no bound counts from the end of the daily rates."""
    delays = np.arange(delay_lo, 91, dtype=float)  # a rate of d at delay d
    bench = np.ones_like(delays)

    def rate(lo: int, hi: int) -> float | None:
        stat = bt.range_stat(f"{lo} to {hi}", lo, hi, delays, bench, delay_lo)
        return stat and stat.subset_rate

    assert rate(3, 90) == (delay_lo + 90) / 2
    assert rate(81, 90) == 85.5
    if delay_lo == 10:
        assert rate(3, 10) == 10.0
        assert rate(3, 45) == 27.5
    else:
        assert rate(3, 10) is None
        assert rate(41, 50) == 50.0
        assert rate(51, 60) == 55.5


def test_average_row():
    rows = [
        bt.RangeStat("a", 10.0, 8.0, 2.0, 25.0, 1.0, 2.0),
        bt.RangeStat("b", 20.0, 10.0, 10.0, None, 3.0, None),
    ]
    avg = bt.average_row(rows)
    assert avg.label == "Average"
    assert avg.subset_rate == 15.0
    assert avg.benchmark_rate == 9.0
    assert avg.abs_diff == 6.0
    assert avg.rel_diff == 25.0  # only the defined cell
    assert avg.benchmark_daily_std == 2.0
    assert avg.std_outperformance == 2.0
    assert bt.average_row([]) is None


def test_build_range_report_on_hand_study(hand_study):
    report = range_report(hand_study, 0.5, bt.AGGREGATED, ranges=((3, 4), (5, 5)))
    assert (report.kind, report.threshold) == (bt.AGGREGATED, 0.5)
    assert (report.n_subset, report.n_benchmark) == (1, 2)
    assert [r.label for r in report.rows] == ["3 to 4", "5 to 5", "Average"]
    first, second, average = report.rows
    assert (first.subset_rate, first.benchmark_rate) == (50.0, 50.0)
    assert first.std_outperformance == 0.0
    assert (second.subset_rate, second.benchmark_rate) == (0.0, 50.0)
    assert second.std_outperformance is None  # single-day benchmark: zero std
    assert average.subset_rate == 25.0
    assert average.std_outperformance == 0.0


def test_out_of_data_ranges_are_omitted(hand_study):
    report = range_report(hand_study, 0.5, bt.AGGREGATED)
    # only delays 3..5 exist, so ranges starting past them drop out
    assert [r.label for r in report.rows] == ["3 to 90", "3 to 45", "3 to 10", "Average"]


def test_empty_subset_yields_empty_report(hand_study):
    report = range_report(hand_study, 2.0, bt.AGGREGATED, ranges=((3, 5),))
    assert report.n_subset == 0
    assert report.rows == ()  # no range row, so no average row either


def test_comparison_report(hand_study):
    agg = range_report(hand_study, 0.5, bt.AGGREGATED, ranges=((3, 4), (5, 5)))
    ind = range_report(hand_study, 0.5, bt.INDIVIDUAL, ranges=((3, 4), (5, 5)))
    comparison = bt.build_comparison_report(agg, ind)
    assert comparison.threshold == 0.5
    assert (comparison.n_aggregated, comparison.n_individual) == (1, 1)
    # EEE (the individual subset) has no defined day at delays 3-4, so that
    # range is missing on one side and drops out of the join; each side's
    # average row is over its own rows
    assert [r.label for r in comparison.rows] == ["5 to 5", "Average"]
    row, average = comparison.rows
    assert row.agg_rate == 0.0
    assert row.ind_rate == 100.0
    assert row.agg_outperformance is None  # single-day benchmark: zero spread
    assert row.outperformance_gap is None
    assert (average.agg_rate, average.agg_outperformance) == (25.0, 0.0)
    assert (average.ind_rate, average.ind_outperformance) == (100.0, None)


def test_comparison_requires_matching_thresholds(hand_study):
    agg = range_report(hand_study, 0.5, bt.AGGREGATED, ranges=((3, 5),))
    ind = range_report(hand_study, 0.6, bt.INDIVIDUAL, ranges=((3, 5),))
    with pytest.raises(ValidationError, match="matching thresholds"):
        bt.build_comparison_report(agg, ind)


def test_best_single_delay_prefers_smallest_tie(hand_study):
    # aggregated: diffs at delays 3,4,5 are 0, 0, -50, and the tie at 0
    # resolves to delay 3; individual (EEE): only delay 5 is defined, +50
    best_delays = bt.compute_reports(hand_study, (0.5, 2.0)).best_delays
    assert best_delays == [
        bt.BestDelay(bt.AGGREGATED, 0.5, 3, 100.0, 100.0, 0.0, 0.0, 1, 1),
        bt.BestDelay(bt.INDIVIDUAL, 0.5, 5, 100.0, 50.0, 50.0, math.sqrt(0.25 / 2), 1, 2),
    ]  # the empty 2.0 subsets have no delay defined on both sides
    delays, (benchmark, _) = hand_study.delays, hand_study.daily_rates()
    for kind in (bt.AGGREGATED, bt.INDIVIDUAL):
        rates, _ = hand_study.daily_rates(hand_study.indices_at_threshold(0.5, kind))
        expected = best_delay_by_loop(delays, rates, benchmark)
        assert bt._best_delay(delays, rates, benchmark) == expected


def test_best_delays_follow_the_key_order():
    study = bt.EventStudy(
        (dp("AAA", 0.95, 0.3), dp("EEE", 0.4, 0.95)),
        np.array([[1, 0], [0, 1]], dtype=np.int8),
        delay_lo=3,
        delay_hi=4,
    )
    best = bt.compute_reports(study, (0.9, 0.3)).best_delays
    keys = [(b.kind, b.threshold) for b in best]
    assert keys == sorted(keys) == [
        (bt.AGGREGATED, 0.3), (bt.AGGREGATED, 0.9), (bt.INDIVIDUAL, 0.3),
        (bt.INDIVIDUAL, 0.9),
    ]


def test_best_single_delay_lands_in_the_drift_window():
    from newsrisk.fixtures import FixtureSpec, generate_fixture

    from _oracles import FixtureStudy

    fixture = generate_fixture(
        FixtureSpec(seed=7, drift_pct_per_day=-1.0, drift_window=(21, 30))
    )
    study = FixtureStudy(fixture).study
    reports = bt.compute_reports(study, bt.REPORT_THRESHOLDS)
    (best,) = [b for b in reports.best_delays if (b.kind, b.threshold) == (bt.AGGREGATED, 1.0)]
    assert 21 <= best.delay <= 30
    assert best.diff > 10.0
    benchmark = reports.benchmark_daily
    for key, daily in reports.subset_daily.items():
        found = bt._best_delay(study.delays, daily, benchmark)
        assert found == best_delay_by_loop(study.delays, daily, benchmark), key


@pytest.mark.parametrize("seed", range(6))
def test_best_delay_matches_the_loop_on_ties_and_gaps(seed):
    """Rates on a coarse grid, so differences tie, with NaN gaps on either
    side; the last seeds leave one side, then both, undefined everywhere."""
    rng = np.random.default_rng(seed)
    delays = range(3, 3 + 40)
    subset, benchmark = (rng.integers(0, 5, len(delays)) * 25.0 for _ in range(2))
    subset[rng.random(len(delays)) < 0.3] = np.nan
    benchmark[rng.random(len(delays)) < 0.3] = np.nan
    if seed >= 4:
        subset[:] = np.nan
    if seed == 5:
        benchmark[:] = np.nan
    expected = best_delay_by_loop(delays, subset, benchmark)
    assert bt._best_delay(delays, subset, benchmark) == expected
    assert (expected is None) == (seed >= 4)


def test_proportion_stderr():
    assert bt.proportion_stderr(0.5, 50, 0.5, 50) == pytest.approx(0.1, abs=1e-15)
    assert bt.proportion_stderr(0.42, 18640, 0.47, 1752) == pytest.approx(
        0.012459, abs=5e-6
    )
    with pytest.raises(ValidationError, match=r"proportion outside \[0,1\]"):
        bt.proportion_stderr(1.2, 10, 0.5, 10)
    with pytest.raises(ValidationError, match="sample sizes must be positive"):
        bt.proportion_stderr(0.5, 0, 0.5, 10)


def test_risk_histogram():
    datapoints = [
        dp("a", 0.05, 0.95),
        dp("b", 0.55, 0.55),
        dp("c", 0.9999999999999998, 0.2),
    ]
    rows = bt.risk_histogram(datapoints, edges=(0.0, 0.5, 1.0))
    assert [(r.edge, r.n_aggregated, r.n_individual) for r in rows] == [
        (0.0, 3, 3),
        (0.5, 2, 2),
        (1.0, 1, 0),  # float dust still reaches the top bucket
    ]
    assert rows[1].pct_aggregated == pytest.approx(200 / 3)
    assert bt.risk_histogram([], edges=(0.5,))[0].pct_aggregated == 0.0


def test_render_range_report(hand_study):
    report = range_report(hand_study, 0.5, bt.AGGREGATED, ranges=((3, 4), (5, 5)))
    text = bt.render_range_report(report, {"alpha": 0.1, "lambda": 0.5})
    lines = text.splitlines()
    assert lines[0] == (
        "Decline rates after risk measurement — aggregated risk, threshold 0.5"
    )
    assert "subset points: 1 of 2" in text
    assert "params: alpha=0.1 lambda=0.5" in text
    assert any(line.lstrip().startswith("days delay") for line in lines)
    assert "Average" in text
    assert "n/a" in text  # the zero-spread row renders its missing outperf
    assert text.endswith("\n")


def test_render_comparison_report(hand_study):
    agg = range_report(hand_study, 0.5, bt.AGGREGATED, ranges=((3, 4),))
    ind = range_report(hand_study, 0.5, bt.INDIVIDUAL, ranges=((3, 4),))
    text = bt.render_comparison_report(bt.build_comparison_report(agg, ind), {})
    assert text.startswith("Aggregated vs. individual risk subsets — threshold 0.5")
    assert "aggregated points: 1, individual points: 1, benchmark: 2" in text
    assert "outperf gap" in text
