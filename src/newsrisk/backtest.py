"""Price-decline frequencies after quarterly risk measurements.

For every risk datapoint the measurement date is the last trading day inside
its quarter. For each delay d in 3..90 CALENDAR days the price is looked up
at the most recent trading day at or before measurement + d (but strictly
after the measurement itself); the event "decreased" is a strict price
decline versus the measurement-date close. Missing prices leave the event
undefined rather than assumed.

Decline rates of a threshold subset (datapoints whose risk is at least t)
are compared against the benchmark of all valid datapoints. A delay range
[a, b] is summarized by the unweighted mean of its daily rates; the spread
column is the population standard deviation of the BENCHMARK's daily rates
within the range, and outperformance = (subset - benchmark) / that spread.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import PriceTable
from .errors import ValidationError
from .riskrank import RiskDatapoint

log = logging.getLogger(__name__)

DELAY_LO = 3
DELAY_HI = 90

#: Delay ranges reported, in report order: full span, halves, then decades.
REPORT_RANGES = (
    (3, 90),
    (3, 45),
    (45, 90),
    (3, 10),
    (11, 20),
    (21, 30),
    (31, 40),
    (41, 50),
    (51, 60),
    (61, 70),
    (71, 80),
    (81, 90),
)

REPORT_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
HISTOGRAM_EDGES = tuple(round(0.1 * i, 1) for i in range(11))

AGGREGATED = "aggregated"
INDIVIDUAL = "individual"

#: Slack when testing risk >= threshold, so a float-dust 0.9999999999999998
#: still counts as reaching 1.0.
THRESHOLD_SLACK = 1e-9


def risk_value(datapoint: RiskDatapoint, kind: str) -> float:
    if kind == AGGREGATED:
        return datapoint.rr_total
    if kind == INDIVIDUAL:
        return datapoint.x_own
    raise ValidationError(f"unknown risk kind {kind!r}")


@dataclass(frozen=True, eq=False)
class EventStudy:
    """Decline outcomes for every valid datapoint at every delay.

    outcomes[r, c] is 1 (declined), 0 (did not), or -1 (undefined) for
    datapoint r at delay delay_lo + c. A datapoint is valid when a
    measurement date exists and at least one delay event is defined;
    the rest are counted by reason, not silently dropped: no price series
    (`n_no_series`), no trading day in the quarter (`n_no_quarter_day`),
    no defined event (`n_no_events`). The counters are None in a study
    decoded from artifacts, which do not store them (the backtest manifest
    records them).
    """

    datapoints: tuple[RiskDatapoint, ...]
    outcomes: np.ndarray
    n_no_series: int | None = None
    n_no_quarter_day: int | None = None
    n_no_events: int | None = None
    delay_lo: int = DELAY_LO
    delay_hi: int = DELAY_HI

    def __len__(self) -> int:
        return len(self.datapoints)

    @property
    def delays(self) -> range:
        return range(self.delay_lo, self.delay_hi + 1)

    def indices_at_threshold(self, threshold: float, kind: str) -> np.ndarray:
        """Rows whose risk reaches the threshold (with float slack)."""
        values = np.array(
            [risk_value(dp, kind) for dp in self.datapoints], dtype=float
        )
        return np.flatnonzero(values >= threshold - THRESHOLD_SLACK)

    def daily_rates(self, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Percent declined per delay over the given rows, NaN where no
        event is defined, and the count of defined events per delay."""
        outcomes = self.outcomes if rows is None else self.outcomes[rows]
        defined = (outcomes >= 0).sum(axis=0)
        declined = (outcomes == 1).sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            rates = np.where(defined > 0, 100.0 * declined / np.maximum(defined, 1), np.nan)
        return rates, defined


def compute_events(
    datapoints: Iterable[RiskDatapoint],
    prices: PriceTable,
    delay_lo: int = DELAY_LO,
    delay_hi: int = DELAY_HI,
) -> EventStudy:
    """Fill measurement dates and evaluate every delay for every datapoint.

    The measurement index m is the last trading day at or before the quarter
    end; the delayed index of each delay is the last trading day at or before
    dates[m] + delay, found for all delays by one search. An event is defined
    where that index lies past m.
    """
    if not (0 < delay_lo <= delay_hi):
        raise ValidationError(f"bad delay bounds [{delay_lo}, {delay_hi}]")
    delays = np.arange(delay_lo, delay_hi + 1)
    kept: list[RiskDatapoint] = []
    rows: list[np.ndarray] = []
    n_no_series = n_no_quarter_day = n_no_events = 0
    for dp in datapoints:
        series = prices.get(dp.canonical_id)
        if series is None:
            n_no_series += 1
            continue
        dates, closes = series.dates, series.closes
        m = int(dates.searchsorted(np.datetime64(dp.quarter.end_date, "D"), "right")) - 1
        if m < 0 or dates[m] < np.datetime64(dp.quarter.start_date, "D"):
            n_no_quarter_day += 1
            continue
        hit = dates.searchsorted(dates[m] + delays, "right") - 1
        defined = hit > m
        if not defined.any():
            n_no_events += 1
            continue
        rows.append(np.where(defined, closes[hit] < closes[m], -1).astype(np.int8))
        kept.append(
            replace(dp, measurement_date=dates[m].item(), close=float(closes[m]))
        )
    outcomes = (
        np.array(rows, dtype=np.int8)
        if rows
        else np.empty((0, delays.size), dtype=np.int8)
    )
    log.info(
        "event study datapoints=%d no_series=%d no_quarter_day=%d no_defined_events=%d",
        len(kept),
        n_no_series,
        n_no_quarter_day,
        n_no_events,
    )
    return EventStudy(
        tuple(kept), outcomes, n_no_series, n_no_quarter_day, n_no_events, delay_lo, delay_hi
    )


@dataclass(frozen=True)
class RangeStat:
    """One report row: decline statistics of a subset over a delay range."""

    label: str
    subset_rate: float
    benchmark_rate: float
    abs_diff: float
    rel_diff: float | None
    benchmark_daily_std: float
    std_outperformance: float | None


def range_stat(
    label: str,
    lo: int,
    hi: int,
    subset_daily: np.ndarray,
    benchmark_daily: np.ndarray,
    delay_lo: int = DELAY_LO,
) -> RangeStat | None:
    """Summarize the delays of [lo, hi] that the daily rates hold, which
    start at `delay_lo`; None when either side has no defined day there."""
    sl = slice(max(lo - delay_lo, 0), max(hi - delay_lo + 1, 0))
    sub = subset_daily[sl]
    bench = benchmark_daily[sl]
    sub = sub[~np.isnan(sub)]
    bench = bench[~np.isnan(bench)]
    if sub.size == 0 or bench.size == 0:
        return None
    subset_rate = float(sub.mean())
    benchmark_rate = float(bench.mean())
    abs_diff = subset_rate - benchmark_rate
    rel_diff = 100.0 * abs_diff / benchmark_rate if benchmark_rate != 0 else None
    std = float(bench.std(ddof=0))
    outperformance = abs_diff / std if std > 0 else None
    return RangeStat(
        label=label,
        subset_rate=subset_rate,
        benchmark_rate=benchmark_rate,
        abs_diff=abs_diff,
        rel_diff=rel_diff,
        benchmark_daily_std=std,
        std_outperformance=outperformance,
    )


def _column_mean(values: list[float | None]) -> float | None:
    defined = [v for v in values if v is not None]
    if not defined:
        return None
    return sum(defined) / len(defined)


def average_row(rows: Sequence[RangeStat], label: str = "Average") -> RangeStat | None:
    """Column-wise mean of the listed rows."""
    if not rows:
        return None
    return RangeStat(
        label=label,
        subset_rate=sum(r.subset_rate for r in rows) / len(rows),
        benchmark_rate=sum(r.benchmark_rate for r in rows) / len(rows),
        abs_diff=sum(r.abs_diff for r in rows) / len(rows),
        rel_diff=_column_mean([r.rel_diff for r in rows]),
        benchmark_daily_std=sum(r.benchmark_daily_std for r in rows) / len(rows),
        std_outperformance=_column_mean([r.std_outperformance for r in rows]),
    )


@dataclass(frozen=True)
class RangeReport:
    """Decline-rate rows for one threshold subset vs. the benchmark: one row
    per range with a defined day, then their "Average" row, if any."""

    kind: str
    threshold: float
    n_subset: int
    n_benchmark: int
    rows: tuple[RangeStat, ...]


def _range_report(
    study: EventStudy,
    threshold: float,
    kind: str,
    n_subset: int,
    subset_daily: np.ndarray,
    benchmark_daily: np.ndarray,
    ranges: Sequence[tuple[int, int]] = REPORT_RANGES,
) -> RangeReport:
    rows: list[RangeStat] = []
    for lo, hi in ranges:
        stat = range_stat(f"{lo} to {hi}", lo, hi, subset_daily, benchmark_daily, study.delay_lo)
        if stat is None:
            log.warning(
                "range %d-%d omitted for kind=%s threshold=%.1f: no defined events",
                lo,
                hi,
                kind,
                threshold,
            )
            continue
        rows.append(stat)
    average = average_row(rows)
    return RangeReport(
        kind=kind,
        threshold=threshold,
        n_subset=int(n_subset),
        n_benchmark=len(study),
        rows=(*rows, *([average] if average else [])),
    )


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    agg_rate: float
    agg_outperformance: float | None
    ind_rate: float
    ind_outperformance: float | None
    outperformance_gap: float | None


@dataclass(frozen=True)
class ComparisonReport:
    """Aggregated vs. individual risk subsets at one threshold."""

    threshold: float
    n_aggregated: int
    n_individual: int
    n_benchmark: int
    rows: tuple[ComparisonRow, ...]


def _comparison_row(agg: RangeStat, ind: RangeStat) -> ComparisonRow:
    gap = None
    if agg.std_outperformance is not None and ind.std_outperformance is not None:
        gap = agg.std_outperformance - ind.std_outperformance
    return ComparisonRow(
        label=agg.label,
        agg_rate=agg.subset_rate,
        agg_outperformance=agg.std_outperformance,
        ind_rate=ind.subset_rate,
        ind_outperformance=ind.std_outperformance,
        outperformance_gap=gap,
    )


def build_comparison_report(
    aggregated: RangeReport, individual: RangeReport
) -> ComparisonReport:
    """Join two same-threshold range reports row-by-row on the label, the
    "Average" rows included."""
    if aggregated.threshold != individual.threshold:
        raise ValidationError(
            "comparison requires matching thresholds, got "
            f"{aggregated.threshold} and {individual.threshold}"
        )
    by_label = {r.label: r for r in individual.rows}
    rows = tuple(
        _comparison_row(agg, by_label[agg.label])
        for agg in aggregated.rows
        if agg.label in by_label
    )
    return ComparisonReport(
        threshold=aggregated.threshold,
        n_aggregated=aggregated.n_subset,
        n_individual=individual.n_subset,
        n_benchmark=aggregated.n_benchmark,
        rows=rows,
    )


def _best_delay(
    delays: range, subset_daily: np.ndarray, benchmark_daily: np.ndarray
) -> tuple[int, float] | None:
    """The first delay with the largest subset - benchmark difference, and
    that difference; None when no delay is defined on both sides."""
    diffs = subset_daily - benchmark_daily
    if np.isnan(diffs).all():
        return None
    offset = int(np.nanargmax(diffs))
    return delays[offset], float(diffs[offset])


def proportion_stderr(p1: float, n1: int, p2: float, n2: int) -> float:
    """Standard error of the difference of two sample proportions."""
    for p in (p1, p2):
        if not (0.0 <= p <= 1.0):
            raise ValidationError(f"proportion outside [0,1]: {p}")
    if n1 <= 0 or n2 <= 0:
        raise ValidationError(f"sample sizes must be positive, got {n1}, {n2}")
    return math.sqrt(p1 * (1 - p1) / n1 + p2 * (1 - p2) / n2)


@dataclass(frozen=True)
class HistogramRow:
    edge: float
    n_aggregated: int
    pct_aggregated: float
    n_individual: int
    pct_individual: float


def risk_histogram(
    datapoints: Sequence[RiskDatapoint],
    edges: Sequence[float] = HISTOGRAM_EDGES,
) -> list[HistogramRow]:
    """Counts of datapoints whose risk reaches each edge, both risk kinds."""
    total = len(datapoints)
    rows = []
    for edge in edges:
        n_agg = sum(1 for dp in datapoints if dp.rr_total >= edge - THRESHOLD_SLACK)
        n_ind = sum(1 for dp in datapoints if dp.x_own >= edge - THRESHOLD_SLACK)
        rows.append(
            HistogramRow(
                edge=edge,
                n_aggregated=n_agg,
                pct_aggregated=100.0 * n_agg / total if total else 0.0,
                n_individual=n_ind,
                pct_individual=100.0 * n_ind / total if total else 0.0,
            )
        )
    return rows


@dataclass(frozen=True)
class BestDelay:
    """The delay of a (kind, threshold) subset's largest gap over the
    benchmark, with the two-proportion standard error of that gap (not
    corrected for picking the largest) and each side's defined events."""

    kind: str
    threshold: float
    delay: int
    subset_rate: float
    benchmark_rate: float
    diff: float
    stderr: float
    n_subset_defined: int
    n_benchmark_defined: int


@dataclass
class ReportBundle:
    """Every report of one event study, as the report stage writes them.
    `best_delays` holds one record per (kind, threshold) with a delay
    defined on both sides, sorted by (kind, threshold)."""

    range_reports: dict[tuple[str, float], RangeReport]
    comparison: ComparisonReport | None
    histogram: list[HistogramRow]
    best_delays: list[BestDelay]
    #: The daily rates of each (kind, threshold) subset, and the benchmark's.
    subset_daily: dict[tuple[str, float], np.ndarray]
    benchmark_daily: np.ndarray


def compute_reports(study: EventStudy, thresholds: Sequence[float]) -> ReportBundle:
    benchmark_daily, benchmark_defined = study.daily_rates()
    subset_daily: dict[tuple[str, float], np.ndarray] = {}
    range_reports: dict[tuple[str, float], RangeReport] = {}
    best_delays: list[BestDelay] = []
    for kind in (AGGREGATED, INDIVIDUAL):  # (kind, threshold) keys, in sorted order
        for threshold in sorted(set(thresholds)):
            key = (kind, threshold)
            rows = study.indices_at_threshold(threshold, kind)
            daily, defined = study.daily_rates(rows)
            subset_daily[key] = daily
            range_reports[key] = _range_report(
                study, threshold, kind, rows.size, daily, benchmark_daily
            )
            best = _best_delay(study.delays, daily, benchmark_daily)
            if best is None:
                continue
            delay, diff = best
            offset = delay - study.delay_lo
            n1, n2 = int(defined[offset]), int(benchmark_defined[offset])
            p1 = float(daily[offset]) / 100.0
            p2 = float(benchmark_daily[offset]) / 100.0
            stderr = proportion_stderr(p1, n1, p2, n2)
            best_delays.append(
                BestDelay(kind, threshold, delay, p1 * 100.0, p2 * 100.0, diff, stderr, n1, n2)
            )
    comparison = None
    if thresholds:
        top = max(thresholds)
        comparison = build_comparison_report(
            range_reports[(AGGREGATED, top)], range_reports[(INDIVIDUAL, top)]
        )
    histogram = risk_histogram(study.datapoints)
    return ReportBundle(
        range_reports, comparison, histogram, best_delays, subset_daily, benchmark_daily
    )


# ---------------------------------------------------------------------------
# Plain-text rendering
# ---------------------------------------------------------------------------


def _fmt(value: float | None, nd: int = 2) -> str:
    return "n/a" if value is None else f"{value:.{nd}f}"


def _text_rows(report: RangeReport | ComparisonReport) -> list[list[str]]:
    """A row of cells per report row, label first, then each number in the
    order its dataclass declares the fields, which is the header's order."""
    return [
        [row.label, *(_fmt(getattr(row, f.name)) for f in fields(row)[1:])] for row in report.rows
    ]


def _render_table(header: list[str], body: list[list[str]]) -> list[str]:
    widths = [
        max(len(header[c]), *(len(row[c]) for row in body)) if body else len(header[c])
        for c in range(len(header))
    ]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return lines


def render_range_report(report: RangeReport, params: Mapping[str, object]) -> str:
    """Aligned text table with the calibration and formula notes on top."""
    lines = [
        f"Decline rates after risk measurement — {report.kind} risk, "
        f"threshold {report.threshold:.1f}",
        "subset: datapoints with risk >= threshold; benchmark: all valid datapoints",
        f"subset points: {report.n_subset} of {report.n_benchmark}",
        "params: " + " ".join(f"{k}={v}" for k, v in sorted(params.items())),
        "range rate = unweighted mean of daily decline rates (percent) in the range;",
        "spread = population std of the benchmark's daily rates in the range;",
        "outperformance = (subset rate - benchmark rate) / spread",
        "",
    ]
    header = [
        "days delay",
        "subset %",
        "benchmark %",
        "abs diff pp",
        "rel diff %",
        "bench std",
        "outperf",
    ]
    lines.extend(_render_table(header, _text_rows(report)))
    return "\n".join(lines) + "\n"


def render_comparison_report(
    report: ComparisonReport, params: Mapping[str, object]
) -> str:
    lines = [
        f"Aggregated vs. individual risk subsets — threshold {report.threshold:.1f}",
        f"aggregated points: {report.n_aggregated}, individual points: "
        f"{report.n_individual}, benchmark: {report.n_benchmark}",
        "params: " + " ".join(f"{k}={v}" for k, v in sorted(params.items())),
        "outperf gap = aggregated outperformance - individual outperformance",
        "",
    ]
    header = [
        "days delay",
        "agg %",
        "agg outperf",
        "ind %",
        "ind outperf",
        "outperf gap",
    ]
    lines.extend(_render_table(header, _text_rows(report)))
    return "\n".join(lines) + "\n"
