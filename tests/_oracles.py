"""Independent reference implementations the tests check the package against.

Everything here is deliberately written from scratch, mostly with plain
Python arithmetic, so agreement with the package is evidence, not tautology.
The centrality oracles build the dense smoothed matrix the package never
builds: `dense_centrality` inverts it with numpy (fast enough for fixture
networks), `centrality_oracle` with pure-Python Gauss-Jordan, and
`exact_centrality` in rational arithmetic.

The dict forms that the networks and the centrality tables had before they
became arrays (`dict_networks`, `rank_scores`, `dict_tables`,
`dict_average_rank`) are the references the array forms are checked against.

`quarter_sentiment` counts each company's positive and negative articles
from the raw occurrences, the reference for the risk inputs that the package
reads off the networks' node weights.

A few helpers are views of package objects that only tests need, kept here so
the package holds only what the pipeline runs: `edge`, `as_dicts`,
`centrality_by_id`, `iter_matches`, `match_ids`, `range_report` and
`encoded_columns`. `traced_peak` measures what a call allocates.
"""

from __future__ import annotations

import csv
import io
import math
import re
import tracemalloc
from fractions import Fraction
from bisect import bisect_right
from dataclasses import dataclass, fields, replace
from datetime import date, timedelta
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from newsrisk.corpus import (
    MARKETCAP_COLUMNS,
    UNIVERSE_COLUMNS,
    Article,
    EntityRecord,
    EntityUniverse,
    MarketCapTable,
)
from newsrisk.entities import MatcherSet, OccurrenceSet, Scanner
from newsrisk.errors import ValidationError
from newsrisk.centrality import information_centrality
from newsrisk.networks import QuarterNetwork, build_networks, smooth
from newsrisk.pipeline import PIPELINE, RunConfig
from newsrisk.pricerows import PRICE_COLUMNS, PriceSeries, PriceTable
from newsrisk.quarters import Quarter, parse_quarter, quarter_of
from newsrisk.riskrank import PlayerSet, RiskCalibration, RiskDatapoint
from newsrisk import backtest as bt


# ---------------------------------------------------------------------------
# Dense inversion + centrality oracle
# ---------------------------------------------------------------------------


def invert_matrix(rows: list[list[float]]) -> list[list[float]]:
    """Gauss-Jordan with partial pivoting, pure Python."""
    n = len(rows)
    aug = [
        [float(v) for v in rows[i]] + [1.0 if j == i else 0.0 for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) < 1e-12:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0.0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def smoothed_weights(network) -> np.ndarray:
    """The dense (n, n) pair weights of a smoothed network: alpha plus the
    co-mention count off the diagonal, zero on it."""
    n = len(network.nodes)
    weights = np.full((n, n), network.alpha)
    np.fill_diagonal(weights, 0.0)
    for (a, b), count in zip(network.edge_index.tolist(), network.edge_counts.tolist()):
        weights[a, b] += count
        weights[b, a] += count
    return weights


def centrality_matrix(network) -> np.ndarray:
    """B = 1 - w_hat with diagonal 1 + S_hat, built densely."""
    weights = smoothed_weights(network)
    s_max = float(network.node_weights.max())
    s_hat = network.node_weights / s_max if s_max > 0 else np.zeros(len(weights))
    b = 1.0 - weights / float(weights.max())
    np.fill_diagonal(b, 1.0 + s_hat)
    return b


def dense_centrality(network) -> tuple[dict[str, float], float]:
    """Scores by the direct dense inverse, and the 1-norm condition number
    ||B||_1 * ||B^-1||_1."""
    b = centrality_matrix(network)
    c = np.linalg.inv(b)
    n = len(b)
    diag = np.diag(c)
    scores = n / (n * diag + diag.sum() - 2.0 * c.sum(axis=1))
    condition = float(np.linalg.norm(b, 1) * np.linalg.norm(c, 1))
    return dict(zip(network.nodes, scores.tolist())), condition


def centrality_denominators(network) -> dict[str, float]:
    """Per-node denominator n*C(i,i) + tr(C) - 2*rowsum_i(C) from scratch."""
    nodes = network.nodes
    n = len(nodes)
    c = invert_matrix(centrality_matrix(network).tolist())
    trace = sum(c[i][i] for i in range(n))
    return {
        node: n * c[i][i] + trace - 2.0 * sum(c[i]) for i, node in enumerate(nodes)
    }


def centrality_oracle(network) -> dict[str, float]:
    n = len(network.nodes)
    return {node: n / d for node, d in centrality_denominators(network).items()}


def exact_centrality(network) -> dict[str, Fraction]:
    """Scores in rational arithmetic: B from the exact values of alpha and
    the counts, inverted by Gauss-Jordan over `Fraction`. Small n only."""
    nodes = network.nodes
    n = len(nodes)
    alpha = Fraction(network.alpha)
    counts = {
        frozenset(pair): Fraction(count)
        for pair, count in zip(network.edge_index.tolist(), network.edge_counts.tolist())
    }
    w_max = alpha + max(counts.values(), default=Fraction(0))
    s = [Fraction(x) for x in network.node_weights.tolist()]
    s_max = max(s)
    aug = []
    for i in range(n):
        row = [
            1 + (s[i] / s_max if s_max else 0) if i == j
            else 1 - (alpha + counts.get(frozenset((i, j)), 0)) / w_max
            for j in range(n)
        ]
        aug.append(row + [Fraction(int(i == j)) for j in range(n)])
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    c = [row[n:] for row in aug]
    trace = sum(c[i][i] for i in range(n))
    return {node: n / (n * c[i][i] + trace - 2 * sum(c[i])) for i, node in enumerate(nodes)}


# ---------------------------------------------------------------------------
# Dict references for the networks and the centrality tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DictNetwork:
    """A co-occurrence network as dicts: the nonzero node weights by id and
    the edge weights by sorted id pair, each in sorted key order."""

    quarter: Quarter
    polarity: str
    nodes: tuple[str, ...]
    node_weights: dict[str, int]
    edge_weights: dict[tuple[str, str], int]
    article_count: int


def dict_networks(
    occurrences: Iterable[OccurrenceSet], quarter: Quarter, universe_ids: Sequence[str]
) -> dict[str, DictNetwork]:
    """The networks `build_networks` builds, counted in dicts one article
    and one pair at a time, for well-formed occurrences."""
    kinds = ("positive", "negative", "mixed")
    s: dict[str, dict[str, int]] = {k: {} for k in kinds}
    w: dict[str, dict[tuple[str, str], int]] = {k: {} for k in kinds}
    counts = {k: 0 for k in kinds}
    for occ in occurrences:
        for kind in (occ.polarity, "mixed"):
            counts[kind] += 1
            mentioned = sorted(occ.companies)
            for i in mentioned:
                s[kind][i] = s[kind].get(i, 0) + 1
            for key in combinations(mentioned, 2):
                w[kind][key] = w[kind].get(key, 0) + 1
    return {
        kind: DictNetwork(
            quarter, kind, tuple(sorted(universe_ids)), dict(sorted(s[kind].items())),
            dict(sorted(w[kind].items())), counts[kind],
        )
        for kind in kinds
    }


def as_dicts(network: QuarterNetwork) -> DictNetwork:
    """The dict form of an array network."""
    nodes = network.nodes
    weights = network.node_weights.tolist()
    return DictNetwork(
        network.quarter, network.polarity, nodes,
        {node: s for node, s in zip(nodes, weights) if s},
        {
            (nodes[i], nodes[j]): count
            for (i, j), count in zip(network.edge_index.tolist(), network.edge_weights.tolist())
        },
        network.article_count,
    )


def as_arrays(network: DictNetwork) -> QuarterNetwork:
    """The array form of a dict network, for networks built by hand."""
    position = {node: k for k, node in enumerate(network.nodes)}
    pairs = sorted((position[i], position[j], w) for (i, j), w in network.edge_weights.items())
    return QuarterNetwork(
        network.quarter, network.polarity, network.nodes,
        np.array([network.node_weights.get(node, 0) for node in network.nodes], dtype=np.int64),
        np.array([(i, j) for i, j, _ in pairs], dtype=np.intp).reshape(-1, 2),
        np.array([w for _, _, w in pairs], dtype=np.int64),
        network.article_count,
    )


def network_fields(network: QuarterNetwork) -> tuple:
    """Every field of an array network, each array as its dtype and values,
    so that two networks compare by value."""
    return tuple(
        (value.dtype.str, value.tolist()) if isinstance(value, np.ndarray) else value
        for value in (getattr(network, f.name) for f in fields(network))
    )


def dict_adjacency(network: DictNetwork) -> dict[str, dict[str, int]]:
    """The neighbor map of a dict network, filled in its edge order."""
    adj: dict[str, dict[str, int]] = {}
    for (i, j), w in network.edge_weights.items():
        adj.setdefault(i, {})[j] = w
        adj.setdefault(j, {})[i] = w
    return adj


def edge(network: QuarterNetwork, i: str, j: str) -> int:
    """The co-mention count of an unordered pair of a network."""
    if i == j:
        raise ValidationError(f"self-edge requested for {i!r}")
    return as_dicts(network).edge_weights.get((i, j) if i < j else (j, i), 0)


def centrality_by_id(network) -> dict[str, float]:
    """`information_centrality` of a smoothed network, by node id."""
    return dict(zip(network.nodes, information_centrality(network).tolist()))


def rank_scores(scores: Mapping[str, float]) -> dict[str, int]:
    """Ranks 1..n, 1 = highest score, ties by canonical_id order."""
    ordered = sorted(scores, key=lambda cid: (-scores[cid], cid))
    return {cid: rank for rank, cid in enumerate(ordered, start=1)}


def dict_tables(
    raw: Mapping[str, float], caps: Mapping[str, float]
) -> tuple[tuple[dict, dict], tuple[dict, dict]]:
    """The scores and ranks of the absolute and the normalized table over
    dicts: min-max rescaled (all 0 when every score is equal), then divided
    by each cap that `caps` holds."""
    values = raw.values()
    lo, hi = (min(values), max(values)) if raw else (0.0, 0.0)
    rescaled = {k: (v - lo) / (hi - lo) if hi != lo else 0.0 for k, v in raw.items()}
    normalized = {k: v / caps[k] for k, v in rescaled.items() if k in caps}
    return (rescaled, rank_scores(rescaled)), (normalized, rank_scores(normalized))


def table_dicts(table) -> tuple[dict[str, float], dict[str, int]]:
    """The scores and ranks of a CentralityTable, by id."""
    ids = table.ids.tolist()
    return dict(zip(ids, table.scores.tolist())), dict(zip(ids, table.ranks.tolist()))


def dict_average_rank(ranks: Iterable[Mapping[str, int]], top_k: int) -> list[tuple]:
    """(id, mean rank, quarters scored) over rank dicts, ascending by mean
    and then id, truncated to top_k."""
    totals: dict[str, list[int]] = {}
    for table in ranks:
        for cid, rank in table.items():
            totals.setdefault(cid, []).append(rank)
    entries = [(cid, sum(r) / len(r), len(r)) for cid, r in totals.items()]
    return sorted(entries, key=lambda e: (e[1], e[0]))[:top_k]


# ---------------------------------------------------------------------------
# Flat-alternation matcher oracle
# ---------------------------------------------------------------------------


def _guarded(pattern: str, literal: str) -> str:
    """Wrap a literal pattern so it cannot match inside a larger word."""
    head = r"(?<!\w)" if literal and (literal[0].isalnum() or literal[0] == "_") else ""
    tail = r"(?!\w)" if literal and (literal[-1].isalnum() or literal[-1] == "_") else ""
    return head + pattern + tail


def flat_matcher(universe: EntityUniverse) -> Scanner:
    """A Scanner whose regexes are one flat alternation per category over
    every literal of the universe, each guarded on its own and longer
    literals first."""
    matcher = MatcherSet(universe)
    names = []
    for key in sorted(matcher.name_map, key=lambda k: (-len(k), k)):
        body = r"\s+".join(re.escape(w) for w in key.split(" "))
        names.append(_guarded(body, key))
    name_re = re.compile("|".join(f"(?:{p})" for p in names), re.IGNORECASE) if names else None
    tickers: list[tuple[str, str]] = []  # (sort key, pattern)
    for key in matcher.exch_map:
        exch, _, tick = key.partition(":")
        pat = r"\(\s*" + re.escape(exch) + r"\s*:\s*" + re.escape(tick) + r"\s*\)"
        tickers.append((key, pat))
    for key in matcher.bare_map:
        tickers.append((key, _guarded(re.escape(key), key)))
    tickers.sort(key=lambda kp: (-len(kp[0]), kp[0]))
    ticker_re = re.compile("|".join(f"(?:{p})" for _, p in tickers)) if tickers else None
    return Scanner(matcher, name_re, ticker_re)


@dataclass(frozen=True)
class Match:
    canonical_id: str
    literal: str
    offset: int


def iter_matches(scanner: Scanner, text: str) -> list[Match]:
    """Every mention the scanner's regexes find in `text`, with its matched
    literal and offset, in order of position."""
    found = []
    for pattern, resolve in scanner.patterns:
        for m in pattern.finditer(text):
            cid = resolve(m.group(0))
            if cid is not None:
                found.append(Match(cid, m.group(0), m.start()))
    found.sort(key=lambda mt: (mt.offset, mt.canonical_id))
    return found


def match_ids(matchers: MatcherSet, text: str) -> frozenset[str]:
    """The companies `text` mentions, with the regexes compiled for it alone."""
    return matchers.compile((text,)).match_ids(text)


# ---------------------------------------------------------------------------
# Row-at-a-time price loader and scalar event oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarSeries:
    """One price series as tuples of `date` and float, searched by bisection."""

    key: str
    dates: tuple[date, ...]
    closes: tuple[float, ...]

    def on_or_before(self, day: date) -> tuple[date, float] | None:
        """Most recent (date, close) at or before `day`, if any."""
        idx = bisect_right(self.dates, day)
        if idx == 0:
            return None
        return self.dates[idx - 1], self.closes[idx - 1]


def scalar_series(series: PriceSeries) -> ScalarSeries:
    return ScalarSeries(series.key, tuple(series.dates.tolist()), tuple(series.closes.tolist()))


def load_prices_by_row(
    path: str | Path, universe: EntityUniverse | None = None
) -> dict[str, ScalarSeries]:
    """`load_prices` one `csv.DictReader` row at a time, for well-formed files."""
    path = Path(path)
    per_ticker: dict[str, tuple[list[date], list[float]]] = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(PRICE_COLUMNS):
            raise ValidationError(f"{path.name}: columns {reader.fieldnames}")
        for lineno, row in enumerate(reader, start=2):
            ticker = row["ticker"].strip()
            day = date.fromisoformat(row["date"].strip())
            close = float(row["adjusted_close"])
            if close <= 0:
                raise ValidationError(f"{path.name}:{lineno}: non-positive price")
            dates, closes = per_ticker.setdefault(ticker, ([], []))
            if dates and day <= dates[-1]:
                raise ValidationError(f"{path.name}:{lineno}: dates not strictly increasing")
            dates.append(day)
            closes.append(close)
    chosen: dict[str, ScalarSeries] = {}
    for ticker in sorted(per_ticker):
        dates, closes = per_ticker[ticker]
        key = ticker
        if universe is not None:
            if ticker not in universe.ticker_to_id:
                continue  # an unknown ticker keys no series
            key = universe.ticker_to_id[ticker]
            primary = universe.records[key].primary_ticker
            if key in chosen and ticker != primary:
                continue  # keep the earlier (or primary) series
        chosen[key] = ScalarSeries(key, tuple(dates), tuple(closes))
    return dict(sorted(chosen.items()))


def measurement_date(quarter: Quarter, series: ScalarSeries) -> date | None:
    """Last trading day within the quarter, or None if the quarter has none."""
    found = series.on_or_before(quarter.end_date)
    if found is None:
        return None
    day, _ = found
    return day if day >= quarter.start_date else None


def decline_event(series: ScalarSeries, measured: date, delay: int) -> bool | None:
    """Strict decline at `delay` calendar days after the measurement.

    The delayed price is the most recent close at or before measured+delay;
    if no trading day after the measurement qualifies, the event is
    undefined (None).
    """
    base = series.on_or_before(measured)
    if base is None:
        return None
    hit = series.on_or_before(measured + timedelta(days=delay))
    if hit is None or hit[0] <= measured:
        return None
    return hit[1] < base[1]


def scalar_events(
    datapoints: Iterable[RiskDatapoint],
    table: Mapping[str, ScalarSeries],
    delay_lo: int,
    delay_hi: int,
) -> tuple[list[RiskDatapoint], list[list[int]], tuple[int, int, int]]:
    """`compute_events` one delay at a time: kept datapoints, outcome rows,
    and the (no series, no quarter day, no events) counters."""
    kept: list[RiskDatapoint] = []
    rows: list[list[int]] = []
    n_no_series = n_no_quarter_day = n_no_events = 0
    for dp in datapoints:
        series = table.get(dp.canonical_id)
        if series is None:
            n_no_series += 1
            continue
        measured = measurement_date(dp.quarter, series)
        if measured is None:
            n_no_quarter_day += 1
            continue
        row = []
        for delay in range(delay_lo, delay_hi + 1):
            event = decline_event(series, measured, delay)
            row.append(-1 if event is None else int(event))
        if all(v < 0 for v in row):
            n_no_events += 1
            continue
        close = series.on_or_before(measured)[1]
        kept.append(replace(dp, measurement_date=measured, close=close))
        rows.append(row)
    return kept, rows, (n_no_series, n_no_quarter_day, n_no_events)


# ---------------------------------------------------------------------------
# Writers for the universe, price and market-cap files
# ---------------------------------------------------------------------------


def write_universe(path: str | Path, universe: EntityUniverse) -> int:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(UNIVERSE_COLUMNS)
        for rec in universe:
            merged = [t for t in rec.merged_tickers if t != rec.primary_ticker]
            writer.writerow(
                [
                    rec.canonical_id,
                    rec.display_name,
                    rec.primary_ticker,
                    rec.exchange,
                    "|".join(rec.name_variants),
                    "|".join(merged),
                ]
            )
    return len(universe)


def write_prices(path: str | Path, table: PriceTable) -> int:
    path = Path(path)
    n = 0
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PRICE_COLUMNS)
        for key in sorted(table.series):
            series = table.series[key]
            for day, close in zip(series.dates.tolist(), series.closes):
                # repr of a numpy float64 is "np.float64(...)" in numpy 2
                writer.writerow([key, day.isoformat(), repr(float(close))])
                n += 1
    return n


def write_marketcaps(path: str | Path, table: MarketCapTable) -> int:
    path = Path(path)
    rows = sorted(table.entries.items(), key=lambda kv: (kv[0][0], kv[0][1]))
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MARKETCAP_COLUMNS)
        for (cid, quarter), cap in rows:
            writer.writerow([cid, quarter.label, repr(cap)])
    return len(rows)


# ---------------------------------------------------------------------------
# Per-row artifact writer
# ---------------------------------------------------------------------------


def _cell(value: object) -> object:
    if value is None or value != value:  # NaN rates are undefined, like None
        return ""
    return repr(float(value)) if isinstance(value, float) else value


def _csv_row(cells: Iterable) -> str:
    """One row as `csv.writer` writes it, ended by a line feed. The writer's
    line terminator is CR LF, so a cell holding a lone carriage return is
    quoted on every Python version, as `csv.reader` needs to read it back."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2] + "\n"


def traced_peak(call, *args):
    """`call(*args)` and the peak bytes it allocated, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        result = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def encoded_columns(artifact, cfg: RunConfig, values: Mapping) -> list[list]:
    """An artifact's encoded columns whole, its encoder's blocks joined."""
    columns: list[list] = [[] for _ in artifact.columns]
    for block in artifact.encode(cfg, values):
        for column, cells in zip(columns, block):
            column.extend(cells)
    return columns


def render_by_row(artifact, cfg: RunConfig, values: Mapping) -> str:
    """An artifact's file content written row by row through `csv.writer`:
    None and NaN cells empty, floats by `repr`, every other cell as
    `csv.writer` formats it, a lone carriage return quoted. The columnar
    `pipeline.render` must match it byte for byte."""
    if artifact.columns is None:
        return artifact.encode(cfg, values)
    rows = [_csv_row(artifact.columns)]
    columns = encoded_columns(artifact, cfg, values)
    rows += [_csv_row([_cell(v) for v in row]) for row in zip(*columns)]
    return "".join(rows)


# ---------------------------------------------------------------------------
# Choquet integral oracle
# ---------------------------------------------------------------------------


def mobius_capacity(players: PlayerSet) -> dict[frozenset, float]:
    """Capacity of every coalition from the Möbius masses.

    Singleton mass: phi_p - 1/2 * sum of interactions touching p.
    Pair mass: the interaction itself. v(S) sums masses of subsets of S.
    """
    touching: dict[str, float] = {p: 0.0 for p in players.players}
    for (a, b), value in players.interactions.items():
        touching[a] += value
        touching[b] += value
    mass: dict[frozenset, float] = {}
    for p in players.players:
        mass[frozenset([p])] = players.phi[p] - 0.5 * touching[p]
    for (a, b), value in players.interactions.items():
        mass[frozenset([a, b])] = value

    capacity: dict[frozenset, float] = {frozenset(): 0.0}
    elems = list(players.players)
    for r in range(1, len(elems) + 1):
        for combo in combinations(elems, r):
            s = frozenset(combo)
            v = 0.0
            for sub, m in mass.items():
                if sub <= s:
                    v += m
            capacity[s] = v
    return capacity


def choquet_integral(players: PlayerSet, x: dict[str, float]) -> float:
    """Sort-based Choquet integral of x against the Möbius-induced capacity."""
    capacity = mobius_capacity(players)
    order = sorted(players.players, key=lambda p: x[p])
    total = 0.0
    previous = 0.0
    for idx, p in enumerate(order):
        level = frozenset(order[idx:])
        total += (x[p] - previous) * capacity[level]
        previous = x[p]
    return total


# ---------------------------------------------------------------------------
# Sentiment counted from the raw occurrences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SentimentRecord:
    canonical_id: str
    quarter: Quarter
    s_positive: int
    s_negative: int

    @property
    def s_rel(self) -> float:
        """Negative share of the company's news. `quarter_sentiment` makes a
        record only for a company some article mentions, so it has news."""
        return self.s_negative / (self.s_positive + self.s_negative)


def quarter_sentiment(
    occurrences: Iterable[OccurrenceSet], quarter: Quarter
) -> dict[str, SentimentRecord]:
    """Positive/negative article counts per company mentioned this quarter,
    counted article by article rather than read off the networks."""
    pos: dict[str, int] = {}
    neg: dict[str, int] = {}
    for occ in occurrences:
        bucket = pos if occ.polarity == "positive" else neg
        for cid in occ.companies:
            bucket[cid] = bucket.get(cid, 0) + 1
    return {
        cid: SentimentRecord(cid, quarter, pos.get(cid, 0), neg.get(cid, 0))
        for cid in sorted(set(pos) | set(neg))
    }


# ---------------------------------------------------------------------------
# Article grouping and rank correlation
# ---------------------------------------------------------------------------


def analysis_articles(articles: list[Article]) -> list[Article]:
    """The articles inside the configured window, i.e. those analysed."""
    return [a for a in articles if a.in_window]


def articles_by_quarter(articles: list[Article]) -> dict[Quarter, list[Article]]:
    grouped: dict[Quarter, list[Article]] = {}
    for article in articles:
        grouped.setdefault(quarter_of(article.published_at), []).append(article)
    return {q: grouped[q] for q in sorted(grouped)}


def kendall_tau(ranks_a: dict[str, int], ranks_b: dict[str, int]) -> float:
    """Rank correlation over the common keys (tie-free ranks assumed)."""
    common = sorted(set(ranks_a) & set(ranks_b))
    n = len(common)
    if n < 2:
        return 1.0
    concordant = 0
    discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            da = ranks_a[common[i]] - ranks_a[common[j]]
            db = ranks_b[common[i]] - ranks_b[common[j]]
            prod = da * db
            if prod > 0:
                concordant += 1
            elif prod < 0:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


# ---------------------------------------------------------------------------
# Random graph generators (seeded by the caller)
# ---------------------------------------------------------------------------

_Q = Quarter(2012, 3)


def random_occurrences(
    rng: np.random.Generator,
    nodes: list[str],
    n_articles: int,
    max_mentions: int = 2,
    polarity: str = "negative",
) -> list[OccurrenceSet]:
    occs = []
    for a in range(n_articles):
        k = int(rng.integers(1, max_mentions + 1))
        ids = rng.choice(nodes, size=min(k, len(nodes)), replace=False)
        occs.append(
            OccurrenceSet(f"a{a:04d}", _Q, polarity, frozenset(str(x) for x in ids))
        )
    return occs


def random_anchored_network(rng: np.random.Generator, max_base: int = 8):
    """Random smoothed network guaranteed solvable: two extra nodes appear
    only in joint articles, more of them than any other node has, so the
    maximum pair weight equals the maximum node weight."""
    n_base = int(rng.integers(1, max_base + 1))
    nodes = [f"n{i:02d}" for i in range(n_base)] + ["xa", "xb"]
    m = int(rng.integers(1, 26))
    occs = random_occurrences(rng, nodes[:n_base], m)
    for a in range(m + 1):
        occs.append(OccurrenceSet(f"x{a:04d}", _Q, "negative", frozenset(["xa", "xb"])))
    net = build_networks(occs, _Q, nodes)["negative"]
    alpha = float(rng.choice([0.1, 0.5, 1.0]))
    return smooth(net, alpha)


def random_tied_occurrences(
    rng: np.random.Generator, max_nodes: int = 20
) -> tuple[list[str], list[OccurrenceSet]]:
    """Nodes and articles of a random solvable network with exact ties.

    Beside an anchored random core (as in `random_anchored_network`), some
    companies only ever appear alone, once or twice, and some never appear:
    companies without an edge and with equal counts are exchangeable.
    """
    n_core = int(rng.integers(1, 8))
    n_alone = int(rng.integers(0, 6))
    n_silent = int(rng.integers(0, max_nodes - 2 - n_core - n_alone + 1))
    core = [f"c{i:02d}" for i in range(n_core)]
    alone = [f"s{i:02d}" for i in range(n_alone)]
    nodes = core + alone + [f"z{i:02d}" for i in range(n_silent)] + ["xa", "xb"]
    m = int(rng.integers(1, 26))
    occs = random_occurrences(rng, core, m)
    for node in alone:
        for a in range(int(rng.integers(1, 3))):
            occs.append(OccurrenceSet(f"{node}-{a}", _Q, "negative", frozenset([node])))
    for a in range(m + 2):
        occs.append(OccurrenceSet(f"x{a:04d}", _Q, "negative", frozenset(["xa", "xb"])))
    return nodes, occs


def truth_occurrences(fixture) -> dict[Quarter, list[OccurrenceSet]]:
    """A fixture's planted mention sets, by quarter in order."""
    by_quarter: dict[Quarter, list[OccurrenceSet]] = {}
    for article in fixture.articles:
        quarter = quarter_of(article.published_at)
        by_quarter.setdefault(quarter, []).append(
            OccurrenceSet(
                article.id, quarter, article.polarity,
                frozenset(fixture.truth.mentions[article.id]),
            )
        )
    return {q: by_quarter[q] for q in sorted(by_quarter)}


def truth_networks(fixture, alpha: float = 0.1):
    """Every smoothed (quarter, polarity) network of a fixture, built from
    its planted mentions."""
    ids = [c.canonical_id for c in fixture.companies]
    for quarter, occurrences in truth_occurrences(fixture).items():
        for network in build_networks(occurrences, quarter, ids).values():
            yield smooth(network, alpha)


def indefinite_network(k_triangle: int = 1, k_pair: int = 20, alpha: float = 0.1):
    """A network whose pseudo-adjacency matrix has non-positive denominators.

    Triangle articles push a node's pairwise link total past its own article
    count; the heavy disjoint pair keeps the normalizing maximum high, so the
    off-diagonal entries stay near one and the diagonal cannot compensate.
    """
    occs = [
        OccurrenceSet(f"t{i}", _Q, "negative", frozenset(["a", "b", "c"]))
        for i in range(k_triangle)
    ]
    occs += [
        OccurrenceSet(f"p{i}", _Q, "negative", frozenset(["d", "e"]))
        for i in range(k_pair)
    ]
    net = build_networks(occs, _Q, ["a", "b", "c", "d", "e"])["negative"]
    return smooth(net, alpha)


def random_mixed_network(rng: np.random.Generator, n_nodes: int, n_articles: int):
    """Unsmoothed mixed network over few nodes, for risk-aggregation tests."""
    nodes = [f"n{i:02d}" for i in range(n_nodes)]
    occs = []
    for a in range(n_articles):
        k = int(rng.integers(1, min(3, n_nodes) + 1))
        ids = rng.choice(nodes, size=k, replace=False)
        pol = "negative" if rng.random() < 0.5 else "positive"
        occs.append(OccurrenceSet(f"a{a:04d}", _Q, pol, frozenset(str(x) for x in ids)))
    return build_networks(occs, _Q, nodes)["mixed"], occs


# ---------------------------------------------------------------------------
# In-memory end-to-end study over a generated fixture
# ---------------------------------------------------------------------------


def fixture_universe(fixture) -> EntityUniverse:
    """The entity universe of a generated fixture, built in memory."""
    return EntityUniverse(
        EntityRecord(
            canonical_id=c.canonical_id,
            display_name=c.display_name,
            primary_ticker=c.ticker,
            exchange=c.exchange,
            name_variants=(c.display_name,),
            merged_tickers=(c.ticker,),
        )
        for c in fixture.companies
    )


def range_report(
    study: bt.EventStudy,
    threshold: float,
    kind: str,
    ranges: Sequence[tuple[int, int]] = bt.REPORT_RANGES,
) -> bt.RangeReport:
    """The range report of one (kind, threshold) subset, as the report
    stage builds it, over any delay ranges."""
    rows = study.indices_at_threshold(threshold, kind)
    return bt._range_report(
        study, threshold, kind, rows.size, study.daily_rates(rows)[0], study.daily_rates()[0],
        ranges,
    )


def best_delay_by_loop(
    delays: range, subset_daily: np.ndarray, benchmark_daily: np.ndarray
) -> tuple[int, float] | None:
    """The first delay with the largest subset - benchmark difference, by a
    walk over the delays that skips a day undefined on either side: the
    reference `backtest._best_delay` is checked against."""
    best: tuple[int, float] | None = None
    for offset, delay in enumerate(delays):
        s, b = subset_daily[offset], benchmark_daily[offset]
        if math.isnan(s) or math.isnan(b):
            continue
        diff = float(s - b)
        if best is None or diff > best[1]:
            best = (delay, diff)
    return best


class FixtureStudy:
    """The full analysis chain run on a Fixture without touching disk."""

    def __init__(self, fixture, alpha=0.1, top_k=50, calibration=None,
                 delay_lo=bt.DELAY_LO, delay_hi=bt.DELAY_HI):
        calibration = calibration or RiskCalibration()
        self.fixture = fixture
        self.universe = fixture_universe(fixture)
        ticker_to_id = {c.ticker: c.canonical_id for c in fixture.companies}
        self.prices = PriceTable(
            PriceSeries(key=ticker_to_id[t], dates=fixture.calendar, closes=closes)
            for t, closes in fixture.prices.items()
            if t in ticker_to_id  # share-class series resolve to the primary
        )
        self.caps = MarketCapTable(
            {
                (cid, parse_quarter(label)): cap
                for (cid, label), cap in fixture.marketcaps.items()
            }
        )
        unused = Path("-")  # the inputs are handed over in memory
        self.config = RunConfig(
            unused, unused, unused, unused, unused,
            alpha=alpha, calibration=calibration, top_k=top_k,
            delay_lo=delay_lo, delay_hi=delay_hi,
        )
        self.values = {
            "articles": fixture.articles,
            "universe": self.universe,
            "prices": self.prices,
            "marketcaps": self.caps,
        }
        for stage in PIPELINE[:-1]:  # every stage but the report
            self.values.update(stage.compute(self.config, self.values))
        self.networks = self.values["networks"]
        self.tables = self.values["tables"]
        self.study = self.values["study"]

    def range_row(self, threshold: float, kind: str, label: str) -> bt.RangeStat:
        report = range_report(self.study, threshold, kind)
        for row in report.rows:
            if row.label == label:
                return row
        raise AssertionError(f"range row {label!r} missing from report")


def planted_drift(fixture) -> dict[str, np.ndarray]:
    """The log drift planted on each trading day, by drifted canonical id.

    A walk over calendar days, fed from the fixture's truth: each day of a
    drift window adds the daily log drift, each day of the recovery window
    after it takes the drift away again, and a trading day reads the sum of
    every calendar day up to it."""
    spec = fixture.spec
    daily = math.log1p(spec.drift_pct_per_day / 100.0)
    lo, hi = spec.drift_window
    per_day: dict[str, dict[date, float]] = {}
    for cid, label in fixture.truth.drifted:
        measured = date.fromisoformat(fixture.truth.measurement_dates[label])
        steps = per_day.setdefault(cid, {})
        for offset in range(lo, hi + 1):
            day = measured + timedelta(days=offset)
            steps[day] = steps.get(day, 0.0) + daily
        for offset in range(hi + 1, 2 * hi - lo + 2):
            day = measured + timedelta(days=offset)
            steps[day] = steps.get(day, 0.0) - daily
    trading = fixture.calendar.tolist()
    paths = {}
    for cid, steps in per_day.items():
        total, day, path = 0.0, trading[0], []
        for trading_day in trading:
            while day <= trading_day:
                total += steps.get(day, 0.0)
                day += timedelta(days=1)
            path.append(total)
        paths[cid] = np.array(path)
    return paths


def null_outperformance(seed: int, label: str = "21 to 30") -> float:
    """Threshold-1.0 aggregated outperformance of a no-drift fixture."""
    from newsrisk.fixtures import FixtureSpec, generate_fixture

    fixture = generate_fixture(FixtureSpec(seed=seed, drift_pct_per_day=0.0))
    run = FixtureStudy(fixture)
    row = run.range_row(1.0, bt.AGGREGATED, label)
    assert row.std_outperformance is not None
    return row.std_outperformance
