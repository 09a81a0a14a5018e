"""Deterministic synthetic data: universe, corpus, prices, market caps.

The generator exists so the pipeline can be exercised and validated without
proprietary data. It records its own ground truth (planted mentions,
polarity counts, all-negative company-quarters, drifted paths) so tests can
treat the generator as an oracle.

Two properties are engineered, not emergent:

* Each quarter contains a few isolated "clusters": small disjoint company
  groups mentioned only by all-negative articles that stay within the
  cluster. Every member's relative sentiment is exactly 1 and all of its
  one- and two-hop players are cluster members, so its aggregated risk is
  exactly 1 — guaranteeing the top risk threshold is populated.
* When a drift is configured, every company-quarter whose true relative
  sentiment is 1 gets a planted log-price drift over a calendar-day window
  after that quarter's measurement date, followed by a symmetric recovery
  (a transient dip, so later windows are not contaminated).
* Two "anchor" companies appear ONLY in joint articles about both of them,
  and every other article mentions at most two companies. That makes each
  company's total pairwise link weight at most its own article count, while
  the anchors pin the maximum link weight to the maximum article count in
  every polarity slice. After rescaling, the pseudo-adjacency matrix is then
  strictly diagonally dominant off the all-ones direction (with margin
  alpha/max-weight), hence positive definite, so the centrality solve never
  rejects a quarter — for any smoothing constant. Articles mentioning three
  or more companies would break the accounting (they add two-plus units of
  link weight per unit of article count), which is why the default mention
  distribution stops at two.

Prices follow a slow random-walk trend plus INDEPENDENT per-day noise:
log P(t) = log P0 + trend(t) + eps(t) + planted(t). The i.i.d. eps term
keeps decline indicators at nearby delays nearly independent, which makes
null-run outperformance statistics behave like a standard normal rather
than a serially correlated walk. One refinement matters: eps is zeroed on
each quarter's measurement date. Every delay's decline indicator compares
against the SAME base-date price, so a noise shock on that date would be a
common term across all ninety indicators of a company-quarter and would
re-correlate them (the across-delay correlation floors at 1/2). With the
base date noiseless, only the slow trend couples delays.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from math import log1p
from pathlib import Path

import numpy as np

from .corpus import (
    MARKETCAP_COLUMNS,
    PRICE_COLUMNS,
    UNIVERSE_COLUMNS,
    Article,
    write_articles,
)
from .errors import ValidationError
from .quarters import Quarter, quarter_range

log = logging.getLogger(__name__)

_SYLLABLES = (
    "bel", "cor", "dan", "fen", "gal", "hol", "jur", "kel", "lom", "mar",
    "nov", "or", "pel", "quin", "ras", "sol", "tur", "ul", "van", "wex",
    "yor", "zan", "ald", "bri", "cas", "del", "est", "fir", "gro", "hav",
)
_SUFFIXES = ("Inc.", "Corp", "Group", "Ltd", "Co.", "PLC")
_EXCHANGES = ("NYSE", "NASDAQ")

_FILLER_SENTENCES = (
    "Margins compressed again and guidance stayed conservative.",
    "Volume trends were uneven across regions this period.",
    "Management reiterated the outlook on the earnings call.",
    "Free cash flow conversion remains the metric to watch.",
    "Inventory levels normalized after a heavy winter.",
    "The dividend policy was left unchanged.",
    "Capital expenditure plans look fully funded.",
    "Channel checks suggest steady sell-through.",
    "Input costs eased while pricing held firm.",
    "The balance sheet carries modest leverage.",
)

_MENTION_TEMPLATES_NAME = (
    "Shares of {m} moved on heavy turnover.",
    "Analysts debated the outlook for {m}.",
    "Our desk reviewed the quarterly filing from {m}.",
    "{m} hosted its investor day this week.",
    "Positioning in {m} was a frequent subject.",
)

_MENTION_TEMPLATES_TICKER = (
    "I remain positioned in {m} going into the print.",
    "The tape in {m} was heavy all session.",
    "Options flow in {m} skewed to puts.",
    "Momentum screens flagged {m} again.",
)


@dataclass(frozen=True)
class FixtureSpec:
    """Size, randomness, and planted-effect parameters of one fixture."""

    seed: int = 7
    n_companies: int = 60
    n_quarters: int = 8
    n_articles: int = 2000
    start: Quarter = Quarter(2011, 1)
    negative_share: float = 0.25
    clusters_per_quarter: int = 5
    cluster_size: int = 5
    cluster_articles: int = 8
    #: Joint articles about the anchor pair per quarter, by polarity. Each
    #: count must stay above any single company's plausible article count in
    #: that polarity so the anchors hold the maximum node and pair weights.
    anchor_positive_articles: int = 18
    anchor_negative_articles: int = 12
    #: Probability of a regular article mentioning 1, 2, 3, or 4 companies.
    mention_count_weights: tuple[float, ...] = (0.78, 0.22, 0.0, 0.0)
    #: Percent per calendar day added to drifted log prices (negative = decline).
    drift_pct_per_day: float = 0.0
    #: Calendar-day window after the measurement date getting the drift.
    drift_window: tuple[int, int] = (1, 30)
    daily_noise_pct: float = 2.5
    trend_vol_pct: float = 0.1
    missing_caps: int = 1
    #: Companies emitted as two universe rows (extra share class).
    share_class_pairs: int = 0

    def __post_init__(self):
        if self.n_companies < self.clusters_per_quarter * self.cluster_size + 2:
            raise ValidationError(
                "not enough companies for disjoint clusters plus the anchor pair"
            )
        if not (0.0 <= self.negative_share <= 1.0):
            raise ValidationError("negative_share must be in [0, 1]")
        if min(self.anchor_positive_articles, self.anchor_negative_articles) < 0:
            raise ValidationError("anchor article counts must be non-negative")
        if len(self.mention_count_weights) != 4 or not np.isclose(
            sum(self.mention_count_weights), 1.0
        ):
            raise ValidationError("mention_count_weights must be 4 values summing to 1")
        lo, hi = self.drift_window
        if not (1 <= lo <= hi):
            raise ValidationError("drift window must satisfy 1 <= lo <= hi")
        if self.share_class_pairs > self.n_companies:
            raise ValidationError("more share-class pairs than companies")


@dataclass(frozen=True)
class FixtureCompany:
    canonical_id: str
    display_name: str
    ticker: str
    exchange: str
    #: Second-class ticker when this company has two universe rows.
    extra_ticker: str | None = None


@dataclass
class FixtureTruth:
    """What the generator actually planted."""

    seed: int
    n_positive: int = 0
    n_negative: int = 0
    #: article id -> canonical ids planted in its text
    mentions: dict[str, list[str]] = field(default_factory=dict)
    #: quarter label -> cluster member lists
    clusters: dict[str, list[list[str]]] = field(default_factory=dict)
    #: the two heavily co-mentioned companies
    anchors: list[str] = field(default_factory=list)
    #: quarter label -> companies whose true relative sentiment is 1
    all_negative: dict[str, list[str]] = field(default_factory=dict)
    #: (canonical_id, quarter label) pairs given a planted price drift
    drifted: list[list[str]] = field(default_factory=list)
    #: quarter label -> measurement date (last trading day in quarter)
    measurement_dates: dict[str, str] = field(default_factory=dict)


@dataclass
class Fixture:
    spec: FixtureSpec
    companies: list[FixtureCompany]
    universe_rows: list[list[str]]
    articles: list[Article]
    #: ticker -> (trading dates, closes)
    prices: dict[str, tuple[list[date], list[float]]]
    #: (canonical_id, quarter label) -> cap in USD billions
    marketcaps: dict[tuple[str, str], float]
    truth: FixtureTruth

    @property
    def quarters(self) -> list[Quarter]:
        first = self.spec.start
        last = first
        for _ in range(self.spec.n_quarters - 1):
            last = last.next()
        return quarter_range(first, last)


def _make_word(rng: np.random.Generator, used: set[str]) -> str:
    while True:
        n_syl = int(rng.integers(2, 4))
        word = "".join(
            _SYLLABLES[int(rng.integers(0, len(_SYLLABLES)))] for _ in range(n_syl)
        ).capitalize()
        if word.casefold() not in used:
            used.add(word.casefold())
            return word


def _make_ticker(word: str, used: set[str]) -> str:
    consonants = [ch for ch in word.upper() if ch not in "AEIOU"] or list(word.upper())
    base = "".join(consonants)[:4].ljust(3, "X")
    candidate = base
    bump = 0
    while candidate in used:
        bump += 1
        candidate = (base + "QZJ"[bump % 3])[:5]
        if bump > 3:
            candidate = base[:3] + str(bump)
    used.add(candidate)
    return candidate


def _make_companies(spec: FixtureSpec, rng: np.random.Generator) -> list[FixtureCompany]:
    used_words: set[str] = set()
    used_tickers: set[str] = set()
    companies = []
    for idx in range(spec.n_companies):
        word = _make_word(rng, used_words)
        suffix = _SUFFIXES[int(rng.integers(0, len(_SUFFIXES)))]
        ticker = _make_ticker(word, used_tickers)
        exchange = _EXCHANGES[int(rng.integers(0, len(_EXCHANGES)))]
        extra = None
        if idx < spec.share_class_pairs:
            extra = _make_ticker(word + "B", used_tickers)
        companies.append(
            FixtureCompany(
                canonical_id=f"C{idx:04d}",
                display_name=f"{word} {suffix}",
                ticker=ticker,
                exchange=exchange,
                extra_ticker=extra,
            )
        )
    return companies


def _universe_rows(companies: list[FixtureCompany]) -> list[list[str]]:
    rows = []
    for c in companies:
        rows.append(
            [c.canonical_id, c.display_name, c.ticker, c.exchange, c.display_name, ""]
        )
        if c.extra_ticker:
            rows.append(
                [
                    c.canonical_id,
                    f"{c.display_name} Class B",
                    c.extra_ticker,
                    c.exchange,
                    f"{c.display_name} Class B",
                    "",
                ]
            )
    return rows


def _mention_literal(
    company: FixtureCompany, rng: np.random.Generator
) -> tuple[str, str]:
    """(sentence, literal) for one planted mention."""
    if rng.random() < 0.6:
        template = _MENTION_TEMPLATES_NAME[
            int(rng.integers(0, len(_MENTION_TEMPLATES_NAME)))
        ]
        return template.format(m=company.display_name), company.display_name
    template = _MENTION_TEMPLATES_TICKER[
        int(rng.integers(0, len(_MENTION_TEMPLATES_TICKER)))
    ]
    literal = f"({company.exchange}:{company.ticker})"
    return template.format(m=literal), literal


def _article_timestamp(
    quarter: Quarter, rng: np.random.Generator
) -> datetime:
    span = (quarter.end_date - quarter.start_date).days
    day = quarter.start_date + timedelta(days=int(rng.integers(0, span + 1)))
    hour = int(rng.integers(9, 18))
    minute = int(rng.integers(0, 60))
    return datetime.combine(day, time(hour, minute), tzinfo=timezone.utc)


def _compose_article(
    article_id: str,
    quarter: Quarter,
    polarity: str,
    members: list[FixtureCompany],
    rng: np.random.Generator,
) -> Article:
    sentences = []
    lead = _FILLER_SENTENCES[int(rng.integers(0, len(_FILLER_SENTENCES)))]
    sentences.append(lead)
    for company in members:
        sentence, _ = _mention_literal(company, rng)
        sentences.append(sentence)
    sentences.append(_FILLER_SENTENCES[int(rng.integers(0, len(_FILLER_SENTENCES)))])
    title_company = members[0].display_name if members else "the market"
    mood = "bull case" if polarity == "positive" else "bear case"
    return Article(
        id=article_id,
        published_at=_article_timestamp(quarter, rng),
        author_id=f"AUTH{int(rng.integers(1, 21)):02d}",
        polarity=polarity,
        title=f"The {mood} around {title_company}",
        body=" ".join(sentences),
    )


def _weekdays(first: date, last: date) -> list[date]:
    days = []
    day = first
    while day <= last:
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    return days


def generate_fixture(spec: FixtureSpec) -> Fixture:
    """Build the full synthetic dataset for one spec, deterministically."""
    rng = np.random.default_rng(spec.seed)
    companies = _make_companies(spec, rng)
    by_id = {c.canonical_id: c for c in companies}
    truth = FixtureTruth(seed=spec.seed)

    quarters = quarter_range(
        spec.start,
        Quarter(
            spec.start.year + (spec.start.index - 1 + spec.n_quarters - 1) // 4,
            (spec.start.index - 1 + spec.n_quarters - 1) % 4 + 1,
        ),
    )

    # --- articles -----------------------------------------------------
    articles: list[Article] = []
    counts: dict[tuple[str, str], list[int]] = {}  # (cid, qlabel) -> [pos, neg]
    per_quarter = spec.n_articles // spec.n_quarters if spec.n_quarters else 0
    remainder = spec.n_articles - per_quarter * spec.n_quarters
    article_no = 0

    def plant(
        quarter: Quarter, polarity: str, member_ids: list[str]
    ) -> None:
        nonlocal article_no
        article_no += 1
        members = [by_id[cid] for cid in member_ids]
        article = _compose_article(
            f"A{article_no:06d}", quarter, polarity, members, rng
        )
        articles.append(article)
        truth.mentions[article.id] = list(member_ids)
        if polarity == "positive":
            truth.n_positive += 1
        else:
            truth.n_negative += 1
        for cid in member_ids:
            slot = counts.setdefault((cid, quarter.label), [0, 0])
            slot[0 if polarity == "positive" else 1] += 1

    all_ids = sorted(by_id)
    anchor_ids = all_ids[:2]
    truth.anchors = list(anchor_ids)
    n_anchor_articles = spec.anchor_positive_articles + spec.anchor_negative_articles
    mention_counts = (1, 2, 3, 4)

    for q_idx, quarter in enumerate(quarters):
        quota = per_quarter + (1 if q_idx < remainder else 0)
        cluster_ids: list[list[str]] = []
        pool = [cid for cid in all_ids if cid not in anchor_ids]
        for _ in range(spec.clusters_per_quarter):
            chosen = sorted(
                str(x) for x in rng.choice(pool, size=spec.cluster_size, replace=False)
            )
            cluster_ids.append(chosen)
            pool = [cid for cid in pool if cid not in chosen]
        truth.clusters[quarter.label] = cluster_ids

        n_cluster_articles = spec.clusters_per_quarter * spec.cluster_articles
        if quota < n_cluster_articles + n_anchor_articles:
            raise ValidationError(
                f"quarter quota {quota} too small for {n_cluster_articles} cluster "
                f"and {n_anchor_articles} anchor articles"
            )

        for i in range(n_anchor_articles):
            polarity = "positive" if i < spec.anchor_positive_articles else "negative"
            plant(quarter, polarity, list(anchor_ids))

        for members in cluster_ids:
            ring = len(members)
            for i in range(spec.cluster_articles):
                if i % 2 == 0:
                    # Solo pieces keep members' own article counts ahead of
                    # their pairwise link totals.
                    picked = [members[(i // 2) % ring]]
                else:
                    # Walk the ring so every member pair is covered.
                    j = (i // 2) % ring
                    picked = [members[j], members[(j + 1) % ring]]
                plant(quarter, "negative", sorted(set(picked)))

        # Anchors never join regular articles: their article count must stay
        # exactly equal to their joint link weight.
        for _ in range(quota - n_cluster_articles - n_anchor_articles):
            polarity = "negative" if rng.random() < spec.negative_share else "positive"
            k = int(rng.choice(mention_counts, p=spec.mention_count_weights))
            member_ids = sorted(
                str(x) for x in rng.choice(pool, size=min(k, len(pool)), replace=False)
            )
            plant(quarter, polarity, member_ids)

    # --- ground-truth sentiment and drift targets ---------------------
    for quarter in quarters:
        doomed = sorted(
            cid
            for cid in all_ids
            if counts.get((cid, quarter.label), [0, 0])[0] == 0
            and counts.get((cid, quarter.label), [0, 0])[1] > 0
        )
        truth.all_negative[quarter.label] = doomed

    # --- prices --------------------------------------------------------
    first_day = quarters[0].start_date - timedelta(days=7)
    last_day = quarters[-1].end_date + timedelta(days=97)
    trading_days = _weekdays(first_day, last_day)
    for quarter in quarters:
        measured = max(d for d in trading_days if d <= quarter.end_date)
        truth.measurement_dates[quarter.label] = measured.isoformat()

    drift_log = log1p(spec.drift_pct_per_day / 100.0) if spec.drift_pct_per_day else 0.0
    lo, hi = spec.drift_window
    window_len = hi - lo + 1

    drift_days: dict[str, dict[date, float]] = {}
    if drift_log:
        for quarter in quarters:
            measured = date.fromisoformat(truth.measurement_dates[quarter.label])
            for cid in truth.all_negative[quarter.label]:
                per_day = drift_days.setdefault(cid, {})
                for offset in range(lo, hi + 1):
                    per_day[measured + timedelta(days=offset)] = (
                        per_day.get(measured + timedelta(days=offset), 0.0) + drift_log
                    )
                for offset in range(hi + 1, hi + 1 + window_len):
                    per_day[measured + timedelta(days=offset)] = (
                        per_day.get(measured + timedelta(days=offset), 0.0) - drift_log
                    )
                truth.drifted.append([cid, quarter.label])

    prices: dict[str, tuple[list[date], list[float]]] = {}
    n_days = len(trading_days)
    sigma_trend = spec.trend_vol_pct / 100.0
    sigma_noise = spec.daily_noise_pct / 100.0
    measurement_days = {
        date.fromisoformat(v) for v in truth.measurement_dates.values()
    }
    noiseless = np.array([d in measurement_days for d in trading_days])
    for company in companies:
        p0 = float(np.exp(rng.uniform(np.log(20.0), np.log(400.0))))
        trend = rng.normal(0.0, sigma_trend, n_days).cumsum()
        noise = rng.normal(0.0, sigma_noise, n_days)
        noise[noiseless] = 0.0
        planted = np.zeros(n_days)
        per_day = drift_days.get(company.canonical_id)
        if per_day:
            cumulative = 0.0
            previous = first_day - timedelta(days=1)
            for i, day in enumerate(trading_days):
                step = previous + timedelta(days=1)
                while step <= day:
                    cumulative += per_day.get(step, 0.0)
                    step += timedelta(days=1)
                planted[i] = cumulative
                previous = day
        log_prices = np.log(p0) + trend + noise + planted
        closes = [float(v) for v in np.exp(log_prices)]
        prices[company.ticker] = (list(trading_days), closes)
        if company.extra_ticker:
            shifted = [round(v * 1.02, 6) for v in closes]
            prices[company.extra_ticker] = (list(trading_days), shifted)

    # --- market caps ----------------------------------------------------
    marketcaps: dict[tuple[str, str], float] = {}
    for company in companies:
        base_cap = float(np.exp(rng.uniform(np.log(2.0), np.log(300.0))))
        for quarter in quarters:
            wobble = float(rng.uniform(0.9, 1.1))
            marketcaps[(company.canonical_id, quarter.label)] = base_cap * wobble

    protected = {cid for members in truth.clusters.values() for m in members for cid in m}
    protected.update(anchor_ids)
    removable = [
        (cid, q.label)
        for cid in all_ids
        if cid not in protected
        for q in quarters
    ]
    for i in range(min(spec.missing_caps, len(removable))):
        victim = removable[(i * 37) % len(removable)]
        marketcaps.pop(victim, None)

    articles.sort(key=lambda a: (a.published_at, a.id))
    log.info(
        "fixture seed=%d companies=%d articles=%d quarters=%d drifted=%d",
        spec.seed,
        len(companies),
        len(articles),
        len(quarters),
        len(truth.drifted),
    )
    return Fixture(
        spec=spec,
        companies=companies,
        universe_rows=_universe_rows(companies),
        articles=articles,
        prices=prices,
        marketcaps=marketcaps,
        truth=truth,
    )


def write_fixture(fixture: Fixture, out_dir: str | Path) -> dict[str, Path]:
    """Write articles.jsonl, universe.csv, prices.csv, marketcaps.csv, truth.json."""
    import csv

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "articles": out / "articles.jsonl",
        "universe": out / "universe.csv",
        "prices": out / "prices.csv",
        "marketcaps": out / "marketcaps.csv",
        "truth": out / "truth.json",
    }

    write_articles(paths["articles"], fixture.articles)

    with paths["universe"].open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(UNIVERSE_COLUMNS)
        writer.writerows(fixture.universe_rows)

    with paths["prices"].open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PRICE_COLUMNS)
        for ticker in sorted(fixture.prices):
            dates, closes = fixture.prices[ticker]
            for day, close in zip(dates, closes):
                writer.writerow([ticker, day.isoformat(), repr(close)])

    with paths["marketcaps"].open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MARKETCAP_COLUMNS)
        for (cid, qlabel), cap in sorted(fixture.marketcaps.items()):
            writer.writerow([cid, qlabel, repr(cap)])

    truth = fixture.truth
    with paths["truth"].open("w", encoding="utf-8") as fh:
        json.dump(
            {
                "seed": truth.seed,
                "n_positive": truth.n_positive,
                "n_negative": truth.n_negative,
                "mentions": truth.mentions,
                "clusters": truth.clusters,
                "anchors": truth.anchors,
                "all_negative": truth.all_negative,
                "drifted": truth.drifted,
                "measurement_dates": truth.measurement_dates,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    return paths
