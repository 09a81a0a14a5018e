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
  (a transient dip, so later windows are not contaminated). A drifted
  company's daily log steps are one array over calendar days; its planted
  path is their `cumsum`, read on the trading days.
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

Every random draw comes from one `numpy.random.Generator`, in a fixed order,
so the seed fixes every byte written. Where a numpy call costs more than its
draws (`choice` with weights, or over a list of strings), a helper takes the
same draws from a cheaper call; the tests check each helper against the numpy
call on a twin generator.

Every ticker trades on one calendar, the weekdays from a week before the
first quarter to 97 days after the last, held as `datetime64[D]`; a
ticker's closes are one float64 array over it. The CSV files are written a
slice at a time by `corpus.format_table`, as the artifacts are, which gets
`prices.csv` a ticker at a time.

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
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from math import fsum, isnan, log1p
from operator import attrgetter
from pathlib import Path

import numpy as np

from .corpus import (
    _JOIN_ROWS,
    MARKETCAP_COLUMNS,
    UNIVERSE_COLUMNS,
    Article,
    format_table,
    write_articles,
)
from .pricerows import PRICE_COLUMNS
from .errors import ValidationError
from .quarters import Quarter, quarter_range

log = logging.getLogger(__name__)

_SYLLABLES = (
    "bel", "cor", "dan", "fen", "gal", "hol", "jur", "kel", "lom", "mar",
    "nov", "or", "pel", "quin", "ras", "sol", "tur", "ul", "van", "wex",
    "yor", "zan", "ald", "bri", "cas", "del", "est", "fir", "gro", "hav",
)
#: Per-day volatility of a log price's i.i.d. noise and of its random-walk
#: trend, in percent.
DAILY_NOISE_PCT = 2.5
TREND_VOL_PCT = 0.1
#: The largest amount by which mention_count_weights may miss a sum of 1:
#: the tolerance of `Generator.choice`.
WEIGHT_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))

_SUFFIXES = ("Inc.", "Corp", "Group", "Ltd", "Co.", "PLC")
_EXCHANGES = ("NYSE", "NASDAQ")
#: An article's author is drawn as an index in [1, 21).
_AUTHORS = tuple(f"AUTH{n:02d}" for n in range(21))

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
    missing_caps: int = 1
    #: Companies emitted as two universe rows (extra share class).
    share_class_pairs: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        for name in ("n_quarters", "cluster_size"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be at least 1")
        counts = ("clusters_per_quarter", "cluster_articles", "missing_caps", "share_class_pairs")
        for name in counts:
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")
        if self.n_companies < self.clusters_per_quarter * self.cluster_size + 2:
            raise ValidationError(
                "not enough companies for disjoint clusters plus the anchor pair"
            )
        if not (0.0 <= self.negative_share <= 1.0):
            raise ValidationError("negative_share must be in [0, 1]")
        if min(self.anchor_positive_articles, self.anchor_negative_articles) < 0:
            raise ValidationError("anchor article counts must be non-negative")
        # The mention count is drawn from these weights' cdf, which checks
        # nothing, so refuse here what `Generator.choice(p=...)` refuses.
        weights = self.mention_count_weights
        if len(weights) != 4:
            raise ValidationError("mention_count_weights must be 4 values")
        if any(isnan(w) for w in weights):
            raise ValidationError("mention_count_weights must not hold NaN")
        if any(w < 0 for w in weights):
            raise ValidationError("mention_count_weights must be non-negative")
        if abs(fsum(weights) - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise ValidationError("mention_count_weights must sum to 1")
        if not -100.0 < self.drift_pct_per_day < float("inf"):
            raise ValidationError("drift_pct_per_day must be finite and above -100")
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
    #: the spec's `n_quarters` quarters from `start`
    quarters: list[Quarter]
    #: the trading days every ticker shares, datetime64[D]
    calendar: np.ndarray
    #: ticker -> float64 closes, one per day of `calendar`
    prices: dict[str, np.ndarray]
    #: (canonical_id, quarter label) -> cap in USD billions
    marketcaps: dict[tuple[str, str], float]
    truth: FixtureTruth


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


def _mention_cdf(weights: tuple[float, ...]) -> list[float]:
    """The cdf `Generator.choice(len(weights), p=weights)` builds. The
    `bisect_right` of one `rng.random()` draw in it is that call's result,
    from the same single draw."""
    cdf = np.cumsum(np.asarray(weights, dtype=np.float64))
    cdf /= cdf[-1]
    return cdf.tolist()


def _sample(rng: np.random.Generator, pool: list[str], k: int) -> list[str]:
    """`k` distinct items of `pool`, as `rng.choice(pool, size=k,
    replace=False)` picks them: its draws depend only on `len(pool)` and `k`.
    For one item, numpy's sampler (Floyd's algorithm) draws one integer in
    [0, len(pool)) and its shuffle of one item draws nothing."""
    if k == 1:
        return [pool[rng.integers(0, len(pool))]]
    return [pool[i] for i in rng.choice(len(pool), size=k, replace=False).tolist()]


def _quarter_days(quarter: Quarter) -> list[tuple[int, int, int]]:
    """(year, month, day) of each day of `quarter`: an article's date draw."""
    start = quarter.start_date
    days = (start + timedelta(days=n) for n in range((quarter.end_date - start).days + 1))
    return [(day.year, day.month, day.day) for day in days]


def generate_fixture(spec: FixtureSpec) -> Fixture:
    """Build the full synthetic dataset for one spec, deterministically."""
    rng = np.random.default_rng(spec.seed)
    integers, random = rng.integers, rng.random
    companies = _make_companies(spec, rng)
    names = {c.canonical_id: c.display_name for c in companies}
    qualified = {c.canonical_id: f"({c.exchange}:{c.ticker})" for c in companies}
    truth = FixtureTruth(seed=spec.seed)

    last = spec.start.index - 1 + spec.n_quarters - 1
    quarters = quarter_range(spec.start, Quarter(spec.start.year + last // 4, last % 4 + 1))
    labels = [quarter.label for quarter in quarters]

    # --- articles -----------------------------------------------------
    articles: list[Article] = []
    per_quarter = spec.n_articles // spec.n_quarters if spec.n_quarters else 0
    remainder = spec.n_articles - per_quarter * spec.n_quarters

    def plant(
        dates: list[tuple[int, int, int]],
        seen: dict[str, set[str]],
        polarity: str,
        member_ids: list[str],
    ) -> None:
        # The draws, in order: the lead sentence; per member, name or ticker
        # and its template; the closing sentence; day, hour, minute; author.
        sentences = [_FILLER_SENTENCES[integers(0, len(_FILLER_SENTENCES))]]
        for cid in member_ids:
            if random() < 0.6:
                template = _MENTION_TEMPLATES_NAME[integers(0, len(_MENTION_TEMPLATES_NAME))]
                sentences.append(template.format(m=names[cid]))
            else:
                template = _MENTION_TEMPLATES_TICKER[integers(0, len(_MENTION_TEMPLATES_TICKER))]
                sentences.append(template.format(m=qualified[cid]))
        sentences.append(_FILLER_SENTENCES[integers(0, len(_FILLER_SENTENCES))])
        year, month, day = dates[integers(0, len(dates))]
        hour = integers(9, 18)
        minute = integers(0, 60)
        published = datetime(year, month, day, hour, minute, tzinfo=timezone.utc)
        article_id = f"A{len(articles) + 1:06d}"
        mood = "bull case" if polarity == "positive" else "bear case"
        title_company = names[member_ids[0]] if member_ids else "the market"
        articles.append(Article(
            article_id,
            published,
            _AUTHORS[integers(1, 21)],
            polarity,
            f"The {mood} around {title_company}",
            " ".join(sentences),
        ))
        truth.mentions[article_id] = member_ids
        seen[polarity].update(member_ids)

    all_ids = sorted(names)
    anchor_ids = all_ids[:2]
    truth.anchors = list(anchor_ids)
    n_anchor_articles = spec.anchor_positive_articles + spec.anchor_negative_articles
    mention_cdf = _mention_cdf(spec.mention_count_weights)

    for q_idx, quarter in enumerate(quarters):
        quota = per_quarter + (1 if q_idx < remainder else 0)
        cluster_ids: list[list[str]] = []
        pool = [cid for cid in all_ids if cid not in anchor_ids]
        for _ in range(spec.clusters_per_quarter):
            chosen = sorted(_sample(rng, pool, spec.cluster_size))
            cluster_ids.append(chosen)
            pool = [cid for cid in pool if cid not in chosen]
        truth.clusters[quarter.label] = cluster_ids

        n_cluster_articles = spec.clusters_per_quarter * spec.cluster_articles
        if quota < n_cluster_articles + n_anchor_articles:
            raise ValidationError(
                f"quarter quota {quota} too small for {n_cluster_articles} cluster "
                f"and {n_anchor_articles} anchor articles"
            )

        dates = _quarter_days(quarter)
        seen: dict[str, set[str]] = {"positive": set(), "negative": set()}
        for i in range(n_anchor_articles):
            polarity = "positive" if i < spec.anchor_positive_articles else "negative"
            plant(dates, seen, polarity, list(anchor_ids))

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
                plant(dates, seen, "negative", sorted(set(picked)))

        # Anchors never join regular articles: their article count must stay
        # exactly equal to their joint link weight.
        for _ in range(quota - n_cluster_articles - n_anchor_articles):
            polarity = "negative" if random() < spec.negative_share else "positive"
            k = bisect_right(mention_cdf, random()) + 1
            plant(dates, seen, polarity, sorted(_sample(rng, pool, min(k, len(pool)))))

        # ground truth: the companies whose true relative sentiment is 1
        truth.all_negative[quarter.label] = sorted(seen["negative"] - seen["positive"])
    truth.n_negative = sum(article.polarity == "negative" for article in articles)
    truth.n_positive = len(articles) - truth.n_negative

    # --- prices --------------------------------------------------------
    days = np.arange(
        np.datetime64(quarters[0].start_date, "D") - 7,
        np.datetime64(quarters[-1].end_date, "D") + 98,
    )
    trading = np.flatnonzero(np.is_busday(days))  # calendar-day index of each trading day
    calendar = days[trading]
    quarter_ends = np.array([q.end_date for q in quarters], dtype="datetime64[D]")
    measured = np.searchsorted(calendar, quarter_ends, side="right") - 1
    for quarter, day in zip(quarters, calendar[measured]):
        truth.measurement_dates[quarter.label] = str(day)

    drift_log = log1p(spec.drift_pct_per_day / 100.0) if spec.drift_pct_per_day else 0.0
    lo, hi = spec.drift_window
    window_len = hi - lo + 1

    steps: dict[str, np.ndarray] = {}  # cid -> log drift added on each calendar day
    if drift_log:
        for quarter, day in zip(quarters, trading[measured]):
            for cid in truth.all_negative[quarter.label]:
                step = steps.setdefault(cid, np.zeros(len(days)))
                step[day + lo : day + hi + 1] += drift_log
                step[day + hi + 1 : day + hi + 1 + window_len] -= drift_log
                truth.drifted.append([cid, quarter.label])

    prices: dict[str, np.ndarray] = {}
    n_days = len(calendar)
    log_p0 = (np.log(20.0), np.log(400.0))
    sigma_trend = TREND_VOL_PCT / 100.0
    sigma_noise = DAILY_NOISE_PCT / 100.0
    for company in companies:
        p0 = float(np.exp(rng.uniform(*log_p0)))
        trend = rng.normal(0.0, sigma_trend, n_days).cumsum()
        noise = rng.normal(0.0, sigma_noise, n_days)
        noise[measured] = 0.0
        step = steps.get(company.canonical_id)
        planted = np.cumsum(step)[trading] if step is not None else 0.0
        closes = np.exp(np.log(p0) + trend + noise + planted)
        prices[company.ticker] = closes
        if company.extra_ticker:
            # Python's round, which is correctly rounded, unlike np.round
            prices[company.extra_ticker] = np.array([round(v * 1.02, 6) for v in closes.tolist()])

    # --- market caps ----------------------------------------------------
    marketcaps: dict[tuple[str, str], float] = {}
    log_cap = (np.log(2.0), np.log(300.0))
    for company in companies:
        base_cap = float(np.exp(rng.uniform(*log_cap)))
        # one draw per quarter, as many scalar calls would take them
        wobbles = rng.uniform(0.9, 1.1, len(labels)).tolist()
        for label, wobble in zip(labels, wobbles):
            marketcaps[(company.canonical_id, label)] = base_cap * wobble

    protected = {cid for members in truth.clusters.values() for m in members for cid in m}
    protected.update(anchor_ids)
    removable = [(cid, label) for cid in all_ids if cid not in protected for label in labels]
    for i in range(min(spec.missing_caps, len(removable))):
        victim = removable[(i * 37) % len(removable)]
        marketcaps.pop(victim, None)

    articles.sort(key=attrgetter("published_at", "id"))
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
        quarters=quarters,
        calendar=calendar,
        prices=prices,
        marketcaps=marketcaps,
        truth=truth,
    )


def write_fixture(fixture: Fixture, out_dir: str | Path) -> dict[str, Path]:
    """Write articles.jsonl, universe.csv, prices.csv, marketcaps.csv, truth.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = ("articles.jsonl", "universe.csv", "prices.csv", "marketcaps.csv", "truth.json")
    paths = {name.partition(".")[0]: out / name for name in names}

    write_articles(paths["articles"], fixture.articles)

    tickers = sorted(fixture.prices)
    days = np.datetime_as_string(fixture.calendar).tolist()
    caps = sorted(fixture.marketcaps)
    tables = {
        "universe": (UNIVERSE_COLUMNS, [list(zip(*fixture.universe_rows))]),
        "prices": (PRICE_COLUMNS, (
            ([ticker] * len(days), days, fixture.prices[ticker]) for ticker in tickers
        )),
        "marketcaps": (MARKETCAP_COLUMNS, (
            (*zip(*keys), [fixture.marketcaps[key] for key in keys])
            for keys in (caps[lo:lo + _JOIN_ROWS] for lo in range(0, len(caps), _JOIN_ROWS))
        )),
    }
    for name, (header, blocks) in tables.items():
        with paths[name].open("w", encoding="utf-8", newline="") as fh:
            fh.writelines(format_table(header, blocks))

    with paths["truth"].open("w", encoding="utf-8") as fh:
        json.dump(vars(fixture.truth), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
