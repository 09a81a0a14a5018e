"""Staged pipeline: declared artifacts, declared stages, one stage runner.

Stages: parse -> networks -> rank -> risk -> backtest -> report. `PIPELINE`
declares each stage once: the config input files it loads, the values it
reads from earlier stages, a compute function over typed values, the
artifacts it writes and its manifest params. Each artifact is declared once:
file name, columns and an encoder from the run's values to rows. Values that
a later stage reads back have one decoder each, in `HANDOFFS`.

`run_all` and the per-stage commands (`STAGES`) hand values over through
files; `run_all` also hands each loaded input file to every later stage that
reads it, so each file is parsed once per run. A stage decodes its upstream
artifacts, checking that each exists and carries the declared header. It
writes its own artifacts atomically (temp file + rename) and records a
manifest with the config fingerprint, the digests of every file it read, row
counts, and stage parameters. Two runs from identical inputs and config
produce byte-identical artifacts.

`run_study` runs the same stage list with the values handed over in memory:
nothing is encoded, written or hashed. Tests and bulk simulations use it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
import tempfile
from dataclasses import astuple, dataclass, field, fields
from datetime import date
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from . import backtest as bt
from .backtest import compute_reports
from .centrality import (
    ABSOLUTE, NORMALIZED, CentralityTable, RankEntry, average_rank, build_tables,
    information_centrality,
)
from .corpus import load_articles, load_marketcaps, load_prices, load_universe
from .entities import MatcherConfig, MatcherSet, OccurrenceSet, parse_corpus
from .errors import DependencyError, ValidationError
from .networks import MIXED, NETWORK_KINDS, QuarterNetwork, build_networks, network_stats, smooth
from .quarters import Quarter, parse_quarter, quarter_range
from .riskrank import RiskCalibration, RiskDatapoint, riskrank_quarter, select_universe

log = logging.getLogger(__name__)

MODES = (ABSOLUTE, NORMALIZED)


@dataclass
class RunConfig:
    """Everything a pipeline run depends on."""

    articles: Path
    universe: Path
    prices: Path
    marketcaps: Path
    output: Path
    first_quarter: Quarter = Quarter(2011, 1)
    last_quarter: Quarter = Quarter(2016, 2)
    alpha: float = 0.1
    calibration: RiskCalibration = field(default_factory=RiskCalibration)
    top_k: int = 50
    thresholds: tuple[float, ...] = bt.REPORT_THRESHOLDS
    delay_lo: int = bt.DELAY_LO
    delay_hi: int = bt.DELAY_HI
    seed: int = 7

    def validate(self, inputs: Iterable[str] | None = None) -> None:
        """Check the parameters, and that the named input files exist
        (`None`: every input of `LOADERS`)."""
        if self.alpha <= 0:
            raise ValidationError(f"alpha must be positive, got {self.alpha}")
        if self.top_k < 1:
            raise ValidationError(f"top_k must be at least 1, got {self.top_k}")
        if not (0 < self.delay_lo <= self.delay_hi):
            raise ValidationError(
                f"delay bounds must satisfy 0 < lo <= hi, got {self.delay_lo}..{self.delay_hi}"
            )
        if self.first_quarter > self.last_quarter:
            raise ValidationError(
                f"quarter window reversed: {self.first_quarter} > {self.last_quarter}"
            )
        for t in self.thresholds:
            if not (0.0 <= t <= 1.0):
                raise ValidationError(f"threshold outside [0,1]: {t}")
        for name in LOADERS if inputs is None else inputs:
            path = getattr(self, name)
            if not Path(path).is_file():
                raise ValidationError(f"{name} file not found: {path}")

    @property
    def quarters(self) -> list[Quarter]:
        return quarter_range(self.first_quarter, self.last_quarter)

    @property
    def window(self) -> tuple[date, date]:
        return (self.first_quarter.start_date, self.last_quarter.end_date)

    def fingerprint(self) -> str:
        """Hash of every behavior-affecting parameter (paths by basename)."""
        payload = {
            "articles": Path(self.articles).name,
            "universe": Path(self.universe).name,
            "prices": Path(self.prices).name,
            "marketcaps": Path(self.marketcaps).name,
            "quarters": f"{self.first_quarter}..{self.last_quarter}",
            "alpha": self.alpha,
            "lambda": self.calibration.lam,
            "mu": self.calibration.mu,
            "theta": self.calibration.theta,
            "top_k": self.top_k,
            "thresholds": list(self.thresholds),
            "delays": [self.delay_lo, self.delay_hi],
            "seed": self.seed,
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def config_from_file(path: str | Path, overrides: Mapping[str, object] | None = None) -> RunConfig:
    """Build a RunConfig from a JSON file; relative paths resolve against it."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    merged: dict[str, object] = dict(raw)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_mapping(merged, base_dir=path.parent)


def config_from_mapping(
    raw: Mapping[str, object], base_dir: Path | None = None
) -> RunConfig:
    base = base_dir or Path.cwd()

    def path_of(key: str) -> Path:
        value = raw.get(key)
        if value is None:
            raise ValidationError(f"config is missing required path {key!r}")
        p = Path(str(value))
        return p if p.is_absolute() else base / p

    quarters = str(raw.get("quarters", "2011Q1..2016Q2"))
    try:
        first_label, _, last_label = quarters.partition("..")
        first = parse_quarter(first_label)
        last = parse_quarter(last_label or first_label)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None

    calibration = RiskCalibration(
        lam=float(raw.get("lambda", 0.5)),
        mu=float(raw.get("mu", 0.5)),
        theta=float(raw.get("theta", 0.5)),
    )
    delays = raw.get("delays", [bt.DELAY_LO, bt.DELAY_HI])
    if not (isinstance(delays, (list, tuple)) and len(delays) == 2):
        raise ValidationError(f"delays must be a [lo, hi] pair, got {delays!r}")
    thresholds = raw.get("thresholds", list(bt.REPORT_THRESHOLDS))
    if not isinstance(thresholds, (list, tuple)):
        raise ValidationError("thresholds must be a list")

    return RunConfig(
        articles=path_of("articles"),
        universe=path_of("universe"),
        prices=path_of("prices"),
        marketcaps=path_of("marketcaps"),
        output=path_of("output"),
        first_quarter=first,
        last_quarter=last,
        alpha=float(raw.get("alpha", 0.1)),
        calibration=calibration,
        top_k=int(raw.get("top_k", 50)),
        thresholds=tuple(float(t) for t in thresholds),
        delay_lo=int(delays[0]),
        delay_hi=int(delays[1]),
        seed=int(raw.get("seed", 7)),
    )


# ---------------------------------------------------------------------------
# Artifacts: one declaration per file
# ---------------------------------------------------------------------------

Values = Mapping[str, Any]


@dataclass(frozen=True)
class Artifact:
    """One output file.

    `encode(cfg, values)` yields the file's CSV rows, or returns its text when
    `columns` is None. None cells are written empty and float cells at full
    precision, so every value round-trips exactly.
    """

    name: str
    columns: tuple[str, ...] | None
    encode: Callable[[RunConfig, Values], Any]


def _cell(value: object) -> object:
    if value is None or value != value:  # NaN rates are undefined, like None
        return ""
    return repr(float(value)) if isinstance(value, float) else value


def render(artifact: Artifact, cfg: RunConfig, values: Values) -> str:
    """The file content of `artifact` for a run's values."""
    encoded = artifact.encode(cfg, values)
    if artifact.columns is None:
        return encoded
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(artifact.columns)
    writer.writerows([_cell(v) for v in row] for row in encoded)
    return buf.getvalue()


#: The risk-score columns every datapoint artifact carries, in order.
SCORES = ("x_own", "rr_own", "rr_direct", "rr_indirect", "rr_total")


def _scores(dp: RiskDatapoint) -> tuple[float, ...]:
    return tuple(getattr(dp, name) for name in SCORES)


def _measured(dp: RiskDatapoint) -> tuple:
    return (dp.measurement_date.isoformat() if dp.measurement_date else None, dp.close)


def _occurrence_rows(cfg: RunConfig, v: Values) -> Iterator[tuple]:
    occurrences = v["occurrences"]
    for quarter in sorted(occurrences):
        for occ in sorted(occurrences[quarter], key=lambda o: o.article_id):
            yield occ.article_id, quarter.label, occ.polarity, "|".join(sorted(occ.companies))


def _each_network(v: Values) -> Iterator[tuple[str, str, QuarterNetwork]]:
    networks = v["networks"]
    for quarter in sorted(networks):
        for kind in NETWORK_KINDS:
            yield quarter.label, kind, networks[quarter][kind]


def _network_stat_rows(cfg: RunConfig, v: Values) -> Iterator[list]:
    for _, _, network in _each_network(v):
        stats = network_stats(network)
        yield [stats[column] for column in NETWORK_STATS.columns]


def _series_rows(cfg: RunConfig, v: Values) -> Iterator[tuple]:
    for mode in MODES:
        keep = {e.canonical_id for e in v["rank_lists"][(MIXED, mode)]}
        for table in v["tables"]:
            if table.polarity == MIXED and table.mode == mode:
                for cid in sorted(keep & set(table.scores)):
                    yield mode, table.quarter.label, cid, table.scores[cid]


def _risk_rows(cfg: RunConfig, v: Values) -> Iterator[tuple]:
    calibration = astuple(cfg.calibration)
    for dp in v["datapoints"]:
        yield dp.quarter.label, dp.canonical_id, *_scores(dp), *calibration


_OUTCOME_CELLS = {1: "true", 0: "false", -1: ""}


def _event_rows(cfg: RunConfig, v: Values) -> Iterator[tuple]:
    study = v["study"]
    for dp, outcomes in zip(study.datapoints, study.outcomes):
        for delay, outcome in zip(study.delays, outcomes):
            yield dp.quarter.label, dp.canonical_id, delay, _OUTCOME_CELLS[int(outcome)]


def _report_params(cfg: RunConfig) -> dict[str, object]:
    cal = cfg.calibration
    return {
        "alpha": cfg.alpha,
        "lambda": cal.lam,
        "mu": cal.mu,
        "theta": cal.theta,
        "top_k": cfg.top_k,
        "delays": f"{cfg.delay_lo}..{cfg.delay_hi}",
    }


# Report records and the calibration are written as `astuple` of their
# dataclass, whose fields are declared in the order of the columns.
def _with_average(report) -> tuple:
    return (*report.rows, *([report.average] if report.average else []))


def _range_rows(cfg: RunConfig, v: Values) -> Iterator[tuple]:
    for (kind, threshold), report in sorted(v["reports"].range_reports.items()):
        for row in _with_average(report):
            yield kind, threshold, *astuple(row), report.n_subset, report.n_benchmark


def _comparison_rows(cfg: RunConfig, v: Values) -> Iterator[tuple]:
    report = v["reports"].comparison
    for row in _with_average(report) if report else ():
        yield report.threshold, *astuple(row)


def _daily_rows(cfg: RunConfig, v: Values) -> Iterator[tuple]:
    study = v["study"]
    benchmark = study.daily_rates()
    for kind, threshold in sorted(v["reports"].range_reports):
        subset = study.daily_rates(study.indices_at_threshold(threshold, kind))
        for offset, delay in enumerate(study.delays):
            yield kind, threshold, delay, float(subset[offset]), float(benchmark[offset])


def _best_delay_rows(cfg: RunConfig, v: Values) -> Iterator[tuple]:
    study = v["study"]
    benchmark = study.daily_rates()
    for (kind, threshold), best in sorted(v["reports"].best_delays.items()):
        if best is None:
            continue
        delay, diff = best
        rows_idx = study.indices_at_threshold(threshold, kind)
        offset = delay - study.delay_lo
        n1 = int(study.defined_counts(rows_idx)[offset])
        n2 = int(study.defined_counts()[offset])
        p1 = float(study.daily_rates(rows_idx)[offset]) / 100.0
        p2 = float(benchmark[offset]) / 100.0
        stderr = bt.proportion_stderr(p1, n1, p2, n2)
        yield kind, threshold, delay, p1 * 100.0, p2 * 100.0, diff, stderr, n1, n2


def _ranges_text(cfg: RunConfig, v: Values) -> str:
    reports = v["reports"].range_reports
    params = _report_params(cfg)
    return "\n".join(
        bt.render_range_report(reports[(bt.AGGREGATED, t)], params) for t in sorted(cfg.thresholds)
    )


def _comparison_text(cfg: RunConfig, v: Values) -> str:
    comparison = v["reports"].comparison
    return bt.render_comparison_report(comparison, _report_params(cfg)) if comparison else ""


OCCURRENCES = Artifact(
    "occurrences.csv", ("article_id", "quarter", "polarity", "companies"), _occurrence_rows
)
NETWORK_EDGES = Artifact(
    "network_edges.csv",
    ("quarter", "polarity", "i", "j", "weight"),
    lambda cfg, v: (
        (q, kind, i, j, weight)
        for q, kind, network in _each_network(v)
        for (i, j), weight in network.edge_weights.items()
    ),
)
NETWORK_NODES = Artifact(
    "network_nodes.csv",
    ("quarter", "polarity", "canonical_id", "s"),
    lambda cfg, v: (
        (q, kind, node, s)
        for q, kind, network in _each_network(v)
        for node, s in network.node_weights.items()
    ),
)
NETWORK_STATS = Artifact(
    "network_stats.csv",
    ("quarter", "polarity", "n_nodes", "n_edges", "article_count", "avg_edges_per_node",
     "max_degree", "max_degree_node"),
    _network_stat_rows,
)
CENTRALITY = Artifact(
    "centrality.csv",
    ("quarter", "polarity", "mode", "canonical_id", "score", "rank"),
    lambda cfg, v: (
        (t.quarter.label, t.polarity, t.mode, cid, t.scores[cid], t.ranks[cid])
        for t in v["tables"]
        for cid in sorted(t.scores)
    ),
)
AVERAGE_RANK = Artifact(
    "average_rank.csv",
    ("polarity", "mode", "canonical_id", "average_rank", "quarters_scored"),
    lambda cfg, v: (
        (polarity, mode, e.canonical_id, e.average_rank, e.quarters_scored)
        for (polarity, mode), entries in v["rank_lists"].items()
        for e in entries
    ),
)
TIMESERIES = Artifact(
    "centrality_timeseries.csv", ("mode", "quarter", "canonical_id", "score"), _series_rows
)
SELECTED = Artifact(
    "selected_universe.csv", ("canonical_id",), lambda cfg, v: ((c,) for c in v["selected"])
)
RISK = Artifact(
    "risk.csv",
    ("quarter", "canonical_id", *SCORES, "lambda", "mu", "theta"),
    _risk_rows,
)
VALID_POINTS = Artifact(
    "valid_datapoints.csv",
    ("quarter", "canonical_id", "measurement_date", "close", *SCORES),
    lambda cfg, v: (
        (dp.quarter.label, dp.canonical_id, *_measured(dp), *_scores(dp))
        for dp in v["study"].datapoints
    ),
)
EVENTS = Artifact(
    "decline_events.csv", ("quarter", "canonical_id", "delay", "decreased"), _event_rows
)
RANGES_CSV = Artifact(
    "backtest_ranges.csv",
    ("kind", "threshold", "days_delay", "subset_rate", "benchmark_rate", "abs_diff", "rel_diff",
     "benchmark_daily_std", "std_outperformance", "n_subset", "n_benchmark"),
    _range_rows,
)
RANGES_TXT = Artifact("backtest_ranges.txt", None, _ranges_text)
COMPARISON_CSV = Artifact(
    "backtest_comparison.csv",
    ("threshold", "days_delay", "agg_rate", "agg_outperformance", "ind_rate",
     "ind_outperformance", "outperformance_gap"),
    _comparison_rows,
)
COMPARISON_TXT = Artifact("backtest_comparison.txt", None, _comparison_text)
DAILY = Artifact(
    "backtest_daily.csv",
    ("kind", "threshold", "delay", "subset_rate", "benchmark_rate"),
    _daily_rows,
)
BEST_DELAY = Artifact(
    "best_delay.csv",
    ("kind", "threshold", "delay", "subset_rate", "benchmark_rate", "diff", "stderr",
     "n_subset_defined", "n_benchmark_defined"),
    _best_delay_rows,
)
HISTOGRAM = Artifact(
    "risk_histogram.csv",
    ("risk_at_least", "n_aggregated", "pct_aggregated", "n_individual", "pct_individual"),
    lambda cfg, v: (astuple(row) for row in v["reports"].histogram),
)
PRICE_SERIES = Artifact(
    "risk_price_series.csv",
    ("canonical_id", "quarter", "measurement_date", "close", *SCORES),
    lambda cfg, v: (
        (dp.canonical_id, dp.quarter.label, *_measured(dp), *_scores(dp))
        for dp in v["study"].datapoints
    ),
)


# ---------------------------------------------------------------------------
# Handoffs: the values later stages read back, and their decoders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Handoff:
    """A value later stages read back from the artifacts that store it.

    `decode(cfg, values, *tables)` gets the rows of each artifact, in the
    order of `artifacts`, as dicts keyed by column, and the reading stage's
    loaded inputs in `values`.
    """

    artifacts: tuple[Artifact, ...]
    decode: Callable[..., Any]


def _decode_occurrences(cfg, v, rows) -> dict[Quarter, list[OccurrenceSet]]:
    occurrences: dict[Quarter, list[OccurrenceSet]] = {}
    for row in rows:
        quarter = parse_quarter(row["quarter"])
        companies = frozenset(c for c in row["companies"].split("|") if c)
        occurrences.setdefault(quarter, []).append(
            OccurrenceSet(row["article_id"], quarter, row["polarity"], companies)
        )
    return {q: occurrences[q] for q in sorted(occurrences)}


def _decode_networks(cfg, v, edges, nodes, stats) -> dict[Quarter, dict[str, QuarterNetwork]]:
    """Networks over the universe in `v`, which every reading stage loads."""
    universe_ids = tuple(sorted(v["universe"].ids()))

    def key(row: Mapping[str, str]) -> tuple[Quarter, str]:
        return parse_quarter(row["quarter"]), row["polarity"]

    article_counts = {key(row): int(row["article_count"]) for row in stats}
    edge_maps: dict[tuple[Quarter, str], dict] = {k: {} for k in article_counts}
    node_maps: dict[tuple[Quarter, str], dict] = {k: {} for k in article_counts}
    for row in edges:
        edge_maps.setdefault(key(row), {})[(row["i"], row["j"])] = int(row["weight"])
    for row in nodes:
        node_maps.setdefault(key(row), {})[row["canonical_id"]] = int(row["s"])

    networks: dict[Quarter, dict[str, QuarterNetwork]] = {}
    for (quarter, kind), edge_weights in edge_maps.items():
        networks.setdefault(quarter, {})[kind] = QuarterNetwork(
            quarter=quarter,
            polarity=kind,
            nodes=universe_ids,
            node_weights=dict(sorted(node_maps.get((quarter, kind), {}).items())),
            edge_weights=dict(sorted(edge_weights.items())),
            article_count=article_counts.get((quarter, kind), 0),
        )
    return {q: networks[q] for q in sorted(networks)}


def _decode_rank_lists(cfg, v, rows) -> dict[tuple[str, str], list[RankEntry]]:
    lists: dict[tuple[str, str], list[RankEntry]] = {
        (polarity, mode): [] for polarity in NETWORK_KINDS for mode in MODES
    }
    for row in rows:
        entry = RankEntry(
            row["canonical_id"], float(row["average_rank"]), int(row["quarters_scored"])
        )
        lists.setdefault((row["polarity"], row["mode"]), []).append(entry)
    return lists


def _datapoint(row: Mapping[str, str], **measured) -> RiskDatapoint:
    return RiskDatapoint(
        canonical_id=row["canonical_id"],
        quarter=parse_quarter(row["quarter"]),
        **{name: float(row[name]) for name in SCORES},
        **measured,
    )


def _decode_study(cfg, v, valid, events) -> bt.EventStudy:
    datapoints = [
        _datapoint(
            row,
            measurement_date=date.fromisoformat(row["measurement_date"]),
            close=float(row["close"]),
        )
        for row in valid
    ]
    index = {(dp.quarter.label, dp.canonical_id): r for r, dp in enumerate(datapoints)}
    outcomes = np.full((len(datapoints), cfg.delay_hi - cfg.delay_lo + 1), -1, dtype=np.int8)
    for row in events:
        key = (row["quarter"], row["canonical_id"])
        r = index.get(key)
        if r is None:
            raise ValidationError(f"event row for unknown datapoint {key} in {EVENTS.name}")
        if row["decreased"]:
            outcomes[r, int(row["delay"]) - cfg.delay_lo] = row["decreased"] == "true"
    return bt.EventStudy(datapoints, outcomes, 0, 0, 0, cfg.delay_lo, cfg.delay_hi)


HANDOFFS: dict[str, Handoff] = {
    "occurrences": Handoff((OCCURRENCES,), _decode_occurrences),
    "networks": Handoff((NETWORK_EDGES, NETWORK_NODES, NETWORK_STATS), _decode_networks),
    "rank_lists": Handoff((AVERAGE_RANK,), _decode_rank_lists),
    "datapoints": Handoff((RISK,), lambda cfg, v, rows: [_datapoint(row) for row in rows]),
    "study": Handoff((VALID_POINTS, EVENTS), _decode_study),
}


# ---------------------------------------------------------------------------
# Stages: one declaration each
# ---------------------------------------------------------------------------

#: How each input file of the config is loaded. Prices are keyed by the
#: universe, so a stage that loads prices loads the universe first.
LOADERS: dict[str, Callable[[RunConfig, Values], Any]] = {
    "articles": lambda cfg, v: load_articles(cfg.articles, window=cfg.window),
    "universe": lambda cfg, v: load_universe(cfg.universe),
    "prices": lambda cfg, v: load_prices(cfg.prices, v["universe"]),
    "marketcaps": lambda cfg, v: load_marketcaps(cfg.marketcaps),
}


@dataclass(frozen=True)
class Stage:
    """One pipeline stage.

    `inputs` are config input files (keys of `LOADERS`, in load order) and
    `reads` are values of earlier stages (keys of `HANDOFFS`). `compute`
    maps the run's values to this stage's new values, from which `writes`
    encode; `params` are recorded in the manifest.
    """

    name: str
    doc: str
    inputs: tuple[str, ...]
    reads: tuple[str, ...]
    compute: Callable[[RunConfig, Values], dict[str, Any]]
    writes: tuple[Artifact, ...]
    params: Callable[[RunConfig, Values], dict[str, object]] = lambda cfg, v: {}


def _parse(cfg: RunConfig, v: Values) -> dict[str, Any]:
    matchers = MatcherSet(v["universe"], v.get("matcher_config"))
    return {"occurrences": parse_corpus(v["articles"], matchers)}


def _networks(cfg: RunConfig, v: Values) -> dict[str, Any]:
    occurrences, universe_ids = v["occurrences"], v["universe"].ids()
    networks = {q: build_networks(occurrences[q], q, universe_ids) for q in sorted(occurrences)}
    return {"networks": networks}


def _rank(cfg: RunConfig, v: Values) -> dict[str, Any]:
    """Absolute and normalized centrality tables for every (quarter, polarity),
    and the top-k average-rank list for every (polarity, mode)."""
    tables: list[CentralityTable] = []
    for quarter, networks in sorted(v["networks"].items()):
        for kind in NETWORK_KINDS:
            raw = information_centrality(smooth(networks[kind], cfg.alpha))
            tables.extend(build_tables(quarter, kind, raw, v["marketcaps"]))
    rank_lists = {
        (polarity, mode): average_rank(
            [t for t in tables if t.polarity == polarity and t.mode == mode], cfg.top_k
        )
        for polarity in NETWORK_KINDS
        for mode in MODES
    }
    return {"tables": tables, "rank_lists": rank_lists}


def _risk(cfg: RunConfig, v: Values) -> dict[str, Any]:
    lists, networks, occurrences = v["rank_lists"], v["networks"], v["occurrences"]
    selected = select_universe(lists[(MIXED, ABSOLUTE)], lists[(MIXED, NORMALIZED)], cfg.top_k)
    datapoints = [
        dp
        for q in sorted(networks)
        for dp in riskrank_quarter(
            networks[q][MIXED], occurrences.get(q, []), selected, cfg.calibration
        )
    ]
    return {"selected": selected, "datapoints": datapoints}


PIPELINE: tuple[Stage, ...] = (
    Stage(
        "parse", "extract company mentions from the article corpus",
        inputs=("articles", "universe"), reads=(), compute=_parse, writes=(OCCURRENCES,),
        params=lambda cfg, v: {"quarters": f"{cfg.first_quarter}..{cfg.last_quarter}"},
    ),
    Stage(
        "networks", "build quarterly co-occurrence networks",
        inputs=("universe",), reads=("occurrences",),
        compute=_networks, writes=(NETWORK_EDGES, NETWORK_NODES, NETWORK_STATS),
    ),
    Stage(
        "rank", "score and rank companies by network centrality",
        inputs=("universe", "marketcaps"), reads=("networks",), compute=_rank,
        writes=(CENTRALITY, AVERAGE_RANK, TIMESERIES),
        params=lambda cfg, v: {"alpha": cfg.alpha, "top_k": cfg.top_k},
    ),
    Stage(
        "risk", "compute sentiment risk scores over the selected universe",
        inputs=("universe",), reads=("occurrences", "rank_lists", "networks"), compute=_risk,
        writes=(SELECTED, RISK),
        params=lambda cfg, v: {
            "lambda": cfg.calibration.lam,
            "mu": cfg.calibration.mu,
            "theta": cfg.calibration.theta,
            "top_k": cfg.top_k,
        },
    ),
    Stage(
        "backtest", "evaluate price declines after each quarter",
        inputs=("universe", "prices"), reads=("datapoints",),
        compute=lambda cfg, v: {
            "study": bt.compute_events(v["datapoints"], v["prices"], cfg.delay_lo, cfg.delay_hi)
        },
        writes=(VALID_POINTS, EVENTS),
        params=lambda cfg, v: {
            "delay_lo": cfg.delay_lo,
            "delay_hi": cfg.delay_hi,
            "n_valid": len(v["study"]),
            "n_no_series": v["study"].n_no_series,
            "n_no_quarter_day": v["study"].n_no_quarter_day,
            "n_no_events": v["study"].n_no_events,
        },
    ),
    Stage(
        "report", "render backtest tables and figure data",
        inputs=(), reads=("study",),
        compute=lambda cfg, v: {"reports": compute_reports(v["study"], cfg.thresholds)},
        writes=(RANGES_CSV, RANGES_TXT, COMPARISON_CSV, COMPARISON_TXT, DAILY, BEST_DELAY,
                HISTOGRAM, PRICE_SERIES),
        params=lambda cfg, v: _report_params(cfg),
    ),
)

STAGE_ORDER = tuple(stage.name for stage in PIPELINE)
#: The stage that writes each artifact, named in dependency errors.
WRITER = {artifact.name: stage.name for stage in PIPELINE for artifact in stage.writes}


# ---------------------------------------------------------------------------
# The runner: file handoff (run_all, STAGES) and in-memory handoff (run_study)
# ---------------------------------------------------------------------------


def _atomic_write(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _file_entry(path: Path) -> dict:
    """SHA-256 and row count of a file, from one binary read.

    Lines are counted as text mode reads them: LF, CRLF and a lone CR each
    end one, and a last line without an ending counts too.
    """
    digest = hashlib.sha256()
    lines = 0
    last = b""
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n") + chunk.count(b"\r") - chunk.count(b"\r\n")
            if last == b"\r" and chunk.startswith(b"\n"):
                lines -= 1  # a "\r\n" split across two chunks
            last = chunk[-1:]
    if last not in (b"", b"\n", b"\r"):
        lines += 1
    rows = max(0, lines - 1) if path.suffix == ".csv" else lines
    return {"sha256": digest.hexdigest(), "rows": rows}


def _rows(cfg: RunConfig, artifact: Artifact) -> Iterator[dict[str, str]]:
    """An artifact's rows as dicts, checked against its declared columns."""
    path = cfg.output / artifact.name
    rerun = f"re-run the {WRITER[artifact.name]!r} command"
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != artifact.columns:
            raise DependencyError(
                f"{artifact.name} has columns {list(header)}, expected "
                f"{list(artifact.columns)} — {rerun}"
            )
        for row in reader:
            if len(row) != len(header):
                raise DependencyError(
                    f"{artifact.name} line {reader.line_num} has {len(row)} cells, "
                    f"expected {len(header)} — {rerun}"
                )
            yield dict(zip(header, row))


def read_handoff(cfg: RunConfig, key: str, values: Values) -> Any:
    """Decode the value `key` from its artifacts in the output directory."""
    handoff = HANDOFFS[key]
    return handoff.decode(cfg, values, *(_rows(cfg, a) for a in handoff.artifacts))


def _load_inputs(cfg: RunConfig, stage: Stage, loaded: dict[str, Any]) -> None:
    """Load into `loaded` each input of `stage` it does not hold yet."""
    for name in stage.inputs:
        if name not in loaded:
            loaded[name] = LOADERS[name](cfg, loaded)


def run_stage(
    stage: Stage, cfg: RunConfig, loaded: dict[str, Any] | None = None
) -> list[Path]:
    """Run one stage with file handoff; returns its artifact and manifest paths.

    `loaded` holds config inputs already loaded, and gains the ones this
    stage loads; `run_all` passes one dict to every stage, so each input
    file is parsed once per run.
    """
    cfg.validate(stage.inputs)
    read = [cfg.output / a.name for key in stage.reads for a in HANDOFFS[key].artifacts]
    for path in read:
        if not path.is_file():
            raise DependencyError(
                f"stage {stage.name!r} needs {path.name} — "
                f"run the {WRITER[path.name]!r} command first"
            )
    loaded = {} if loaded is None else loaded
    _load_inputs(cfg, stage, loaded)
    values: dict[str, Any] = {name: loaded[name] for name in stage.inputs}
    for key in stage.reads:
        values[key] = read_handoff(cfg, key, values)
    values.update(stage.compute(cfg, values))

    outputs = []
    for artifact in stage.writes:
        path = cfg.output / artifact.name
        _atomic_write(path, render(artifact, cfg, values))
        outputs.append(path)
    inputs = [Path(getattr(cfg, name)) for name in stage.inputs] + read
    manifest = {
        "stage": stage.name,
        "config_hash": cfg.fingerprint(),
        "inputs": {p.name: _file_entry(p) for p in sorted(inputs)},
        "outputs": {p.name: _file_entry(p) for p in sorted(outputs)},
        "params": dict(sorted(stage.params(cfg, values).items())),
    }
    manifest_path = cfg.output / f"{stage.name}.manifest.json"
    _atomic_write(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return outputs + [manifest_path]


STAGES: dict[str, Callable[..., list[Path]]] = {
    stage.name: partial(run_stage, stage) for stage in PIPELINE
}


def run_all(cfg: RunConfig) -> list[Path]:
    """Every stage in order; returns all artifact paths.

    Each input file is loaded once and kept until the last stage that reads it.
    """
    written: list[Path] = []
    loaded: dict[str, Any] = {}
    for i, stage in enumerate(PIPELINE):
        artifacts = STAGES[stage.name](cfg, loaded)
        log.info("stage=%s artifacts=%d", stage.name, len(artifacts))
        written.extend(artifacts)
        needed = {name for later in PIPELINE[i + 1 :] for name in later.inputs}
        loaded = {name: value for name, value in loaded.items() if name in needed}
    return written


@dataclass
class StudyResult:
    """Every value an in-memory end-to-end run produces, named as the stages
    name them, so `render` turns it into the artifacts `run_all` writes."""

    config: RunConfig
    occurrences: dict[Quarter, list[OccurrenceSet]]
    networks: dict[Quarter, dict[str, QuarterNetwork]]
    tables: list[CentralityTable]
    rank_lists: dict[tuple[str, str], list[RankEntry]]
    selected: tuple[str, ...]
    datapoints: list[RiskDatapoint]
    study: bt.EventStudy
    reports: bt.ReportBundle


def run_study(cfg: RunConfig, matcher_config: MatcherConfig | None = None) -> StudyResult:
    """Run every stage with in-memory handoff (no artifacts written)."""
    cfg.validate()
    values: dict[str, Any] = {"matcher_config": matcher_config}
    for stage in PIPELINE:
        _load_inputs(cfg, stage, values)
        values.update(stage.compute(cfg, values))
    names = [f.name for f in fields(StudyResult) if f.name != "config"]
    return StudyResult(config=cfg, **{name: values[name] for name in names})
