"""Staged pipeline: declared artifacts, declared stages, one stage runner.

Stages: parse -> networks -> rank -> risk -> backtest -> report. `PIPELINE`
declares each stage once: the config input files it loads, the values it
reads from earlier stages, a compute function over typed values, the
artifacts it writes and its manifest params. Each artifact is declared once:
file name, columns and an encoder from the run's values to blocks of
columns, which `render` formats with `corpus.format_table`. Values that a
later stage reads back have one decoder each, in `HANDOFFS`, over the
artifacts' columns as `read_columns` reads them, with the reader that loads
the CSV inputs.

`run_all` runs every stage and hands each stage's values to the later ones
in memory, as `run_study` does: each input file is loaded and hashed once,
and an artifact's manifest entry comes from the bytes written. A per-stage
command (`STAGES`) decodes its upstream artifacts instead, checking that
each exists, carries the declared header and has one cell per column on
every row. Every stage writes and hashes its artifacts a slice at a time,
atomically (temp file + rename), and records a manifest with the config
fingerprint, the digests of every file it read, row counts, and stage
parameters. Two runs from identical inputs and config produce
byte-identical artifacts.

`run_study` runs the same stage list without writing: nothing is encoded,
written or hashed. Tests and bulk simulations use it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields
from datetime import date
from functools import partial
from itertools import chain, groupby, repeat
from operator import attrgetter
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import backtest as bt
from .backtest import compute_reports
from .centrality import (
    ABSOLUTE, NORMALIZED, CentralityTable, RankEntry, average_rank, build_tables,
    information_centrality,
)
from .corpus import (
    _BLOCK, _JOIN_ROWS, POLARITIES, Dialect, EntityUniverse, Kind, Table, float_cell, format_table,
    load_articles, load_marketcaps, load_prices, load_universe, read_table,
)
from .entities import MatcherSet, OccurrenceSet, parse_corpus
from .errors import DependencyError, ValidationError
from .networks import MIXED, NETWORK_KINDS, QuarterNetwork, build_networks, network_stats, smooth
from .quarters import Quarter, parse_quarter
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

    def validate(self, inputs: Iterable[str] | None = None) -> None:
        """Check the parameters, and that the named input files exist
        (`None`: every input of `LOADERS`)."""
        if not 0 < self.alpha < math.inf:
            raise ValidationError(f"alpha must be positive and finite, got {self.alpha}")
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
        for k, t in enumerate(self.thresholds):
            if not (0.0 <= t <= 1.0):
                raise ValidationError(f"threshold outside [0,1]: {t}")
            if t in self.thresholds[:k]:
                raise ValidationError(f"threshold {t} is repeated")
        for name in LOADERS if inputs is None else inputs:
            path = getattr(self, name)
            if not Path(path).is_file():
                raise ValidationError(f"{name} file not found: {path}")

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

    def number(key: str, value: object, kind: type = float):
        try:
            if isinstance(value, bool):
                raise TypeError  # JSON's true and false are not numbers
            result = kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"{key} must be a number, got {value!r}") from None
        if kind is int and isinstance(value, float) and result != value:
            raise ValidationError(f"{key} must be an integer, got {value!r}")
        return result

    # A key the mapping leaves out keeps the default its dataclass field states.
    params: dict[str, Any] = {}
    if "quarters" in raw:
        try:
            first_label, _, last_label = str(raw["quarters"]).partition("..")
            params["first_quarter"] = parse_quarter(first_label)
            params["last_quarter"] = parse_quarter(last_label or first_label)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
    calibration = (("lambda", "lam"), ("mu", "mu"), ("theta", "theta"))
    params["calibration"] = RiskCalibration(
        **{name: number(key, raw[key]) for key, name in calibration if key in raw}
    )
    if "delays" in raw:
        delays = raw["delays"]
        if not (isinstance(delays, (list, tuple)) and len(delays) == 2):
            raise ValidationError(f"delays must be a [lo, hi] pair, got {delays!r}")
        params["delay_lo"], params["delay_hi"] = (number("delays", d, int) for d in delays)
    if "thresholds" in raw:
        if not isinstance(raw["thresholds"], (list, tuple)):
            raise ValidationError("thresholds must be a list")
        params["thresholds"] = tuple(number("thresholds", t) for t in raw["thresholds"])
    if "alpha" in raw:
        params["alpha"] = number("alpha", raw["alpha"])
    if "top_k" in raw:
        params["top_k"] = number("top_k", raw["top_k"], int)

    paths = ("articles", "universe", "prices", "marketcaps", "output")
    return RunConfig(**{key: path_of(key) for key in paths}, **params)


# ---------------------------------------------------------------------------
# Artifacts: one declaration per file
# ---------------------------------------------------------------------------

Values = Mapping[str, Any]


@dataclass(frozen=True)
class Artifact:
    """One output file.

    `encode(cfg, values)` returns an iterable of blocks, each one sequence
    per declared column, all of one length (lists, tuples, ranges or numpy
    arrays), or the file's text when `columns` is None. An artifact whose
    rows grow with the input yields a block per group of them (a quarter,
    a network, a table or a report subset), so a write holds one group's
    cells; a small one returns a one-block list.
    """

    name: str
    columns: tuple[str, ...] | None
    encode: Callable[[RunConfig, Values], Any]


def render(artifact: Artifact, cfg: RunConfig, values: Values) -> Iterable[str]:
    """The file content of `artifact` for a run's values, a slice at a time:
    its text, or its blocks formatted by `format_table`."""
    encoded = artifact.encode(cfg, values)
    return (encoded,) if artifact.columns is None else format_table(artifact.columns, encoded)


#: The risk-score columns every datapoint artifact carries, in order.
SCORES = ("x_own", "rr_own", "rr_direct", "rr_indirect", "rr_total")


def _repeat(values: Iterable, counts: Iterable[int]) -> list:
    """Each value repeated its count of times: a group's cell on each of its rows."""
    return list(chain.from_iterable(map(repeat, values, counts)))


def _fields(records: Sequence, cls: type) -> list[list]:
    """One column per field of the dataclass `cls`, in declaration order."""
    return [[getattr(r, f.name) for r in records] for f in fields(cls)]


def _occurrence_columns(cfg: RunConfig, v: Values) -> Iterator[tuple[list, ...]]:
    """One block per quarter, its records in article_id order."""
    occurrences = v["occurrences"]
    for quarter in sorted(occurrences):
        occs = sorted(occurrences[quarter], key=attrgetter("article_id"))
        yield (
            [occ.article_id for occ in occs],
            [quarter.label] * len(occs),
            [occ.polarity for occ in occs],
            ["|".join(sorted(occ.companies)) for occ in occs],
        )


def _each_network(v: Values) -> list[QuarterNetwork]:
    networks = v["networks"]
    return [networks[quarter][kind] for quarter in sorted(networks) for kind in NETWORK_KINDS]


def _network_rows(
    v: Values, rows: Callable[[QuarterNetwork], tuple]
) -> Iterator[tuple[Sequence, ...]]:
    """One block per network: quarter and polarity columns, then an id
    column per column of the node positions `rows(network)` gives for its
    rows, and their weights."""
    for network in _each_network(v):
        positions, weights = rows(network)
        ids = np.array(network.nodes, dtype=object)[positions]
        n = len(weights)
        yield ([network.quarter.label] * n, [network.polarity] * n, *ids.T, weights)


def _held_nodes(network: QuarterNetwork) -> tuple[np.ndarray, np.ndarray]:
    """The positions, as one column, and weights of the nodes an article names."""
    held = np.flatnonzero(network.node_weights)
    return held[:, None], network.node_weights[held]


def _network_stat_columns(cfg: RunConfig, v: Values) -> list[list[list]]:
    stats = [network_stats(network) for network in _each_network(v)]
    return [[[s[column] for s in stats] for column in NETWORK_STATS.columns]]


def _centrality_columns(cfg: RunConfig, v: Values) -> Iterator[tuple[Sequence, ...]]:
    """One block per table, whose arrays are its last three columns."""
    for t in v["tables"]:
        n = len(t.ids)
        yield [t.quarter.label] * n, [t.polarity] * n, [t.mode] * n, t.ids, t.scores, t.ranks


def _average_rank_columns(cfg: RunConfig, v: Values) -> Iterator[list[list]]:
    """One block per rank list."""
    for (polarity, mode), entries in v["rank_lists"].items():
        yield [[polarity] * len(entries), [mode] * len(entries), *_fields(entries, RankEntry)]


def _datapoint_columns(
    columns: Sequence[str], datapoints: Iterable[RiskDatapoint], cfg: RunConfig
) -> Iterator[list[list]]:
    """The named columns of a datapoint artifact, one block per run of
    datapoints of one quarter (they are in quarter order); the calibration
    columns repeat the run's calibration on every row."""
    calibration = dict(zip(("lambda", "mu", "theta"), astuple(cfg.calibration)))

    def column(name: str, points: list[RiskDatapoint]) -> list:
        if name == "quarter":
            return [dp.quarter.label for dp in points]
        if name == "measurement_date":
            return [dp.measurement_date and dp.measurement_date.isoformat() for dp in points]
        if name in calibration:
            return [calibration[name]] * len(points)
        return [getattr(dp, name) for dp in points]

    for _, group in groupby(datapoints, attrgetter("quarter")):
        points = list(group)
        yield [column(name, points) for name in columns]


#: decline_events.csv cells of the outcome codes -1, 0 and 1, at code + 1.
_OUTCOME_CELLS = np.array(["", "false", "true"], dtype=object)


def _event_columns(cfg: RunConfig, v: Values) -> Iterator[tuple[Sequence, ...]]:
    """One row per datapoint and delay, delays inner, in blocks of whole
    datapoints of about `_JOIN_ROWS` rows: the cells of each datapoint and
    of each delay repeat, and come from small tables."""
    study = v["study"]
    delays = [str(d) for d in study.delays]
    step = max(1, _JOIN_ROWS // len(delays))
    for lo in range(0, len(study), step):
        points = study.datapoints[lo:lo + step]
        yield (
            _repeat([dp.quarter.label for dp in points], repeat(len(delays))),
            _repeat([dp.canonical_id for dp in points], repeat(len(delays))),
            delays * len(points),
            _OUTCOME_CELLS[study.outcomes[lo:lo + step].ravel() + 1],
        )


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


# Report records and the calibration are written field by field, in the
# order their dataclass declares them, which is the order of the columns.
def _range_columns(cfg: RunConfig, v: Values) -> Iterator[tuple[list, ...]]:
    """One block per (kind, threshold) subset."""
    reports = v["reports"].range_reports
    for kind, threshold in sorted(reports):
        report = reports[(kind, threshold)]
        n = len(report.rows)
        yield ([kind] * n, [threshold] * n, *_fields(report.rows, bt.RangeStat),
               [report.n_subset] * n, [report.n_benchmark] * n)


def _comparison_columns(cfg: RunConfig, v: Values) -> list[tuple[list, ...]]:
    report = v["reports"].comparison
    rows = report.rows if report else ()
    thresholds = [report.threshold] * len(rows) if report else []
    return [(thresholds, *_fields(rows, bt.ComparisonRow))]


def _daily_columns(cfg: RunConfig, v: Values) -> Iterator[tuple[Sequence, ...]]:
    """One block per (kind, threshold) subset, a row per delay."""
    study, reports = v["study"], v["reports"]
    n = len(study.delays)
    for kind, threshold in sorted(reports.range_reports):
        daily = reports.subset_daily[(kind, threshold)]
        yield [kind] * n, [threshold] * n, study.delays, daily, reports.benchmark_daily


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
    "occurrences.csv", ("article_id", "quarter", "polarity", "companies"), _occurrence_columns
)
NETWORK_EDGES = Artifact(
    "network_edges.csv",
    ("quarter", "polarity", "i", "j", "weight"),
    lambda cfg, v: _network_rows(v, lambda n: (n.edge_index, n.edge_weights)),
)
NETWORK_NODES = Artifact(
    "network_nodes.csv",
    ("quarter", "polarity", "canonical_id", "s"),
    lambda cfg, v: _network_rows(v, _held_nodes),
)
NETWORK_STATS = Artifact(
    "network_stats.csv",
    ("quarter", "polarity", "n_nodes", "n_edges", "article_count", "avg_edges_per_node",
     "max_degree", "max_degree_node"),
    _network_stat_columns,
)
CENTRALITY = Artifact(
    "centrality.csv",
    ("quarter", "polarity", "mode", "canonical_id", "score", "rank"),
    _centrality_columns,
)
AVERAGE_RANK = Artifact(
    "average_rank.csv",
    ("polarity", "mode", "canonical_id", "average_rank", "quarters_scored"),
    _average_rank_columns,
)
SELECTED = Artifact(
    "selected_universe.csv", ("canonical_id",), lambda cfg, v: [(v["selected"],)]
)
RISK = Artifact(
    "risk.csv",
    ("quarter", "canonical_id", *SCORES, "lambda", "mu", "theta"),
    lambda cfg, v: _datapoint_columns(RISK.columns, v["datapoints"], cfg),
)
VALID_POINTS = Artifact(
    "valid_datapoints.csv",
    ("quarter", "canonical_id", "measurement_date", "close", *SCORES),
    lambda cfg, v: _datapoint_columns(VALID_POINTS.columns, v["study"].datapoints, cfg),
)
EVENTS = Artifact(
    "decline_events.csv", ("quarter", "canonical_id", "delay", "decreased"), _event_columns
)
RANGES_CSV = Artifact(
    "backtest_ranges.csv",
    ("kind", "threshold", "days_delay", "subset_rate", "benchmark_rate", "abs_diff", "rel_diff",
     "benchmark_daily_std", "std_outperformance", "n_subset", "n_benchmark"),
    _range_columns,
)
RANGES_TXT = Artifact("backtest_ranges.txt", None, _ranges_text)
COMPARISON_CSV = Artifact(
    "backtest_comparison.csv",
    ("threshold", "days_delay", "agg_rate", "agg_outperformance", "ind_rate",
     "ind_outperformance", "outperformance_gap"),
    _comparison_columns,
)
COMPARISON_TXT = Artifact("backtest_comparison.txt", None, _comparison_text)
DAILY = Artifact(
    "backtest_daily.csv",
    ("kind", "threshold", "delay", "subset_rate", "benchmark_rate"),
    _daily_columns,
)
BEST_DELAY = Artifact(
    "best_delay.csv",
    ("kind", "threshold", "delay", "subset_rate", "benchmark_rate", "diff", "stderr",
     "n_subset_defined", "n_benchmark_defined"),
    lambda cfg, v: [_fields(v["reports"].best_delays, bt.BestDelay)],
)
HISTOGRAM = Artifact(
    "risk_histogram.csv",
    ("risk_at_least", "n_aggregated", "pct_aggregated", "n_individual", "pct_individual"),
    lambda cfg, v: [_fields(v["reports"].histogram, bt.HistogramRow)],
)


# ---------------------------------------------------------------------------
# Handoffs: the values later stages read back, and their decoders
# ---------------------------------------------------------------------------


def _artifact_error(path: Path, line: int | None, problem: str) -> DependencyError:
    where = path.name if line is None else f"{path.name} line {line}"
    return DependencyError(f"{where} {problem} — re-run the {WRITER[path.name]!r} command")


#: How a fault of an artifact is worded: `decline_events.csv line 7 has
#: delay 'x3', expected an integer — re-run the 'backtest' command`.
ARTIFACT = Dialect(
    "has columns {found}, expected {expected}", "has {got} cells, expected {expected}",
    _artifact_error,
)
TEXT = Kind(sys.intern)
#: How each typed column of an artifact that a stage reads back is read.
KINDS: dict[str, Kind] = {
    "quarter": Kind(parse_quarter, "has bad {name} {cell!r}: {error}"),
    "measurement_date": Kind(date.fromisoformat, "has bad {name} {cell!r}: {error}"),
    **dict.fromkeys(
        ("weight", "s", "article_count", "quarters_scored", "delay"),
        Kind(np.int64, "has {name} {cell!r}, expected an integer", np.int64),
    ),
    **dict.fromkeys(
        (*SCORES, "close", "average_rank"),
        Kind(float_cell, "has {name} {cell!r}, expected a number", np.float64),
    ),
    # outcome codes, the inverse of `_OUTCOME_CELLS`
    "decreased": Kind(
        {cell: code - 1 for code, cell in enumerate(_OUTCOME_CELLS)}.__getitem__,
        "has {name} {cell!r}, expected 'true', 'false' or empty",
        np.int8,
    ),
}


def read_columns(cfg: RunConfig, artifact: Artifact, types: Mapping[str, Kind]) -> Table:
    """An artifact's columns, under its declared header; a column that
    `types` does not name is text."""
    kinds = {name: types.get(name, TEXT) for name in artifact.columns}
    return read_table(cfg.output / artifact.name, kinds, ARTIFACT)


@dataclass(frozen=True)
class Handoff:
    """A value later stages read back from the artifacts that store it.

    `decode(cfg, values, *tables)` gets the `Table` of each artifact, in
    the order of `artifacts`, and the reading stage's loaded inputs in
    `values`, its columns typed by `KINDS`. After `decode`, `read_handoff`
    raises for a row that could not be read, if any.
    """

    artifacts: tuple[Artifact, ...]
    decode: Callable[..., Any]


def _declared(table: Table, column: str, allowed: Sequence[str]) -> tuple:
    """A `raise_first` check that flags a cell of `column` outside `allowed`."""
    cells = table[column]
    return (
        [cell not in allowed for cell in cells],
        lambda r: f"has {column} {cells[r]!r}, expected one of {', '.join(allowed)}",
    )


def _in_universe(table: Table, v: Values) -> tuple:
    """A `raise_first` check that flags a canonical_id outside the universe in `v`."""
    ids, universe = table["canonical_id"], set(v["universe"].ids())
    outside = [cid not in universe for cid in ids]
    return outside, lambda r: f"has canonical_id {ids[r]!r} outside the universe"


def _decode_occurrences(cfg, v, table: Table) -> dict[Quarter, list[OccurrenceSet]]:
    """Occurrences whose polarity is declared and whose companies are in
    the universe in `v`, which the networks stage loads."""
    universe = set(v["universe"].ids())
    companies = [frozenset(filter(None, ids.split("|"))) for ids in table["companies"]]
    table.raise_first(
        _declared(table, "polarity", POLARITIES),
        (
            [not ids <= universe for ids in companies],
            lambda r: f"has company {min(companies[r] - universe)!r} outside the universe",
        ),
    )
    occurrences: dict[Quarter, list[OccurrenceSet]] = {}
    for row in zip(table["article_id"], table["quarter"], table["polarity"], companies):
        occurrences.setdefault(row[1], []).append(OccurrenceSet(*row))
    return {q: occurrences[q] for q in sorted(occurrences)}


def _decode_networks(cfg, v, edges, nodes, stats) -> dict[Quarter, dict[str, QuarterNetwork]]:
    """Networks over the universe in `v`, which every reading stage loads.
    Each row's network and companies are looked up once; the edge rows are
    then sorted by network and pair, and split into the networks."""
    universe_ids = tuple(sorted(v["universe"].ids()))
    n = len(universe_ids)
    position = {cid: k for k, cid in enumerate(universe_ids)}
    slots: dict[tuple[Quarter, str], int] = {}

    def rows(table: Table, *columns: str) -> list[np.ndarray]:
        """The network of each row, whose polarity must be declared, then
        the node position of each row's cell of each column, which must name
        a company of the universe."""
        table.raise_first(_declared(table, "polarity", NETWORK_KINDS))
        keys = zip(table["quarter"], table["polarity"])
        found = [np.array([slots.setdefault(key, len(slots)) for key in keys], dtype=np.intp)]
        for column in columns:
            ids = table[column]
            found.append(np.array([position.get(cid, -1) for cid in ids], dtype=np.intp))
            outside = found[-1] < 0
            table.raise_first((outside, lambda r: f"has {column} {ids[r]!r} outside the universe"))
        return found

    (stat_slots,), (edge_slots, i, j) = rows(stats), rows(edges, "i", "j")
    node_slots, held = rows(nodes, "canonical_id")
    stated = set(zip(stats["quarter"], stats["polarity"]))
    for quarter in sorted({q for q, _ in slots}):  # rank and risk read all three
        for kind in NETWORK_KINDS:
            if (quarter, kind) not in stated:
                raise _artifact_error(
                    stats.path, None, f"has no row for the {quarter.label} {kind} network"
                )
    node_weights = np.zeros((len(slots), n), dtype=np.int64)
    node_weights[node_slots, held] = nodes["s"]
    counts = dict(zip(stat_slots.tolist(), stats["article_count"].tolist()))
    order = np.lexsort((i * n + j, edge_slots))
    bounds = np.searchsorted(edge_slots[order], np.arange(len(slots) + 1))

    networks: dict[Quarter, dict[str, QuarterNetwork]] = {}
    for (quarter, kind), k in slots.items():
        cut = order[bounds[k]:bounds[k + 1]]
        networks.setdefault(quarter, {})[kind] = QuarterNetwork(
            quarter=quarter,
            polarity=kind,
            nodes=universe_ids,
            node_weights=node_weights[k],
            edge_index=np.stack((i[cut], j[cut]), axis=1),
            edge_weights=edges["weight"][cut],
            article_count=counts[k],
        )
    return {q: networks[q] for q in sorted(networks)}


def _decode_rank_lists(cfg, v, table: Table) -> dict[tuple[str, str], list[RankEntry]]:
    """Rank lists over the universe in `v`, which the risk stage loads."""
    lists: dict[tuple[str, str], list[RankEntry]] = {
        (polarity, mode): [] for polarity in NETWORK_KINDS for mode in MODES
    }
    table.raise_first(
        _declared(table, "polarity", NETWORK_KINDS),
        _declared(table, "mode", MODES),
        _in_universe(table, v),
    )
    for polarity, mode, *entry in zip(
        table["polarity"], table["mode"], table["canonical_id"], table["average_rank"].tolist(),
        table["quarters_scored"].tolist(),
    ):
        lists[(polarity, mode)].append(RankEntry(*entry))
    return lists


def _decode_datapoints(table: Table, *measured: Sequence) -> list[RiskDatapoint]:
    """Datapoints from their id, quarter and score columns; `measured` are
    the measurement date and close columns, when the artifact has them."""
    scores = [table[name].tolist() for name in SCORES]
    return [
        RiskDatapoint(*cells)
        for cells in zip(table["canonical_id"], table["quarter"], *scores, *measured)
    ]


def _decode_risk(cfg, v, table: Table) -> list[RiskDatapoint]:
    """Datapoints over the universe in `v`, which the backtest loads once
    this table's rows are read, so that a faulty row of it is named first."""
    table.raise_first()
    table.raise_first(_in_universe(table, v))
    return _decode_datapoints(table)


def _decode_study(cfg, v, valid: Table, events: Table) -> bt.EventStudy:
    """The outcome matrix is filled by one assignment from the row index,
    delay and outcome code of every event row. Each datapoint must have
    exactly one row per delay of the configured window."""
    valid.raise_first()  # a cut-off valid table would make later event rows look unknown
    datapoints = _decode_datapoints(valid, valid["measurement_date"], valid["close"].tolist())
    index = {(dp.quarter, dp.canonical_id): r for r, dp in enumerate(datapoints)}
    lo, hi = cfg.delay_lo, cfg.delay_hi
    width = hi - lo + 1
    offsets = events["delay"] - lo
    keys = list(zip(events["quarter"], events["canonical_id"]))
    rows = np.fromiter(map(index.get, keys, repeat(-1)), dtype=np.intp, count=len(keys))
    cells = rows * width + offsets
    order = np.argsort(cells, kind="stable")
    repeats = np.zeros(len(cells), dtype=bool)
    repeats[order[1:][cells[order[1:]] == cells[order[:-1]]]] = True

    def key(row: int) -> tuple[str, str]:
        return keys[row][0].label, keys[row][1]

    # The cell of a row outside the window or of an unknown datapoint means
    # nothing, but that row is flagged itself, before any row it repeats.
    events.raise_first(
        (
            (offsets < 0) | (offsets >= width),
            lambda r: f"has delay {lo + offsets[r]}, outside the configured delays {lo}..{hi}",
        ),
        (rows < 0, lambda r: f"has an event row for unknown datapoint {key(r)}"),
        (repeats, lambda r: f"repeats delay {lo + offsets[r]} of datapoint {key(r)}"),
    )
    counts = np.bincount(cells, minlength=len(datapoints) * width).reshape(-1, width)

    def missing(row: int) -> str:
        held = (datapoints[row].quarter.label, datapoints[row].canonical_id)
        delay = lo + int(np.argmin(counts[row]))
        return f"holds datapoint {held}, which has no {EVENTS.name} row for delay {delay}"

    valid.raise_first((counts.min(axis=1) == 0, missing))
    outcomes = np.full((len(datapoints), width), -1, dtype=np.int8)
    outcomes[rows, offsets] = events["decreased"]
    return bt.EventStudy(tuple(datapoints), outcomes, delay_lo=lo, delay_hi=hi)


HANDOFFS: dict[str, Handoff] = {
    "occurrences": Handoff((OCCURRENCES,), _decode_occurrences),
    "networks": Handoff((NETWORK_EDGES, NETWORK_NODES, NETWORK_STATS), _decode_networks),
    "rank_lists": Handoff((AVERAGE_RANK,), _decode_rank_lists),
    "datapoints": Handoff((RISK,), _decode_risk),
    "study": Handoff((VALID_POINTS, EVENTS), _decode_study),
}


# ---------------------------------------------------------------------------
# Stages: one declaration each
# ---------------------------------------------------------------------------

def _load_prices(cfg: RunConfig, v: Values) -> Any:
    """The price series of the datapoints' companies, the only ones the
    backtest reads, keyed by canonical_id: the rows of every other ticker
    are checked and never held."""
    records = v["universe"].records
    ids = {dp.canonical_id for dp in v["datapoints"]}
    return load_prices(cfg.prices, EntityUniverse(records[cid] for cid in ids if cid in records))


#: How each input file of the config is loaded, from the values of the
#: stage that loads it.
LOADERS: dict[str, Callable[[RunConfig, Values], Any]] = {
    "articles": lambda cfg, v: load_articles(cfg.articles, window=cfg.window),
    "universe": lambda cfg, v: load_universe(cfg.universe),
    "prices": _load_prices,
    "marketcaps": lambda cfg, v: load_marketcaps(cfg.marketcaps),
}


@dataclass(frozen=True)
class Stage:
    """One pipeline stage.

    `inputs` are config input files (keys of `LOADERS`) and `reads` are
    values of earlier stages (keys of `HANDOFFS`); each is loaded or decoded
    when it is first used. `compute` maps the run's values to this stage's
    new values, from which `writes` encode; `params` are recorded in the
    manifest.
    """

    name: str
    doc: str
    inputs: tuple[str, ...]
    reads: tuple[str, ...]
    compute: Callable[[RunConfig, Values], dict[str, Any]]
    writes: tuple[Artifact, ...]
    params: Callable[[RunConfig, Values], dict[str, object]] = lambda cfg, v: {}


def _parse(cfg: RunConfig, v: Values) -> dict[str, Any]:
    articles = v["articles"]
    return {"occurrences": parse_corpus(articles, MatcherSet(v["universe"]))}


def _networks(cfg: RunConfig, v: Values) -> dict[str, Any]:
    occurrences, universe_ids = v["occurrences"], v["universe"].ids()
    networks = {q: build_networks(occurrences[q], q, universe_ids) for q in sorted(occurrences)}
    return {"networks": networks}


def _rank(cfg: RunConfig, v: Values) -> dict[str, Any]:
    """Absolute and normalized centrality tables for every (quarter, polarity),
    and the top-k average-rank list for every (polarity, mode)."""
    tables: list[CentralityTable] = []
    for quarter, networks in sorted(v["networks"].items()):
        nodes = networks[MIXED].nodes
        caps = np.array([v["marketcaps"].get(cid, quarter) for cid in nodes], dtype=float)
        for kind in NETWORK_KINDS:
            network = smooth(networks[kind], cfg.alpha)
            tables.extend(build_tables(network, information_centrality(network), caps))
    rank_lists = {
        (polarity, mode): average_rank(
            [t for t in tables if t.polarity == polarity and t.mode == mode], cfg.top_k
        )
        for polarity in NETWORK_KINDS
        for mode in MODES
    }
    return {"tables": tables, "rank_lists": rank_lists}


def _risk(cfg: RunConfig, v: Values) -> dict[str, Any]:
    lists, networks = v["rank_lists"], v["networks"]
    selected = select_universe(lists[(MIXED, ABSOLUTE)], lists[(MIXED, NORMALIZED)], cfg.top_k)
    datapoints = [
        dp
        for q in sorted(networks)
        for dp in riskrank_quarter(networks[q], selected, cfg.calibration)
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
        writes=(CENTRALITY, AVERAGE_RANK),
        params=lambda cfg, v: {"alpha": cfg.alpha, "top_k": cfg.top_k},
    ),
    Stage(
        "risk", "compute sentiment risk scores over the selected universe",
        inputs=("universe",), reads=("rank_lists", "networks"), compute=_risk,
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
                HISTOGRAM),
        params=lambda cfg, v: _report_params(cfg),
    ),
)

STAGE_ORDER = tuple(stage.name for stage in PIPELINE)
#: The stage that writes each artifact, named in dependency errors.
WRITER = {artifact.name: stage.name for stage in PIPELINE for artifact in stage.writes}


# ---------------------------------------------------------------------------
# The runner: run_all, the stage commands (STAGES) and run_study
# ---------------------------------------------------------------------------


@contextmanager
def _atomic(path: Path) -> Iterator[BinaryIO]:
    """A temp file that replaces `path` when the block ends, or is removed if it raises."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _written(fh: BinaryIO, pieces: Iterable[str]) -> Iterator[bytes]:
    """The bytes of each text piece, once written to `fh`."""
    for piece in pieces:
        data = piece.encode("utf-8")
        fh.write(data)
        yield data


def _chunks(path: Path) -> Iterator[bytes]:
    with path.open("rb") as fh:
        yield from iter(lambda: fh.read(_BLOCK), b"")


def _file_entry(path: Path, chunks: Iterable[bytes] | None = None) -> dict:
    """SHA-256 and row count of the file at `path`: of `chunks`, its bytes
    as they are written, when given, else from binary reads.

    Lines are counted as text mode reads them: LF, CRLF and a lone CR each
    end one, and a last line without an ending counts too.
    """
    digest = hashlib.sha256()
    lines = 0
    last = b""
    for chunk in _chunks(path) if chunks is None else chunks:
        digest.update(chunk)
        lines += chunk.count(b"\n")
        if b"\r" in chunk:
            lines += chunk.count(b"\r") - chunk.count(b"\r\n")
        if last == b"\r" and chunk.startswith(b"\n"):
            lines -= 1  # a "\r\n" split across two chunks
        last = chunk[-1:] or last
    if last not in (b"", b"\n", b"\r"):
        lines += 1
    rows = max(0, lines - 1) if path.suffix == ".csv" else lines
    return {"sha256": digest.hexdigest(), "rows": rows}


def read_handoff(cfg: RunConfig, key: str, values: Values) -> Any:
    """Decode the value `key` from its artifacts in the output directory."""
    handoff = HANDOFFS[key]
    tables = [read_columns(cfg, a, KINDS) for a in handoff.artifacts]
    value = handoff.decode(cfg, values, *tables)
    for table in tables:
        table.raise_first()
    return value


class _Values(dict):
    """The values of one stage by name: those in `held`, then each input of
    the stage loaded, and each value it reads decoded from its artifacts,
    when first used."""

    def __init__(self, cfg: RunConfig, stage: Stage, held: Values):
        names = (*stage.inputs, *stage.reads)
        super().__init__((name, held[name]) for name in names if name in held)
        self.cfg, self.stage = cfg, stage

    def __missing__(self, name: str) -> Any:
        if name in self.stage.inputs:
            value = LOADERS[name](self.cfg, self)
        elif name in self.stage.reads:
            value = read_handoff(self.cfg, name, self)
        else:
            raise KeyError(name)
        self[name] = value
        return value


def run_stage(
    stage: Stage,
    cfg: RunConfig,
    loaded: dict[str, Any] | None = None,
    entries: dict[Path, dict] | None = None,
) -> list[Path]:
    """Run one stage, writing its artifacts; returns their and its manifest's paths.

    `loaded` holds the values already in hand, config inputs and earlier
    stages' values alike, and gains the values this stage loads, decodes
    and computes. An input this stage uses that `loaded` lacks is loaded,
    and a value it reads is decoded from its artifacts, on first use.
    `entries` holds the manifest entry of each file hashed so far, by path,
    and gains this stage's. `run_all` passes the same two dicts to every
    stage; a stage command passes neither.
    """
    cfg.validate(stage.inputs)
    loaded = {} if loaded is None else loaded
    entries = {} if entries is None else entries
    read = [cfg.output / a.name for key in stage.reads for a in HANDOFFS[key].artifacts]
    for path in read:
        if path not in entries and not path.is_file():
            raise DependencyError(
                f"stage {stage.name!r} needs {path.name} — "
                f"run the {WRITER[path.name]!r} command first"
            )
    inputs = [Path(getattr(cfg, name)) for name in stage.inputs] + read
    for path in inputs:
        if path not in entries:
            entries[path] = _file_entry(path)
    values = _Values(cfg, stage, loaded)
    values.update(stage.compute(cfg, values))
    loaded.update(values)

    outputs = [cfg.output / artifact.name for artifact in stage.writes]
    for path, artifact in zip(outputs, stage.writes):
        with _atomic(path) as fh:
            entries[path] = _file_entry(path, _written(fh, render(artifact, cfg, values)))
    manifest = {
        "stage": stage.name,
        "config_hash": cfg.fingerprint(),
        "inputs": {p.name: entries[p] for p in sorted(inputs)},
        "outputs": {p.name: entries[p] for p in sorted(outputs)},
        "params": dict(sorted(stage.params(cfg, values).items())),
    }
    manifest_path = cfg.output / f"{stage.name}.manifest.json"
    with _atomic(manifest_path) as fh:
        fh.write((json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    return outputs + [manifest_path]


STAGES: dict[str, Callable[..., list[Path]]] = {
    stage.name: partial(run_stage, stage) for stage in PIPELINE
}


def run_all(cfg: RunConfig) -> list[Path]:
    """Every stage in order; returns all artifact paths.

    The stages hand their values to each other in memory, as in `run_study`,
    and each file is hashed once. An input file is loaded once, and every
    value is kept until the last stage that loads or reads it.
    """
    written: list[Path] = []
    loaded: dict[str, Any] = {}
    entries: dict[Path, dict] = {}
    for i, stage in enumerate(PIPELINE):
        artifacts = STAGES[stage.name](cfg, loaded, entries)
        log.info("stage=%s artifacts=%d", stage.name, len(artifacts))
        written.extend(artifacts)
        needed = {name for later in PIPELINE[i + 1 :] for name in (*later.inputs, *later.reads)}
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


def run_study(cfg: RunConfig) -> StudyResult:
    """Run every stage with in-memory handoff (no artifacts written)."""
    cfg.validate()
    values: dict[str, Any] = {}
    for stage in PIPELINE:
        current = _Values(cfg, stage, values)
        current.update(stage.compute(cfg, current))
        values.update(current)
    names = [f.name for f in fields(StudyResult) if f.name != "config"]
    return StudyResult(config=cfg, **{name: values[name] for name in names})
