"""Spans and counters around newsrisk's public calls, recorded from outside.

`pipeline` binds its imports by name (`from .corpus import load_prices`), so
a wrapper only sees calls when it replaces the name in `newsrisk.pipeline`
itself (and `compute_events` on the `bt` module object that `pipeline`
calls through). Patching the defining module would time nothing.

Spans are kept in memory and written when the pass ends, outside the
pipeline's output directory, so the byte-identity of artifacts is kept.
"""

from __future__ import annotations

import json
import time
import uuid
from pathlib import Path

STAGES = ("parse", "networks", "rank", "risk", "backtest", "report")

# (attribute of newsrisk.pipeline, span name). Several functions may feed
# one span name; `<span name>_s` is their summed busy time.
PROBES = (
    ("load_universe", "corpus.load_universe"),
    ("load_articles", "corpus.load_articles"),
    ("load_prices", "corpus.load_prices"),
    ("load_marketcaps", "corpus.load_marketcaps"),
    ("MatcherSet", "entities.matcher_build"),
    ("parse_corpus", "entities.parse"),
    ("build_networks", "networks.build"),
    ("smooth", "networks.smooth"),
    ("information_centrality", "centrality.solve"),
    ("build_tables", "centrality.tables"),
    ("average_rank", "centrality.tables"),
    ("select_universe", "riskrank.score"),
    ("riskrank_quarter", "riskrank.score"),
    ("bt.compute_events", "backtest.events"),
    ("compute_reports", "backtest.report"),
)

PROBE_SPANS = tuple(dict.fromkeys(name for _, name in PROBES))
STAGE_SPANS = tuple(f"pipeline.{stage}" for stage in STAGES)


def _count(attr: str, args: tuple, result, counts: dict[str, float]) -> None:
    """Work counters measured at the boundary, after the span has closed."""

    def add(key: str, value: float) -> None:
        counts[key] = counts.get(key, 0) + value

    if attr == "load_prices":
        add("corpus.load_prices_calls", 1)
        add("corpus.price_rows", sum(len(s.dates) for s in result.series.values()))
    elif attr == "load_universe":
        add("corpus.load_universe_calls", 1)
    elif attr == "load_articles":
        add("corpus.articles_loaded", len(result))
    elif attr == "MatcherSet":
        add("entities.matcher_builds", 1)
    elif attr == "parse_corpus":
        from newsrisk.entities import article_text

        in_window = [a for a in args[0] if a.in_window]
        add("entities.articles_parsed", len(in_window))
        add("entities.chars_scanned", sum(len(article_text(a)) for a in in_window))
        add(
            "entities.mentions_found",
            sum(len(o.companies) for occs in result.values() for o in occs),
        )
    elif attr == "build_networks":
        add("networks.built", len(result))
        add("networks.edges", sum(len(n.edge_weights) for n in result.values()))
    elif attr == "information_centrality":
        n = len(args[0].nodes)
        add("centrality.solves", 1)
        add("centrality.flops_computed", 2 * n**3)
        counts["centrality.matrix_n"] = max(counts.get("centrality.matrix_n", 0), n)
    elif attr == "select_universe":
        add("riskrank.selected", len(result))
    elif attr == "riskrank_quarter":
        add("riskrank.datapoints", len(result))
    elif attr == "bt.compute_events":
        datapoints, lo, hi = args[0], args[2], args[3]
        add("backtest.datapoints_in", len(datapoints))
        add("backtest.datapoints_valid", len(result))
        add("backtest.events_evaluated", len(datapoints) * (hi - lo + 1))


def _set(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Records spans (name, start, end, parent, run id) and counters for one pass."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {"centrality.rejected": 0}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, attr: str, span: str):
        from newsrisk.errors import ConditioningError

        def traced(*args, **kwargs):
            index = len(self.spans)
            record = {
                "name": span,
                "parent": self._stack[-1] if self._stack else None,
                "run_id": self.run_id,
                "error": None,
            }
            self.spans.append(record)
            self._stack.append(index)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record["end"] = time.perf_counter()
                record["error"] = type(exc).__name__
                if isinstance(exc, ConditioningError):
                    self.counts["centrality.rejected"] += 1
                raise
            finally:
                self._stack.pop()
            record["end"] = time.perf_counter()
            _count(attr, args, result, self.counts)
            return result

        return traced

    def _patch(self, owner, attr: str, probe: str, span: str) -> None:
        # `pipeline.STAGES` is a dict of stage functions; the probes are attributes.
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        _set(owner, attr, self._wrap(original, probe, span))

    def install(self) -> None:
        """Patch every probe into the namespaces the pipeline calls through."""
        from newsrisk import pipeline

        for probe, span in PROBES:
            owner, attr = pipeline, probe
            if "." in probe:
                module, attr = probe.split(".")
                owner = getattr(pipeline, module)
            self._patch(owner, attr, probe, span)
        for stage in STAGES:
            self._patch(pipeline.STAGES, stage, stage, f"pipeline.{stage}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            _set(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"run_id": self.run_id, "spans": self.spans}) + "\n",
            encoding="utf-8",
        )

    def layer_metrics(self, expected: tuple[str, ...]) -> tuple[dict[str, float], list[str]]:
        """Busy and self times plus counters, and a list of problems found.

        A stage's self time is its span minus its direct child spans. That is
        only a decomposition when the children nest inside the stage and do
        not overlap, which is checked here.
        """
        fired = {span["name"] for span in self.spans}
        problems = [f"span {name} never fired" for name in expected if name not in fired]
        busy: dict[str, float] = {}
        children: dict[int, list[dict]] = {}
        for span in self.spans:
            busy[span["name"]] = busy.get(span["name"], 0.0) + span["end"] - span["start"]
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        metrics: dict[str, float] = {f"{name}_s": busy.get(name, 0.0) for name in PROBE_SPANS}
        for name in STAGE_SPANS:
            metrics[f"{name}_s"] = 0.0
            metrics[f"{name}_self_s"] = 0.0
        for index, span in enumerate(self.spans):
            if span["name"] not in STAGE_SPANS:
                continue
            kids = sorted(children.get(index, []), key=lambda k: k["start"])
            cursor = span["start"]
            for kid in kids:
                if kid["start"] < cursor or kid["end"] > span["end"]:
                    problems.append(f"{span['name']}: child {kid['name']} overlaps")
                cursor = kid["end"]
            duration = span["end"] - span["start"]
            metrics[f"{span['name']}_s"] += duration
            metrics[f"{span['name']}_self_s"] += duration - sum(
                kid["end"] - kid["start"] for kid in kids
            )
        metrics.update(self.counts)
        return metrics, problems
