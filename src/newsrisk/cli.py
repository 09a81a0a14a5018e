"""Command-line entry points.

One subcommand per pipeline stage plus `run` (all stages) and `fixture`
(synthetic corpus generation). Exit codes: 0 on success, 1 for validation
problems (bad inputs, bad flags), 2 for missing upstream artifacts.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .errors import DependencyError, NewsriskError, ValidationError
from .fixtures import FixtureSpec, generate_fixture, write_fixture
from .pipeline import PIPELINE, STAGES, config_from_file, run_all

log = logging.getLogger("newsrisk")


class _Parser(argparse.ArgumentParser):
    """argparse's default usage failure calls sys.exit(2); remap to 1."""

    def error(self, message: str):  # noqa: D102 - argparse override
        raise ValidationError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, required=True, help="JSON run config")
    parser.add_argument("--output", type=Path, help="override the output directory")
    parser.add_argument("--alpha", type=float, help="edge smoothing constant")
    parser.add_argument("--lambda", dest="lam", type=float, help="importance split")
    parser.add_argument("--mu", type=float, help="indirect-neighbor share")
    parser.add_argument("--theta", type=float, help="interaction strength")
    parser.add_argument("--quarters", help="window as FROM..TO, e.g. 2011Q1..2016Q2")
    for name in ("articles", "universe", "prices", "marketcaps"):
        parser.add_argument(f"--{name}", type=Path, help=f"override the {name} path")


def _overrides(args: argparse.Namespace) -> dict:
    mapping = {
        "output": args.output,
        "alpha": args.alpha,
        "lambda": args.lam,
        "mu": args.mu,
        "theta": args.theta,
        "quarters": args.quarters,
        "articles": args.articles,
        "universe": args.universe,
        "prices": args.prices,
        "marketcaps": args.marketcaps,
    }
    return {k: (str(v) if isinstance(v, Path) else v) for k, v in mapping.items()}


def _run_stage(args: argparse.Namespace) -> int:
    cfg = config_from_file(args.config, _overrides(args))
    if args.command == "run":
        written = run_all(cfg)
    else:
        written = STAGES[args.command](cfg)
    for path in written:
        log.info("wrote=%s", path)
    return 0


def _run_fixture(args: argparse.Namespace) -> int:
    window = args.drift_window
    try:
        lo, _, hi = window.partition("..")
        drift_window = (int(lo), int(hi))
    except ValueError:
        raise ValidationError(f"--drift-window must be LO..HI, got {window!r}") from None
    spec = FixtureSpec(
        seed=args.seed,
        n_companies=args.companies,
        n_quarters=args.quarters_count,
        n_articles=args.articles_count,
        negative_share=args.negative_share,
        clusters_per_quarter=args.clusters,
        cluster_size=args.cluster_size,
        cluster_articles=args.cluster_articles,
        drift_pct_per_day=args.drift_pct,
        drift_window=drift_window,
        missing_caps=args.missing_caps,
        share_class_pairs=args.share_class_pairs,
    )
    fixture = generate_fixture(spec)
    paths = write_fixture(fixture, args.output)

    quarters = fixture.quarters
    run_config = {
        "articles": paths["articles"].name,
        "universe": paths["universe"].name,
        "prices": paths["prices"].name,
        "marketcaps": paths["marketcaps"].name,
        "output": "out",
        "quarters": f"{quarters[0]}..{quarters[-1]}",
    }
    config_path = Path(args.output) / "run_config.json"
    config_path.write_text(
        json.dumps(run_config, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for path in (*paths.values(), config_path):
        log.info("wrote=%s", path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="newsrisk",
        description="Quarterly news co-occurrence networks, centrality ranking, "
        "sentiment risk scores, and a price-decline backtest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = [(stage.name, stage.doc) for stage in PIPELINE]
    for name, doc in (*commands, ("run", "run every stage in order")):
        command = sub.add_parser(name, help=doc)
        _add_common(command)
        command.set_defaults(handler=_run_stage)

    defaults = FixtureSpec()
    fixture = sub.add_parser("fixture", help="generate a synthetic corpus")
    fixture.add_argument("--output", type=Path, required=True, help="target directory")
    fixture.add_argument("--seed", type=int, default=defaults.seed)
    fixture.add_argument("--companies", type=int, default=defaults.n_companies)
    fixture.add_argument("--quarters-count", type=int, default=defaults.n_quarters)
    fixture.add_argument("--articles-count", type=int, default=defaults.n_articles)
    fixture.add_argument(
        "--negative-share", type=float, default=defaults.negative_share
    )
    fixture.add_argument("--clusters", type=int, default=defaults.clusters_per_quarter)
    fixture.add_argument("--cluster-size", type=int, default=defaults.cluster_size)
    fixture.add_argument(
        "--cluster-articles", type=int, default=defaults.cluster_articles
    )
    fixture.add_argument("--drift-pct", type=float, default=defaults.drift_pct_per_day)
    fixture.add_argument(
        "--drift-window",
        default="{}..{}".format(*defaults.drift_window),
    )
    fixture.add_argument("--missing-caps", type=int, default=defaults.missing_caps)
    fixture.add_argument(
        "--share-class-pairs", type=int, default=defaults.share_class_pairs
    )
    fixture.set_defaults(handler=_run_fixture)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO,
        stream=sys.stderr,
        format="%(levelname)s %(name)s %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except DependencyError as exc:
        print(f"newsrisk: {exc}", file=sys.stderr)
        return 2
    except NewsriskError as exc:
        print(f"newsrisk: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
