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


def _here(cell: str) -> Path:
    """A path flag's value, against the current directory."""
    return Path(cell).absolute()


#: The config keys a stage command's flags override: key, type and help of
#: each `--<key>` flag. A path flag names a path from the current directory.
CONFIG_FLAGS = (
    ("output", _here, "override the output directory"),
    ("alpha", float, "edge smoothing constant"),
    ("lambda", float, "importance split"),
    ("mu", float, "indirect-neighbor share"),
    ("theta", float, "interaction strength"),
    ("quarters", str, "window as FROM..TO, e.g. 2011Q1..2016Q2"),
    *(
        (name, _here, f"override the {name} path")
        for name in ("articles", "universe", "prices", "marketcaps")
    ),
)

#: Each `fixture` flag and the `FixtureSpec` field it sets; the field's
#: default gives the flag's default and type.
FIXTURE_FLAGS = {
    "--seed": "seed",
    "--companies": "n_companies",
    "--quarters-count": "n_quarters",
    "--articles-count": "n_articles",
    "--negative-share": "negative_share",
    "--clusters": "clusters_per_quarter",
    "--cluster-size": "cluster_size",
    "--cluster-articles": "cluster_articles",
    "--drift-pct": "drift_pct_per_day",
    "--missing-caps": "missing_caps",
    "--share-class-pairs": "share_class_pairs",
}


def _run_stage(args: argparse.Namespace) -> int:
    overrides = {key: getattr(args, key) for key, _, _ in CONFIG_FLAGS}
    cfg = config_from_file(args.config, overrides)
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
    fields = {name: getattr(args, name) for name in FIXTURE_FLAGS.values()}
    spec = FixtureSpec(**fields, drift_window=drift_window)
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
        command.add_argument("--config", type=Path, required=True, help="JSON run config")
        for key, kind, text in CONFIG_FLAGS:
            command.add_argument(f"--{key}", type=kind, help=text)
        command.set_defaults(handler=_run_stage)

    defaults = FixtureSpec()
    fixture = sub.add_parser("fixture", help="generate a synthetic corpus")
    fixture.add_argument("--output", type=Path, required=True, help="target directory")
    for flag, name in FIXTURE_FLAGS.items():
        default = getattr(defaults, name)
        fixture.add_argument(flag, dest=name, type=type(default), default=default)
    fixture.add_argument("--drift-window", default="{}..{}".format(*defaults.drift_window))
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
