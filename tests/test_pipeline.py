"""Config handling, the staged file pipeline, manifests, reruns, and the
command-line entry points."""

import builtins
import csv
import hashlib
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from newsrisk import pipeline
from newsrisk.cli import main
from newsrisk.errors import DependencyError, ValidationError
from newsrisk.pipeline import (
    PIPELINE,
    STAGE_ORDER,
    STAGES,
    RunConfig,
    _file_entry,
    config_from_file,
    config_from_mapping,
    read_handoff,
    render,
    run_all,
    run_study,
)
from newsrisk.quarters import Quarter


BASE_MAPPING = {
    "articles": "articles.jsonl",
    "universe": "universe.csv",
    "prices": "prices.csv",
    "marketcaps": "marketcaps.csv",
    "output": "out",
}


def make_config(fixture_dir, out_dir, **kwargs) -> RunConfig:
    defaults = dict(
        articles=fixture_dir / "articles.jsonl",
        universe=fixture_dir / "universe.csv",
        prices=fixture_dir / "prices.csv",
        marketcaps=fixture_dir / "marketcaps.csv",
        output=Path(out_dir),
        first_quarter=Quarter(2011, 1),
        last_quarter=Quarter(2011, 3),
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def test_config_from_mapping_defaults(tmp_path):
    cfg = config_from_mapping(BASE_MAPPING, base_dir=tmp_path)
    assert cfg.articles == tmp_path / "articles.jsonl"
    assert cfg.output == tmp_path / "out"
    assert (cfg.first_quarter, cfg.last_quarter) == (Quarter(2011, 1), Quarter(2016, 2))
    assert cfg.alpha == 0.1
    assert (cfg.calibration.lam, cfg.calibration.mu, cfg.calibration.theta) == (
        0.5,
        0.5,
        0.5,
    )
    assert cfg.top_k == 50
    assert cfg.thresholds == (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    assert (cfg.delay_lo, cfg.delay_hi) == (3, 90)
    assert cfg.window == (Quarter(2011, 1).start_date, Quarter(2016, 2).end_date)
    assert [q.label for q in cfg.quarters][:2] == ["2011Q1", "2011Q2"]


def test_config_from_mapping_errors(tmp_path):
    with pytest.raises(ValidationError, match="missing required path 'prices'"):
        config_from_mapping(
            {k: v for k, v in BASE_MAPPING.items() if k != "prices"}, tmp_path
        )
    with pytest.raises(ValidationError, match=r"delays must be a \[lo, hi\] pair"):
        config_from_mapping({**BASE_MAPPING, "delays": [3]}, tmp_path)
    with pytest.raises(ValidationError, match="thresholds must be a list"):
        config_from_mapping({**BASE_MAPPING, "thresholds": 0.5}, tmp_path)
    with pytest.raises(ValidationError, match="bad quarter label"):
        config_from_mapping({**BASE_MAPPING, "quarters": "20Q1..2012"}, tmp_path)


def test_config_from_file_and_overrides(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({**BASE_MAPPING, "alpha": 0.2}))
    cfg = config_from_file(config_path)
    assert cfg.alpha == 0.2
    assert cfg.articles == tmp_path / "articles.jsonl"

    cfg = config_from_file(config_path, {"alpha": 0.7, "seed": None})
    assert cfg.alpha == 0.7  # explicit override wins
    assert cfg.seed == 7  # None overrides are ignored

    with pytest.raises(ValidationError, match="cannot read config"):
        config_from_file(tmp_path / "absent.json")
    (tmp_path / "list.json").write_text("[1, 2]")
    with pytest.raises(ValidationError, match="must hold a JSON object"):
        config_from_file(tmp_path / "list.json")


def test_runconfig_validation(small_fixture_dir, tmp_path):
    ok = make_config(small_fixture_dir, tmp_path / "out")
    ok.validate()

    cases = [
        (dict(alpha=0.0), "alpha must be positive"),
        (dict(top_k=0), "top_k must be at least 1"),
        (dict(delay_lo=0), "delay bounds"),
        (dict(delay_lo=10, delay_hi=5), "delay bounds"),
        (
            dict(first_quarter=Quarter(2012, 1), last_quarter=Quarter(2011, 1)),
            "quarter window reversed",
        ),
        (dict(thresholds=(0.5, 1.5)), r"threshold outside \[0,1\]"),
    ]
    for overrides, message in cases:
        bad = make_config(small_fixture_dir, tmp_path / "out", **overrides)
        with pytest.raises(ValidationError, match=message):
            bad.validate()

    missing = make_config(small_fixture_dir, tmp_path / "out")
    missing.prices = tmp_path / "nowhere.csv"
    with pytest.raises(ValidationError, match="prices file not found"):
        missing.validate()
    missing.validate(inputs=())  # parameter checks only
    missing.validate(inputs=("articles", "universe"))
    with pytest.raises(ValidationError, match="prices file not found"):
        missing.validate(inputs=("universe", "prices"))


def test_fingerprint_tracks_parameters_not_directories(small_fixture_dir, tmp_path):
    cfg = make_config(small_fixture_dir, tmp_path / "a")
    moved = make_config(small_fixture_dir, tmp_path / "b")
    moved.articles = tmp_path / "elsewhere" / "articles.jsonl"
    assert cfg.fingerprint() == moved.fingerprint()  # basenames only

    for overrides in (
        dict(alpha=0.2),
        dict(top_k=10),
        dict(last_quarter=Quarter(2011, 2)),
        dict(delay_hi=60),
        dict(seed=8),
        dict(thresholds=(0.9,)),
    ):
        other = make_config(small_fixture_dir, tmp_path / "a", **overrides)
        assert other.fingerprint() != cfg.fingerprint(), overrides


@pytest.fixture(scope="module")
def staged_run(small_fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("staged")
    cfg = make_config(small_fixture_dir, out)
    artifacts = run_all(cfg)
    return cfg, artifacts


def test_parse_stage_artifacts(staged_run, small_fixture):
    cfg, _ = staged_run
    occ_path = cfg.output / "occurrences.csv"
    with occ_path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(small_fixture.articles)
    parsed = {
        row["article_id"]: sorted(c for c in row["companies"].split("|") if c)
        for row in rows
    }
    assert parsed == {
        aid: sorted(cids) for aid, cids in small_fixture.truth.mentions.items()
    }
    polarities = {row["article_id"]: row["polarity"] for row in rows}
    assert all(p in ("positive", "negative") for p in polarities.values())

    manifest = json.loads((cfg.output / "parse.manifest.json").read_text())
    assert manifest["stage"] == "parse"
    assert manifest["config_hash"] == cfg.fingerprint()
    assert manifest["outputs"]["occurrences.csv"]["rows"] == len(rows)
    assert set(manifest["inputs"]) == {"articles.jsonl", "universe.csv"}
    for entry in manifest["inputs"].values():
        assert len(entry["sha256"]) == 64


def test_all_stages_leave_manifests_and_no_temp_files(staged_run):
    cfg, artifacts = staged_run
    for stage in ("parse", "networks", "rank", "risk", "backtest", "report"):
        manifest = json.loads((cfg.output / f"{stage}.manifest.json").read_text())
        assert manifest["stage"] == stage
        assert manifest["config_hash"] == cfg.fingerprint()
        for entry in manifest["outputs"].values():
            assert len(entry["sha256"]) == 64
    assert not list(cfg.output.glob("*.tmp"))
    assert all(p.is_file() for p in artifacts)
    names = {p.name for p in artifacts}
    assert {
        "occurrences.csv",
        "network_edges.csv",
        "centrality.csv",
        "average_rank.csv",
        "selected_universe.csv",
        "risk.csv",
        "valid_datapoints.csv",
        "decline_events.csv",
        "backtest_ranges.csv",
        "backtest_ranges.txt",
        "backtest_comparison.txt",
        "risk_histogram.csv",
        "best_delay.csv",
    } <= names


def test_network_artifacts_roundtrip(staged_run, small_fixture_dir):
    from newsrisk.corpus import load_universe

    cfg, _ = staged_run
    universe = load_universe(small_fixture_dir / "universe.csv")
    values = {"universe": universe, "occurrences": read_handoff(cfg, "occurrences", {})}
    recomputed = PIPELINE[STAGE_ORDER.index("networks")].compute(cfg, values)["networks"]
    loaded = read_handoff(cfg, "networks", values)
    assert loaded == recomputed


def test_rerun_is_byte_identical(staged_run):
    cfg, _ = staged_run
    before = {
        p.name: p.read_bytes() for p in sorted(cfg.output.iterdir()) if p.is_file()
    }
    run_all(cfg)
    after = {
        p.name: p.read_bytes() for p in sorted(cfg.output.iterdir()) if p.is_file()
    }
    assert before == after


def test_staged_risk_matches_in_memory_study(staged_run, small_fixture_dir, tmp_path):
    """run_study's values, encoded through the artifact declarations, are
    byte-identical to every artifact run_all wrote."""
    cfg, _ = staged_run
    result = run_study(make_config(small_fixture_dir, tmp_path / "unused"))
    assert result.datapoints
    declared = [artifact for stage in PIPELINE for artifact in stage.writes]
    written = {p.name for p in cfg.output.iterdir() if not p.name.endswith(".manifest.json")}
    assert {artifact.name for artifact in declared} == written
    for artifact in declared:
        on_disk = (cfg.output / artifact.name).read_bytes()
        assert render(artifact, cfg, vars(result)).encode("utf-8") == on_disk, artifact.name


def test_decoded_study_agrees_with_the_in_memory_one(staged_run, small_fixture_dir, tmp_path):
    """The study the report stage decodes equals run_study's in every field
    the artifacts store; the drop counters live in the backtest manifest."""
    cfg, _ = staged_run
    decoded = read_handoff(cfg, "study", {})
    computed = run_study(make_config(small_fixture_dir, tmp_path / "unused")).study
    counters = ("n_no_series", "n_no_quarter_day", "n_no_events")
    assert vars(decoded).keys() == vars(computed).keys()
    for name, value in vars(decoded).items():
        if name in counters:
            assert value is None
        elif name == "outcomes":
            assert value.dtype == computed.outcomes.dtype
            assert np.array_equal(value, computed.outcomes)
        else:
            assert value == getattr(computed, name), name
    params = json.loads((cfg.output / "backtest.manifest.json").read_text())["params"]
    assert {name: params[name] for name in counters} == {
        name: getattr(computed, name) for name in counters
    }


def test_run_all_loads_each_input_once(small_fixture_dir, tmp_path, monkeypatch):
    """run_all hands loaded inputs to later stages; the files it writes,
    manifests included, equal those of the stage commands run one by one."""
    calls: dict[str, int] = {}

    def counting(name, load):
        def wrapped(cfg, values):
            calls[name] = calls.get(name, 0) + 1
            return load(cfg, values)

        return wrapped

    for name, load in pipeline.LOADERS.items():
        monkeypatch.setitem(pipeline.LOADERS, name, counting(name, load))
    one_by_one = make_config(small_fixture_dir, tmp_path / "stages")
    for stage in STAGE_ORDER:
        STAGES[stage](one_by_one)
    assert calls == {"articles": 1, "universe": 5, "prices": 1, "marketcaps": 1}
    calls.clear()
    held: dict[str, list[str]] = {}  # the inputs each stage is handed

    def recording(name, run):
        def wrapped(cfg, loaded):
            held[name] = sorted(loaded)
            return run(cfg, loaded)

        return wrapped

    for name, run in list(STAGES.items()):
        monkeypatch.setitem(STAGES, name, recording(name, run))
    cfg = make_config(small_fixture_dir, tmp_path / "all")
    run_all(cfg)
    assert calls == {name: 1 for name in pipeline.LOADERS}
    # an input is dropped after the last stage that reads it
    assert held == {
        "parse": [],
        "networks": ["universe"],
        "rank": ["universe"],
        "risk": ["universe"],
        "backtest": ["universe"],
        "report": [],
    }
    expected = sorted(p.name for p in one_by_one.output.iterdir())
    assert sorted(p.name for p in cfg.output.iterdir()) == expected
    for name in expected:
        assert (cfg.output / name).read_bytes() == (one_by_one.output / name).read_bytes(), name


def test_manifests_list_every_file_a_stage_reads(small_fixture_dir, tmp_path, monkeypatch):
    cfg = make_config(small_fixture_dir, tmp_path / "out")
    opened: list[str] = []
    real_open = io.open

    def recording_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append(Path(file).name)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", recording_open)
    monkeypatch.setattr(builtins, "open", recording_open)
    for stage in STAGE_ORDER:
        opened.clear()
        STAGES[stage](cfg)
        manifest = json.loads((cfg.output / f"{stage}.manifest.json").read_text())
        read = set(opened) - set(manifest["outputs"]) - {f"{stage}.manifest.json"}
        assert read, stage
        assert read <= set(manifest["inputs"]), (stage, sorted(read - set(manifest["inputs"])))


def _text_mode_rows(path: Path) -> int:
    """The row count as manifests counted it by reading the file as text."""
    with path.open("r", encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
    return max(0, lines - 1) if path.suffix == ".csv" else lines


def test_file_entry_hashes_and_counts_like_text_mode(tmp_path):
    chunk = 1 << 20
    contents = [
        b"",
        b"\n",
        b"a,b\n1,2\n",
        b"a,b\r\n1,2\r\n",
        b"a,b\n1,2",
        b"a,b\r\n1,2",
        b"a,b\r1,2\r",
        b"a\r\rb\n\nc\r\n\r",
        "h\u00e9ader\nr\u00f6w\n".encode("utf-8"),
        b"x" * (chunk - 1) + b"\r\n" + b"y\r\nz",  # CRLF across two reads
        b"x" * chunk + b"\n" + b"y" * chunk + b"\r",
    ]
    for i, data in enumerate(contents):
        for suffix in (".csv", ".txt"):
            path = tmp_path / f"f{i}{suffix}"
            path.write_bytes(data)
            entry = _file_entry(path)
            assert entry == {
                "sha256": hashlib.sha256(data).hexdigest(),
                "rows": _text_mode_rows(path),
            }, (i, suffix)


def test_report_runs_without_the_raw_inputs(staged_run, tmp_path, capsys):
    cfg, _ = staged_run
    out = tmp_path / "out"
    shutil.copytree(cfg.output, out)
    gone = tmp_path / "gone"
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps(
            {
                **{key: str(gone / name) for key, name in BASE_MAPPING.items()},
                "output": str(out),
                "quarters": "2011Q1..2011Q3",
            }
        )
    )
    assert main(["report", "--config", str(config_path)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in cfg.output.iterdir())
    for path in out.iterdir():
        assert path.read_bytes() == (cfg.output / path.name).read_bytes(), path.name

    capsys.readouterr()
    assert main(["parse", "--config", str(config_path)]) == 1
    assert f"articles file not found: {gone / 'articles.jsonl'}" in capsys.readouterr().err


def test_missing_upstream_artifacts(small_fixture_dir, tmp_path):
    cfg = make_config(small_fixture_dir, tmp_path / "fresh")
    with pytest.raises(
        DependencyError,
        match=r"stage 'networks' needs occurrences\.csv — run the 'parse' command first",
    ):
        STAGES["networks"](cfg)

    STAGES["parse"](cfg)
    with pytest.raises(
        DependencyError, match=r"needs average_rank\.csv — run the 'rank' command"
    ):
        STAGES["risk"](cfg)


def test_cli_stage_flow_and_exit_codes(small_fixture_dir, tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps(
            {
                "articles": str(small_fixture_dir / "articles.jsonl"),
                "universe": str(small_fixture_dir / "universe.csv"),
                "prices": str(small_fixture_dir / "prices.csv"),
                "marketcaps": str(small_fixture_dir / "marketcaps.csv"),
                "output": str(tmp_path / "out"),
                "quarters": "2011Q1..2011Q3",
            }
        )
    )
    # report before anything else: missing artifacts exit 2
    assert main(["report", "--config", str(config_path)]) == 2
    assert "run the 'backtest' command first" in capsys.readouterr().err

    assert main(["parse", "--config", str(config_path)]) == 0
    assert main(["networks", "--config", str(config_path)]) == 0
    assert main(["rank", "--config", str(config_path)]) == 0
    assert main(["risk", "--config", str(config_path)]) == 0
    assert main(["backtest", "--config", str(config_path)]) == 0
    assert main(["report", "--config", str(config_path)]) == 0
    assert (tmp_path / "out" / "backtest_ranges.txt").is_file()

    # a stale artifact (as written before the close column existed) exits 2
    valid = tmp_path / "out" / "valid_datapoints.csv"
    with valid.open(newline="") as fh:
        rows = [row[:3] + row[4:] for row in csv.reader(fh)]
    with valid.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    capsys.readouterr()
    assert main(["report", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "valid_datapoints.csv has columns" in err
    assert "re-run the 'backtest' command" in err


def test_cli_validation_failures(tmp_path, capsys):
    # unreadable config
    assert main(["run", "--config", str(tmp_path / "none.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err
    # argparse failures are remapped from exit 2 to exit 1
    assert main(["no-such-command"]) == 1
    assert main(["run"]) == 1  # --config is required
    # bad parameter caught by RunConfig.validate
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({**BASE_MAPPING, "alpha": -1}))
    assert main(["run", "--config", str(config_path)]) == 1
    assert "alpha must be positive" in capsys.readouterr().err


def test_cli_fixture_then_full_run(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert (
        main(
            [
                "fixture",
                "--output",
                str(data_dir),
                "--seed",
                "3",
                "--companies",
                "20",
                "--quarters-count",
                "2",
                "--articles-count",
                "260",
                "--clusters",
                "2",
                "--cluster-size",
                "3",
            ]
        )
        == 0
    )
    for name in (
        "articles.jsonl",
        "universe.csv",
        "prices.csv",
        "marketcaps.csv",
        "truth.json",
        "run_config.json",
    ):
        assert (data_dir / name).is_file(), name

    run_config = json.loads((data_dir / "run_config.json").read_text())
    assert run_config["quarters"] == "2011Q1..2011Q2"

    assert main(["run", "--config", str(data_dir / "run_config.json")]) == 0
    out = data_dir / "out"
    assert (out / "risk.csv").is_file()
    assert (out / "report.manifest.json").is_file()
    text = (out / "backtest_ranges.txt").read_text()
    assert "threshold 1.0" in text

    # an output override redirects every artifact
    other = tmp_path / "other-out"
    assert (
        main(
            [
                "parse",
                "--config",
                str(data_dir / "run_config.json"),
                "--output",
                str(other),
            ]
        )
        == 0
    )
    assert (other / "occurrences.csv").is_file()


def test_cli_fixture_rejects_bad_window(tmp_path):
    assert (
        main(
            [
                "fixture",
                "--output",
                str(tmp_path / "x"),
                "--drift-window",
                "oops",
            ]
        )
        == 1
    )
