"""Config handling, the staged file pipeline, manifests, reruns, and the
command-line entry points."""

import builtins
import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from newsrisk import corpus, pipeline, pricerows
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
    read_columns,
    read_handoff,
    render,
    run_all,
    run_study,
)
from newsrisk.quarters import Quarter, parse_quarter, quarter_range
from newsrisk.riskrank import RiskCalibration

from _oracles import network_fields, traced_peak


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
    quarters = quarter_range(cfg.first_quarter, cfg.last_quarter)
    assert [q.label for q in quarters][:2] == ["2011Q1", "2011Q2"]


def test_config_from_mapping_keeps_the_run_config_defaults(tmp_path):
    cfg = config_from_mapping(BASE_MAPPING, base_dir=tmp_path)
    expected = RunConfig(**{key: tmp_path / name for key, name in BASE_MAPPING.items()})
    for f in dataclasses.fields(RunConfig):
        assert repr(getattr(cfg, f.name)) == repr(getattr(expected, f.name)), f.name


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
    for key, value in (
        ("alpha", "x"),
        ("alpha", None),
        ("lambda", [0.5]),
        ("top_k", "many"),
        ("top_k", float("inf")),
        ("thresholds", ["a"]),
        ("delays", [3, "x"]),
        ("alpha", True),
        ("lambda", False),
        ("top_k", True),
        ("thresholds", [0.5, True]),
        ("delays", [3, True]),
    ):
        with pytest.raises(ValidationError, match=f"^{key} must be a number"):
            config_from_mapping({**BASE_MAPPING, key: value}, tmp_path)
    for key, value in (("top_k", 2.9), ("delays", [3.7, 90]), ("delays", [3, 90.2])):
        with pytest.raises(ValidationError, match=f"^{key} must be an integer, got"):
            config_from_mapping({**BASE_MAPPING, key: value}, tmp_path)
    cfg = config_from_mapping({**BASE_MAPPING, "top_k": 7.0, "delays": ["2", 30]}, tmp_path)
    assert (cfg.top_k, cfg.delay_lo, cfg.delay_hi) == (7, 2, 30)


def test_config_from_file_and_overrides(tmp_path):
    config_path = tmp_path / "run.json"
    # unknown keys, such as the "seed" older configs carry, are ignored
    config_path.write_text(json.dumps({**BASE_MAPPING, "alpha": 0.2, "mu": 0.3, "seed": 7}))
    cfg = config_from_file(config_path)
    assert cfg.alpha == 0.2
    assert cfg.articles == tmp_path / "articles.jsonl"

    cfg = config_from_file(config_path, {"alpha": 0.7, "mu": None})
    assert cfg.alpha == 0.7  # explicit override wins
    assert cfg.calibration.mu == 0.3  # None overrides are ignored

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
        (dict(alpha=float("nan")), "alpha must be positive"),
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


def test_an_infinite_alpha_is_refused_before_any_stage_runs(small_fixture_dir, tmp_path, capsys):
    """An infinite alpha is positive, but smooths every network into NaN
    weights: it is refused before parse writes anything, not in rank."""
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps({
            **{key: str(small_fixture_dir / name) for key, name in BASE_MAPPING.items()},
            "output": str(tmp_path / "out"),
        })
    )
    assert main(["run", "--config", str(config_path), "--alpha", "inf"]) == 1
    assert "alpha must be positive and finite, got inf" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_quarter_window_of_year_0000_is_refused(small_fixture_dir, tmp_path, capsys):
    """A year the calendar lacks ends in a `newsrisk:` message and exit 1,
    not a traceback."""
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps({
            **{key: str(small_fixture_dir / name) for key, name in BASE_MAPPING.items()},
            "output": str(tmp_path / "out"),
        })
    )
    argv = ["parse", "--config", str(config_path), "--quarters", "0000Q4..2011Q1"]
    assert main(argv) == 1
    assert "newsrisk: bad quarter label '0000Q4', expected YYYYQN" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_repeated_threshold_is_refused(small_fixture_dir, tmp_path):
    """A repeated threshold would render its table twice in the text report
    and once in the CSV, and change the fingerprint."""
    cfg = make_config(small_fixture_dir, tmp_path / "out", thresholds=(0.5, 1.0, 0.5))
    with pytest.raises(ValidationError, match="threshold 0.5 is repeated"):
        cfg.validate()


def _other(value):
    """A different value of the same type as a RunConfig parameter."""
    if isinstance(value, float):
        return value / 2
    if isinstance(value, int):
        return value + 1
    if isinstance(value, tuple):
        return value[:-1]
    if isinstance(value, Quarter):
        return value.next()
    raise TypeError(f"no other value for {value!r}")


def test_fingerprint_tracks_parameters_not_directories(small_fixture_dir, tmp_path):
    """Every field of RunConfig and of its RiskCalibration changes the hash,
    except where a file lives: input files count by basename only."""
    cfg = make_config(small_fixture_dir, tmp_path / "a")
    base = cfg.fingerprint()
    changed = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, Path):
            moved = dataclasses.replace(cfg, **{f.name: tmp_path / "elsewhere" / value.name})
            assert moved.fingerprint() == base, f.name
            if f.name in pipeline.LOADERS:
                changed.append({f.name: value.with_name(f"other-{value.name}")})
        elif isinstance(value, RiskCalibration):
            for g in dataclasses.fields(RiskCalibration):
                other = dataclasses.replace(value, **{g.name: _other(getattr(value, g.name))})
                changed.append({f.name: other})
        else:
            changed.append({f.name: _other(value)})
    for overrides in changed:
        assert dataclasses.replace(cfg, **overrides).fingerprint() != base, overrides


@pytest.fixture(scope="module")
def staged_run(small_fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("staged")
    cfg = make_config(small_fixture_dir, out)
    artifacts = run_all(cfg)
    return cfg, artifacts


def test_interleaved_prices_give_the_artifacts_of_grouped_ones(staged_run, tmp_path):
    """A prices.csv whose tickers interleave, each in date order, is grouped
    by a sort, not read as written: every artifact equals the grouped
    file's, and a manifest differs only in the digest of prices.csv."""
    cfg, artifacts = staged_run
    header, *rows = Path(cfg.prices).read_text(encoding="utf-8").splitlines()
    rows = [rows[i] for i in np.random.default_rng(17).permutation(len(rows))]
    rows.sort(key=lambda row: row.split(",")[1])  # date-major: each ticker keeps its order
    tickers = [row.split(",")[0] for row in rows]
    assert sum(a != b for a, b in zip(tickers, tickers[1:])) > len(set(tickers))
    prices = tmp_path / "prices.csv"
    prices.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    run_all(dataclasses.replace(cfg, prices=prices, output=out))
    for path in artifacts:
        written = (out / path.name).read_bytes()
        if not path.name.endswith(".manifest.json"):
            assert written == path.read_bytes(), path.name
            continue
        grouped, interleaved = json.loads(path.read_bytes()), json.loads(written)
        entry = interleaved["inputs"].pop("prices.csv", None)
        if entry is not None:
            expected = grouped["inputs"].pop("prices.csv")
            assert entry["rows"] == expected["rows"] and entry["sha256"] != expected["sha256"]
        assert interleaved == grouped, path.name


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
    occurrences = read_handoff(cfg, "occurrences", {"universe": universe})
    values = {"universe": universe, "occurrences": occurrences}
    recomputed = PIPELINE[STAGE_ORDER.index("networks")].compute(cfg, values)["networks"]
    loaded = read_handoff(cfg, "networks", values)

    def by_field(networks):
        return {q: {k: network_fields(n) for k, n in nets.items()} for q, nets in networks.items()}

    assert by_field(loaded) == by_field(recomputed)


@pytest.mark.parametrize(
    "quarters", ["2011Q1..2011Q3", "2011Q2..2011Q2", "2020Q1..2020Q2"],
    ids=["window", "one-quarter", "empty"],
)
def test_stage_commands_write_the_bytes_run_writes(small_fixture_dir, tmp_path, quarters):
    """The six stage commands, run one by one, decode every handoff from the
    artifacts and write each artifact and manifest byte for byte as `run`."""
    first, last = quarters.split("..")
    window = dict(first_quarter=parse_quarter(first), last_quarter=parse_quarter(last))
    run_all(make_config(small_fixture_dir, tmp_path / "run", **window))
    for stage in STAGE_ORDER:
        STAGES[stage](make_config(small_fixture_dir, tmp_path / "staged", **window))
    run = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    staged = {p.name: p.read_bytes() for p in (tmp_path / "staged").iterdir()}
    assert len(run) == 23
    assert run.keys() == staged.keys()
    for name in run:
        assert staged[name] == run[name], name


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
        rendered = "".join(render(artifact, cfg, vars(result)))
        assert rendered.encode("utf-8") == on_disk, artifact.name


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
    """run_all hands loaded inputs and computed values to later stages, so
    it decodes no artifact and hashes each file once; the files it writes,
    manifests included, equal those of the stage commands run one by one."""
    calls: dict[str, int] = {}
    hashed: dict[Path, int] = {}

    def counting(name, call):
        def wrapped(*args):
            calls[name] = calls.get(name, 0) + 1
            return call(*args)

        return wrapped

    def hashing(path, *data):
        hashed[path] = hashed.get(path, 0) + 1
        return file_entry(path, *data)

    for name, load in pipeline.LOADERS.items():
        monkeypatch.setitem(pipeline.LOADERS, name, counting(name, load))
    monkeypatch.setattr(pipeline, "read_handoff", counting("read_handoff", read_handoff))
    file_entry = pipeline._file_entry
    monkeypatch.setattr(pipeline, "_file_entry", hashing)
    one_by_one = make_config(small_fixture_dir, tmp_path / "stages")
    for stage in STAGE_ORDER:
        STAGES[stage](one_by_one)
    reads = sum(len(stage.reads) for stage in PIPELINE)
    loads = {"articles": 1, "universe": 5, "prices": 1, "marketcaps": 1}
    assert calls == {**loads, "read_handoff": reads}
    assert hashed[Path(one_by_one.universe)] == 5
    calls.clear()
    hashed.clear()
    held: dict[str, list[str]] = {}  # the values each stage is handed

    def recording(name, run):
        def wrapped(cfg, loaded, entries):
            held[name] = sorted(loaded)
            return run(cfg, loaded, entries)

        return wrapped

    for name, run in list(STAGES.items()):
        monkeypatch.setitem(STAGES, name, recording(name, run))
    cfg = make_config(small_fixture_dir, tmp_path / "all")
    run_all(cfg)
    assert calls == {name: 1 for name in pipeline.LOADERS}  # and no read_handoff
    assert held == {
        "parse": [],
        "networks": ["occurrences", "universe"],
        "rank": ["networks", "universe"],
        "risk": ["networks", "rank_lists", "universe"],
        "backtest": ["datapoints", "universe"],
        "report": ["study"],
    }
    # a value is dropped after the last stage that loads or reads it
    for name in {name for names in held.values() for name in names}:
        users = [stage.name for stage in PIPELINE if name in (*stage.inputs, *stage.reads)]
        holders = [stage for stage in STAGE_ORDER if name in held[stage]]
        assert holders[-1] == users[-1], name
    # every file a manifest lists, and no other, is hashed once
    listed = {Path(getattr(cfg, name)) for name in pipeline.LOADERS}
    listed |= {cfg.output / a.name for stage in PIPELINE for a in stage.writes}
    assert hashed == dict.fromkeys(listed, 1)
    expected = sorted(p.name for p in one_by_one.output.iterdir())
    assert sorted(p.name for p in cfg.output.iterdir()) == expected
    for name in expected:
        assert (cfg.output / name).read_bytes() == (one_by_one.output / name).read_bytes(), name


def test_run_study_holds_a_value_while_a_later_stage_or_the_result_needs_it(
    small_fixture_dir, tmp_path, monkeypatch
):
    """run_study drops each value after the last stage that loads or reads
    it, as run_all does, unless the result holds it: the articles go after
    parse, the market caps after rank, the universe and prices after the
    backtest."""
    held: dict[str, list[str]] = {}  # the values run_study holds as each stage starts

    class Recording(pipeline._Values):
        def __init__(self, cfg, stage, values):
            held[stage.name] = sorted(values)
            super().__init__(cfg, stage, values)

    monkeypatch.setattr(pipeline, "_Values", Recording)
    result = run_study(make_config(small_fixture_dir, tmp_path / "unused"))
    computed = ["occurrences", "networks", "rank_lists", "tables", "datapoints", "selected"]
    assert held == {
        "parse": [],
        "networks": ["occurrences", "universe"],
        "rank": sorted(["universe", *computed[:2]]),
        "risk": sorted(["universe", *computed[:4]]),
        "backtest": sorted(["universe", *computed]),
        "report": sorted(["study", *computed]),
    }
    assert result.reports.range_reports


def test_the_backtest_loads_only_the_series_of_its_datapoints(
    small_fixture_dir, tmp_path, monkeypatch
):
    """run_all, run_study and the backtest command, run after risk, each
    hand the prices loader a universe of the datapoints' companies only, so
    the rows of every other ticker are never held."""
    loads = []

    def recording(path, universe=None):
        prices = pricerows.load_prices(path, universe)
        loads.append((set(universe.ids()), set(prices.series)))
        return prices

    monkeypatch.setattr(pipeline, "load_prices", recording)
    cfg = make_config(small_fixture_dir, tmp_path / "all", top_k=5)
    run_all(cfg)
    with (cfg.output / "risk.csv").open(encoding="utf-8") as fh:
        companies = {row["canonical_id"] for row in csv.DictReader(fh)}
    result = run_study(make_config(small_fixture_dir, tmp_path / "study", top_k=5))
    assert {dp.canonical_id for dp in result.datapoints} == companies
    STAGES["backtest"](cfg)  # decodes the datapoints from risk.csv
    assert 0 < len(companies) < len(pipeline.load_universe(cfg.universe))
    assert len(loads) == 3
    for listed, keys in loads:
        assert listed == companies
        assert keys <= companies


def test_ids_with_a_carriage_return_pass_through_the_stage_commands(small_fixture_dir, tmp_path):
    """Canonical and article ids holding a lone carriage return are written
    quoted, so the stage commands read them back and write what run_all
    writes."""
    fixture = tmp_path / "fixture"
    shutil.copytree(small_fixture_dir, fixture)
    for name in ("universe.csv", "marketcaps.csv"):  # canonical ids come first
        with (fixture / name).open(encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        with (fixture / name).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
            writer.writerow(header)
            writer.writerows([f"{cid}\rcr", *rest] for cid, *rest in rows)
    articles = fixture / "articles.jsonl"
    records = [json.loads(line) for line in articles.read_text(encoding="utf-8").splitlines()]
    articles.write_text(
        "".join(json.dumps({**r, "id": f"{r['id']}\rcr"}) + "\n" for r in records),
        encoding="utf-8",
    )
    one_by_one = make_config(fixture, tmp_path / "stages")
    for stage in STAGE_ORDER:
        STAGES[stage](one_by_one)
    cfg = make_config(fixture, tmp_path / "all")
    run_all(cfg)
    for artifact in (pipeline.OCCURRENCES, pipeline.RISK):
        assert b'\rcr"' in (cfg.output / artifact.name).read_bytes(), artifact.name
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


def test_each_stage_needs_only_the_artifacts_its_manifest_lists(staged_run, tmp_path):
    """A stage command run beside only the artifacts that `run`'s manifest
    of that stage lists as inputs writes run's outputs and manifest."""
    cfg, _ = staged_run
    for stage in STAGE_ORDER:
        out = tmp_path / stage
        out.mkdir()
        manifest = json.loads((cfg.output / f"{stage}.manifest.json").read_text())
        for name in manifest["inputs"]:
            if (cfg.output / name).is_file():  # an artifact, not a config input
                shutil.copy(cfg.output / name, out / name)
        STAGES[stage](dataclasses.replace(cfg, output=out))
        for name in [*manifest["outputs"], f"{stage}.manifest.json"]:
            assert (out / name).read_bytes() == (cfg.output / name).read_bytes(), (stage, name)


def test_risk_runs_without_the_occurrences(staged_run, tmp_path):
    """The risk stage reads its sentiment off the networks' node weights,
    so `newsrisk risk` needs no occurrences.csv."""
    cfg, _ = staged_run
    out = tmp_path / "out"
    shutil.copytree(cfg.output, out)
    (out / "occurrences.csv").unlink()
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps(
            {
                **{key: str(Path(getattr(cfg, key))) for key in BASE_MAPPING},
                "output": str(out),
                "quarters": "2011Q1..2011Q3",
            }
        )
    )
    assert main(["risk", "--config", str(config_path)]) == 0
    for name in ("selected_universe.csv", "risk.csv", "risk.manifest.json"):
        assert (out / name).read_bytes() == (cfg.output / name).read_bytes(), name


def _text_mode_rows(path: Path) -> int:
    """The row count as manifests counted it by reading the file as text."""
    with path.open("r", encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
    return max(0, lines - 1) if path.suffix == ".csv" else lines


def test_file_entry_hashes_and_counts_like_text_mode(tmp_path):
    chunk = corpus._BLOCK  # the bytes `_file_entry` reads at a time
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
            # the bytes as they are written, cut anywhere, an empty piece too
            for cut in {*range(min(len(data), 16) + 1), chunk, len(data)}:
                pieces = [data[:cut], b"", data[cut:]]
                assert _file_entry(path, pieces) == entry, (i, suffix, cut)


def test_writing_a_table_holds_a_few_slices_whatever_its_size(tmp_path):
    """A table is formatted, written and hashed a slice of `_JOIN_ROWS` rows
    at a time, so writing a 100 000-row file of several MB allocates at
    most a small fixed multiple of one slice's text, not the file's."""
    days = np.datetime_as_string(np.datetime64("2011-01-03") + np.arange(250)).tolist()
    rng = np.random.default_rng(4)
    n = 100_000
    columns = (
        [f"T{i:03d}" for i in rng.integers(0, 400, n)],
        [days[i] for i in rng.integers(0, len(days), n)],
        rng.lognormal(3.0, 1.0, n),
    )
    path = tmp_path / "prices.csv"

    def write():
        with pipeline._atomic(path) as fh:
            slices = corpus.format_table(pricerows.PRICE_COLUMNS, [columns])
            return pipeline._file_entry(path, pipeline._written(fh, slices))

    entry, peak = traced_peak(write)
    size = path.stat().st_size
    assert entry == {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(), "rows": n}
    assert size > 3_000_000
    one_slice = size / n * corpus._JOIN_ROWS
    assert peak <= 12 * one_slice, peak / one_slice


@pytest.mark.parametrize(
    "name",
    ["occurrences.csv", "network_edges.csv", "network_nodes.csv", "risk.csv",
     "valid_datapoints.csv", "backtest_ranges.csv", "backtest_daily.csv"],
)
def test_rendering_an_artifact_holds_one_group_at_a_time(default_values, name):
    """An artifact whose rows grow with the input is encoded a quarter, a
    network or a report subset at a time, so rendering it allocates at most
    a small multiple of its text, not every row's cells at once."""
    cfg, values = default_values
    artifact = next(a for stage in PIPELINE for a in stage.writes if a.name == name)
    size, peak = traced_peak(lambda: sum(map(len, render(artifact, cfg, values))))
    assert size > 20_000
    assert peak <= 3 * size, peak / size


def test_a_failed_write_leaves_the_earlier_artifacts(copied_run):
    """An encoder that raises after its first block has been written to the
    temp file leaves the earlier run's artifact byte-identical, no temp file
    and no manifest of the stage."""
    out = copied_run.output
    (out / "backtest.manifest.json").unlink()
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def failing(cfg, v):
        yield (["2011Q1"], ["ZZZ9"], ["3"], ["true"])
        assert [p.name for p in out.glob("*.tmp")], "no temp file is being written"
        raise RuntimeError("encoder failed")

    backtest = next(stage for stage in PIPELINE if stage.name == "backtest")
    events = dataclasses.replace(pipeline.EVENTS, encode=failing)
    stage = dataclasses.replace(backtest, writes=(pipeline.VALID_POINTS, events))
    with pytest.raises(RuntimeError, match="encoder failed"):
        pipeline.run_stage(stage, copied_run)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert not (out / "backtest.manifest.json").exists()


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
    # a malformed value is named, not raised as a traceback
    config_path.write_text(json.dumps({**BASE_MAPPING, "delays": [3, "x"]}))
    assert main(["run", "--config", str(config_path)]) == 1
    assert "delays must be a number, got 'x'" in capsys.readouterr().err
    # --seed belongs to `fixture` only: the pipeline has no randomness
    assert main(["run", "--config", str(config_path), "--seed", "3"]) == 1
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_cli_path_flags_resolve_against_the_current_directory(
    small_fixture_dir, tmp_path, monkeypatch
):
    """A path flag names a path from the directory the command runs in; a
    path in the config file still resolves against the config file."""
    config_dir, work = tmp_path / "fx", tmp_path / "work"
    config_dir.mkdir()
    work.mkdir()
    config_path = config_dir / "run.json"
    config_path.write_text(
        json.dumps({
            **{key: str(small_fixture_dir / name) for key, name in BASE_MAPPING.items()},
            "articles": "missing.jsonl",
            "output": "out",
            "quarters": "2011Q1..2011Q3",
        })
    )
    monkeypatch.chdir(work)
    articles = os.path.relpath(small_fixture_dir / "articles.jsonl", work)
    argv = ["parse", "--config", str(config_path), "--articles", articles]
    assert main([*argv, "--output", "relout"]) == 0
    assert (work / "relout" / "occurrences.csv").is_file()
    assert not (config_dir / "relout").exists()
    assert main(argv) == 0
    assert (config_dir / "out" / "occurrences.csv").is_file()


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
    assert "seed" not in run_config

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


BAD_FIXTURE_VALUES = [
    ("--quarters-count", "0", "n_quarters must be at least 1"),
    ("--quarters-count", "-2", "n_quarters must be at least 1"),
    ("--seed", "-1", "seed must be non-negative"),
    ("--cluster-size", "0", "cluster_size must be at least 1"),
    ("--clusters", "-1", "clusters_per_quarter must be non-negative"),
    ("--cluster-articles", "-1", "cluster_articles must be non-negative"),
    ("--missing-caps", "-3", "missing_caps must be non-negative"),
    ("--share-class-pairs", "-1", "share_class_pairs must be non-negative"),
    ("--drift-pct", "-100", "drift_pct_per_day must be finite and above -100"),
    ("--drift-pct", "nan", "drift_pct_per_day must be finite and above -100"),
]


@pytest.mark.parametrize(
    "flag, value, message", BAD_FIXTURE_VALUES, ids=[f"{f}={v}" for f, v, _ in BAD_FIXTURE_VALUES]
)
def test_cli_fixture_rejects_bad_values(tmp_path, capsys, flag, value, message):
    out = tmp_path / "x"
    assert main(["fixture", "--output", str(out), flag, value]) == 1
    assert f"newsrisk: {message}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# The artifact codec
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def default_values():
    """Every value a run of `FixtureSpec()` encodes, report included."""
    from newsrisk.fixtures import FixtureSpec, generate_fixture

    from _oracles import FixtureStudy

    study = FixtureStudy(generate_fixture(FixtureSpec()))
    values = dict(study.values)
    values.update(PIPELINE[-1].compute(study.config, values))
    return study.config, values


@pytest.mark.parametrize("cells", ["fixture", "adversarial"])
def test_render_matches_the_per_row_writer(default_values, cells):
    """The columnar render writes every artifact byte for byte as csv.writer
    does row by row, on real values and on cells that are hard to write."""
    from _adversarial import adversarial_values
    from _oracles import render_by_row

    cfg, values = default_values
    if cells == "adversarial":
        values = adversarial_values(values)
    for stage in PIPELINE:
        for artifact in stage.writes:
            expected = render_by_row(artifact, cfg, values)
            assert "".join(render(artifact, cfg, values)) == expected, artifact.name
    if cells == "adversarial":
        assert '""' in "".join(render(pipeline.SELECTED, cfg, values)).splitlines()


def test_adversarial_text_cells_read_back_unchanged(default_values, tmp_path):
    """Every text cell render writes, ids holding a lone carriage return
    among them, comes back from read_columns as it was encoded."""
    from _adversarial import adversarial_values
    from _oracles import encoded_columns

    cfg, values = default_values
    cfg = dataclasses.replace(cfg, output=tmp_path)
    values = adversarial_values(values)
    for stage in PIPELINE:
        for artifact in stage.writes:
            if artifact.columns is None:
                continue
            with (tmp_path / artifact.name).open("w", encoding="utf-8", newline="") as fh:
                fh.writelines(render(artifact, cfg, values))
            table = read_columns(cfg, artifact, {})
            for name, column in zip(artifact.columns, encoded_columns(artifact, cfg, values)):
                column = list(column)
                if all(isinstance(cell, str) for cell in column):
                    assert table[name] == column, (artifact.name, name)
    article_ids = read_columns(cfg, pipeline.OCCURRENCES, {})["article_id"]
    assert any(cell.endswith("\rcr") for cell in article_ids)


def _rewrite_line(path: Path, line: int, text: str) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[line - 1] = text
    path.write_text("\n".join(lines), encoding="utf-8")


@pytest.fixture
def copied_run(staged_run, tmp_path):
    """A copy of the staged run's output, and its config pointed at it."""
    cfg, _ = staged_run
    out = tmp_path / "out"
    shutil.copytree(cfg.output, out)
    return make_config(Path(cfg.articles).parent, out)


@pytest.mark.parametrize("chunk", [7, 512])
def test_a_row_with_the_wrong_cell_count_names_its_line(copied_run, monkeypatch, chunk):
    monkeypatch.setattr(corpus, "_CHUNK", chunk)
    events = copied_run.output / "decline_events.csv"
    _rewrite_line(events, 30, "2011Q1,C0001,5")
    with pytest.raises(
        DependencyError,
        match=r"^decline_events\.csv line 30 has 3 cells, expected 4 — "
        r"re-run the 'backtest' command$",
    ):
        read_handoff(copied_run, "study", {})


def test_line_numbers_count_the_lines_of_quoted_cells(copied_run):
    """A record whose quoted cell spans two lines shifts the lines after it."""
    from newsrisk.corpus import load_universe

    occurrences = copied_run.output / "occurrences.csv"
    _rewrite_line(occurrences, 2, '"two\nline id",2011Q1,positive,C0001')
    _rewrite_line(occurrences, 4, "a2,2011Q1,positive")
    with pytest.raises(DependencyError, match=r"occurrences\.csv line 4 has 3 cells, expected 4"):
        read_handoff(copied_run, "occurrences", {"universe": load_universe(copied_run.universe)})


@pytest.mark.parametrize(
    "fault, message",
    [
        ("unknown", r"line 7 has an event row for unknown datapoint \('2011Q1', 'C9999'\)"),
        ("outcome", r"line 7 has decreased 'maybe', expected 'true', 'false' or empty"),
        ("delay", r"line 7 has delay 'x3', expected an integer"),
        ("repeat", r"line 8 repeats delay \d+ of datapoint"),
    ],
)
def test_a_broken_event_row_is_rejected(copied_run, fault, message):
    """Each fault of decline_events.csv names its line and the stage to re-run."""
    events = copied_run.output / "decline_events.csv"
    quarter, cid, delay, _ = events.read_text(encoding="utf-8").split("\n")[6].split(",")
    broken = {
        "unknown": (7, "2011Q1,C9999,3,true"),
        "outcome": (7, f"{quarter},{cid},{delay},maybe"),
        "delay": (7, f"{quarter},{cid},x3,true"),
        "repeat": (8, f"{quarter},{cid},{delay},"),  # line 8 repeats the delay of line 7
    }
    _rewrite_line(events, *broken[fault])
    with pytest.raises(DependencyError, match=r"^decline_events\.csv " + message) as caught:
        read_handoff(copied_run, "study", {})
    assert str(caught.value).endswith("re-run the 'backtest' command")


@pytest.mark.parametrize(
    "artifact, column", [("network_edges.csv", "j"), ("network_nodes.csv", "canonical_id")]
)
def test_a_network_row_naming_a_company_outside_the_universe_is_rejected(
    copied_run, artifact, column
):
    from newsrisk.corpus import load_universe

    path = copied_run.output / artifact
    header, *rows = path.read_text(encoding="utf-8").split("\n")
    cells = rows[2].split(",")
    cells[header.split(",").index(column)] = "C9999"
    _rewrite_line(path, 4, ",".join(cells))
    universe = load_universe(copied_run.universe)
    with pytest.raises(
        DependencyError,
        match=rf"^{artifact} line 4 has {column} 'C9999' outside the universe — "
        r"re-run the 'networks' command$",
    ):
        read_handoff(copied_run, "networks", {"universe": universe})


@pytest.mark.parametrize(
    "artifact, column, cell",
    [
        ("average_rank.csv", "mode", "absolut"),
        ("average_rank.csv", "polarity", "mixd"),
        ("network_edges.csv", "polarity", "mixd"),
        ("network_nodes.csv", "polarity", "mixd"),
        ("network_stats.csv", "polarity", "mixd"),
        ("occurrences.csv", "polarity", "mixd"),
    ],
)
def test_an_undeclared_polarity_or_mode_is_rejected(copied_run, artifact, column, cell):
    """A misspelt polarity or mode names its line, rather than making a
    network or a rank list of its own that no later stage reads, or failing
    in build_networks without a file or line."""
    from newsrisk.corpus import load_universe

    path = copied_run.output / artifact
    header, *rows = path.read_text(encoding="utf-8").split("\n")
    cells = rows[2].split(",")
    cells[header.split(",").index(column)] = cell
    _rewrite_line(path, 4, ",".join(cells))
    handoff, declared = {
        "average_rank.csv": ("rank_lists", pipeline.NETWORK_KINDS),
        "occurrences.csv": ("occurrences", corpus.POLARITIES),
    }.get(artifact, ("networks", pipeline.NETWORK_KINDS))
    if column == "mode":
        declared = pipeline.MODES
    message = (
        f"{artifact} line 4 has {column} {cell!r}, expected one of {', '.join(declared)} — "
        f"re-run the {pipeline.WRITER[artifact]!r} command"
    )
    with pytest.raises(DependencyError, match=f"^{re.escape(message)}$"):
        read_handoff(copied_run, handoff, {"universe": load_universe(copied_run.universe)})


@pytest.mark.parametrize(
    "artifact, column, problem",
    [
        ("occurrences.csv", "companies", "has company 'ZZZ9' outside the universe"),
        ("average_rank.csv", "canonical_id", "has canonical_id 'ZZZ9' outside the universe"),
    ],
)
def test_an_id_outside_the_universe_is_rejected(copied_run, artifact, column, problem):
    """An occurrence or a rank-list entry naming an unknown company names its
    line, rather than adding a node no network has, or taking the place of a
    selected company whose risk then goes unscored."""
    from newsrisk.corpus import load_universe

    path = copied_run.output / artifact
    header, *rows = path.read_text(encoding="utf-8").split("\n")
    cells = rows[2].split(",")
    index = header.split(",").index(column)
    cells[index] = "|".join(sorted([*cells[index].split("|")[1:], "ZZZ9"]))
    _rewrite_line(path, 4, ",".join(cells))
    handoff = "rank_lists" if artifact == "average_rank.csv" else "occurrences"
    message = f"{artifact} line 4 {problem} — re-run the {pipeline.WRITER[artifact]!r} command"
    with pytest.raises(DependencyError, match=f"^{re.escape(message)}$"):
        read_handoff(copied_run, handoff, {"universe": load_universe(copied_run.universe)})


def test_backtest_refuses_a_datapoint_outside_the_universe(seed_one_run, tmp_path, capsys):
    """A risk.csv row of a company the universe does not list names its line
    and the command that wrote it, rather than being counted among the
    datapoints without a price series."""
    data = tmp_path / "data"
    shutil.copytree(seed_one_run, data)
    risk = data / "out" / "risk.csv"
    header, *rows = risk.read_text(encoding="utf-8").split("\n")
    cells = rows[0].split(",")
    cells[header.split(",").index("canonical_id")] = "ZZZ9"
    _rewrite_line(risk, 2, ",".join(cells))
    capsys.readouterr()
    assert main(["backtest", "--config", str(data / "run_config.json")]) == 2
    err = capsys.readouterr().err
    message = "risk.csv line 2 has canonical_id 'ZZZ9' outside the universe"
    assert f"newsrisk: {message} — re-run the 'risk' command" in err, err


def test_backtest_names_a_faulty_risk_row_before_a_faulty_universe(
    seed_one_run, tmp_path, capsys
):
    """The backtest reads risk.csv's rows before it loads universe.csv, so
    a row it cannot read is named first (exit 2), and a faulty universe only
    when risk.csv's rows are whole (exit 1)."""
    data = tmp_path / "data"
    shutil.copytree(seed_one_run, data)
    config = str(data / "run_config.json")
    _rewrite_line(data / "universe.csv", 3, "C0001")
    capsys.readouterr()
    assert main(["backtest", "--config", config]) == 1
    assert "newsrisk: universe.csv:3: " in capsys.readouterr().err
    _rewrite_line(data / "out" / "risk.csv", 4, "2011Q1,C0002")
    assert main(["backtest", "--config", config]) == 2
    err = capsys.readouterr().err
    assert "newsrisk: risk.csv line 4 has 2 cells, expected 10 — re-run the 'risk' command" in err


def test_a_network_missing_from_the_artifacts_is_rejected(copied_run):
    """Rank and risk read every polarity of every quarter, so a network
    whose rows are all gone is named, not a KeyError."""
    from newsrisk.corpus import load_universe

    for artifact in (pipeline.NETWORK_EDGES, pipeline.NETWORK_NODES, pipeline.NETWORK_STATS):
        path = copied_run.output / artifact.name
        lines = path.read_text(encoding="utf-8").split("\n")
        kept = [line for line in lines if not line.startswith("2011Q2,negative,")]
        assert len(kept) < len(lines), artifact.name
        path.write_text("\n".join(kept), encoding="utf-8")
    with pytest.raises(
        DependencyError,
        match=r"^network_stats\.csv has no row for the 2011Q2 negative network — "
        r"re-run the 'networks' command$",
    ):
        read_handoff(copied_run, "networks", {"universe": load_universe(copied_run.universe)})


@pytest.mark.parametrize(
    "column, cell, message",
    [
        ("close", "abc", r"line 3 has close 'abc', expected a number"),
        ("measurement_date", "soon", r"line 3 has bad measurement_date 'soon'"),
        ("quarter", "2011Q5", r"line 3 has bad quarter '2011Q5'"),
    ],
)
def test_a_broken_datapoint_cell_is_rejected(copied_run, column, cell, message):
    valid = copied_run.output / "valid_datapoints.csv"
    header, *rows = valid.read_text(encoding="utf-8").split("\n")
    cells = rows[1].split(",")
    cells[header.split(",").index(column)] = cell
    _rewrite_line(valid, 3, ",".join(cells))
    with pytest.raises(DependencyError, match=r"^valid_datapoints\.csv " + message) as caught:
        read_handoff(copied_run, "study", {})
    assert str(caught.value).endswith("re-run the 'backtest' command")


@pytest.mark.parametrize(
    "delays, message",
    [
        ([5, 90], r"decline_events\.csv line 2 has delay 3, outside the configured delays 5\.\.90"),
        ([5, 60], r"decline_events\.csv line 2 has delay 3, outside the configured delays 5\.\.60"),
        (
            [1, 90],
            r"valid_datapoints\.csv line 2 holds datapoint \('2011Q1', '\w+'\), which has "
            r"no decline_events\.csv row for delay 1",
        ),
    ],
)
def test_report_rejects_events_of_another_delay_window(
    staged_run, tmp_path, capsys, delays, message
):
    """The backtest wrote delays 3..90; a report over another window exits 2
    instead of mixing windows."""
    cfg, _ = staged_run
    out = tmp_path / "out"
    shutil.copytree(cfg.output, out)
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps(
            {
                **{key: str(Path(getattr(cfg, key))) for key in BASE_MAPPING},
                "output": str(out),
                "quarters": "2011Q1..2011Q3",
                "delays": delays,
            }
        )
    )
    assert main(["report", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert re.search(message, err), err
    assert "re-run the 'backtest' command" in err


@pytest.fixture(scope="module")
def seed_one_run(tmp_path_factory):
    """`FixtureSpec(seed=1)`'s files and the output of a run over them."""
    data = tmp_path_factory.mktemp("seed_one")
    assert main(["fixture", "--output", str(data), "--seed", "1"]) == 0
    assert main(["run", "--config", str(data / "run_config.json")]) == 0
    return data


@pytest.mark.parametrize(
    "name, line, command, code, where",
    [
        ("prices.csv", 3, "run", 1, "prices.csv:3: "),
        ("prices.csv", 400, "run", 1, "prices.csv:400: "),
        ("prices.csv", 5000, "run", 1, "prices.csv:5000: "),
        ("universe.csv", 17, "run", 1, "universe.csv:17: "),
        ("articles.jsonl", 700, "run", 1, "articles.jsonl:700: "),
        ("out/risk.csv", 40, "backtest", 2, "risk.csv line 40 "),
    ],
)
def test_a_byte_that_is_not_utf8_names_its_line(
    seed_one_run, tmp_path, capsys, name, line, command, code, where
):
    """The line named is the one holding the byte, though the text layer
    decodes ahead of the reader; an input exits 1 and an artifact 2."""
    data = tmp_path / "data"
    shutil.copytree(seed_one_run, data)
    lines = (data / name).read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1][:2] + b"\xff" + lines[line - 1][2:]
    (data / name).write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main([command, "--config", str(data / "run_config.json")]) == code
    err = capsys.readouterr().err
    assert f"newsrisk: {where}has byte 0xff, which is not UTF-8 (invalid start byte)" in err, err


def _with_byte(lines, line):
    lines[line - 1] = lines[line - 1][:2] + b"\xff" + lines[line - 1][2:]
    return b"\n".join(lines)


@pytest.mark.parametrize(
    "zero_close, byte_line", [(True, 10), (True, 150), (True, 400), (True, 1500), (False, 150)]
)
def test_an_undecodable_byte_does_not_hide_an_earlier_faulty_row(
    seed_one_run, tmp_path, zero_close, byte_line
):
    """The earliest faulty line is named, however far ahead of the reader
    the text layer has decoded the byte."""
    lines = (seed_one_run / "prices.csv").read_bytes().split(b"\n")
    if zero_close:
        lines[1] = lines[1].rsplit(b",", 1)[0] + b",zero"
        message = "prices.csv:2: bad price 'zero'"
    else:
        message = rf"prices.csv:{byte_line}: has byte 0xff, which is not UTF-8 \(invalid start byte\)"
    path = tmp_path / "prices.csv"
    path.write_bytes(_with_byte(lines, byte_line))
    with pytest.raises(ValidationError, match=f"^{message}$"):
        pricerows.load_prices(path)


def test_an_earlier_faulty_record_or_artifact_row_wins_over_a_byte(
    seed_one_run, tmp_path, capsys
):
    """articles.jsonl and an artifact a stage reads back name the earliest
    faulty line too."""
    lines = (seed_one_run / "articles.jsonl").read_bytes().split(b"\n")
    lines[1] = b"{not json"
    path = tmp_path / "articles.jsonl"
    path.write_bytes(_with_byte(lines, 10))
    with pytest.raises(ValidationError, match=r"^articles\.jsonl:2: malformed record"):
        corpus.load_articles(path)

    data = tmp_path / "data"
    shutil.copytree(seed_one_run, data)
    lines = (data / "out" / "risk.csv").read_bytes().split(b"\n")
    lines[1] = b"2011Q1,C0002"
    (data / "out" / "risk.csv").write_bytes(_with_byte(lines, 100))
    capsys.readouterr()
    assert main(["backtest", "--config", str(data / "run_config.json")]) == 2
    err = capsys.readouterr().err
    assert "risk.csv line 2 " in err and "0xff" not in err, err
