"""Child process of the benchmark: one set-up or one timed pass per interpreter.

    python3 perfbench/worker.py setup <workload> <seed> <workdir> <seconds>
    python3 perfbench/worker.py pass <workload> <workdir> <trace 0|1> <spans.json>

Set-up generates and writes the workload's fixtures again and again for
`seconds`, at least three times (the last copy is the one the passes read). A pass runs the workload's operation once
through newsrisk's public API, then checks its outputs against the fixture
truth. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402

# Cluster members' risk is 1 by construction; allow float rounding only.
RISK_ONE_TOLERANCE = 1e-12
MIN_SETUP_REPS = 3


def fixture_dirs(workdir: Path, studies: int) -> list[Path]:
    return [workdir / f"fixture-{i}" for i in range(studies)]


def setup(name: str, seed: int, workdir: Path, seconds: float) -> dict:
    import numpy
    from newsrisk.fixtures import FixtureSpec, generate_fixture, write_fixture

    workload = WORKLOADS[name]
    generate_s: list[float] = []
    write_s: list[float] = []
    started = time.perf_counter()
    while len(generate_s) < MIN_SETUP_REPS or time.perf_counter() - started < seconds:
        shutil.rmtree(workdir, ignore_errors=True)
        gen = wrote = 0.0
        for i, out in enumerate(fixture_dirs(workdir, workload.studies)):
            spec = FixtureSpec(seed=seed + i, **workload.fixture)
            t0 = time.perf_counter()
            fixture = generate_fixture(spec)
            t1 = time.perf_counter()
            write_fixture(fixture, out)
            t2 = time.perf_counter()
            gen += t1 - t0
            wrote += t2 - t1
            quarters = fixture.quarters
            config = {
                "articles": "articles.jsonl",
                "universe": "universe.csv",
                "prices": "prices.csv",
                "marketcaps": "marketcaps.csv",
                "output": "out",
                "quarters": f"{quarters[0]}..{quarters[-1]}",
                "seed": spec.seed,
                **workload.config,
            }
            (out / "run_config.json").write_text(json.dumps(config, indent=2) + "\n")
        generate_s.append(gen)
        write_s.append(wrote)
    size = sum(p.stat().st_size for p in workdir.rglob("*") if p.is_file())
    return {
        "generate_s": generate_s,
        "write_s": write_s,
        "bytes": size,
        "numpy": numpy.__version__,
        "blas": _blas_build(numpy),
    }


def _blas_build(numpy) -> dict:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {}
    return {
        k: f"{deps[k].get('name')} {deps[k].get('version')} "
        f"({deps[k].get('openblas configuration', '').strip()})"
        for k in ("blas", "lapack")
        if k in deps
    }


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def check_mentions(parsed: dict[str, frozenset[str]], truth: dict) -> tuple[list[str], float]:
    """Parsed mention sets against the planted ones; returns problems and recall.

    Every fixture article lies inside the configured quarter window.
    """
    planted = {aid: frozenset(cids) for aid, cids in truth["mentions"].items()}
    problems = []
    if set(parsed) != set(planted):
        problems.append(
            f"parsed {len(parsed)} articles, fixture planted {len(planted)}"
        )
    wrong = [aid for aid in planted if parsed.get(aid) != planted[aid]]
    if wrong:
        problems.append(f"{len(wrong)} articles parsed wrongly, e.g. {wrong[0]}")
    total = sum(len(c) for c in planted.values())
    found = sum(len(c & parsed.get(aid, frozenset())) for aid, c in planted.items())
    return problems, found / total if total else 1.0


def check_risk(
    risk: dict[tuple[str, str], float], selected: set[str], truth: dict
) -> list[str]:
    """rr_total in [0, 1]; every selected cluster member scores 1."""
    problems = [
        f"rr_total {value!r} outside [0, 1] for {key}"
        for key, value in risk.items()
        if not (0.0 <= value <= 1.0)
    ]
    for label, clusters in truth["clusters"].items():
        for member in (m for members in clusters for m in members):
            if member not in selected:
                continue
            value = risk.get((label, member))
            if value is None or abs(value - 1.0) > RISK_ONE_TOLERANCE:
                problems.append(f"cluster member {member} {label} has rr_total {value!r}")
    return problems


def _read_csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def pass_on_disk(fixture: Path) -> dict:
    """One `run_all` into an empty output dir; one operation per stage."""
    from newsrisk import config_from_file, run_all
    from newsrisk.pipeline import STAGE_ORDER

    cfg = config_from_file(fixture / "run_config.json")
    shutil.rmtree(cfg.output, ignore_errors=True)
    error = None
    t0 = time.perf_counter()
    try:
        run_all(cfg)
    except Exception as exc:  # counted as failed operations, reported below
        error = f"{type(exc).__name__}: {exc}"
    run_s = time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = Path(cfg.output)
    truth = json.loads((fixture / "truth.json").read_text(encoding="utf-8"))
    failed: dict[str, list[str]] = {}
    file_stage: dict[str, str] = {}
    for stage in STAGE_ORDER:
        manifest = out / f"{stage}.manifest.json"
        if not manifest.is_file():
            failed[stage] = [error or "no manifest"]
            continue
        file_stage[manifest.name] = stage
        for name in json.loads(manifest.read_text(encoding="utf-8"))["outputs"]:
            file_stage[name] = stage

    recall = 0.0
    if "parse" not in failed:
        parsed = {
            row["article_id"]: frozenset(c for c in row["companies"].split("|") if c)
            for row in _read_csv(out / "occurrences.csv")
        }
        problems, recall = check_mentions(parsed, truth)
        if problems:
            failed["parse"] = problems
    if "risk" not in failed:
        risk = {
            (row["quarter"], row["canonical_id"]): float(row["rr_total"])
            for row in _read_csv(out / "risk.csv")
        }
        selected = {row["canonical_id"] for row in _read_csv(out / "selected_universe.csv")}
        problems = check_risk(risk, selected, truth)
        if problems:
            failed["risk"] = problems

    digests = {p.name: _sha256(p) for p in sorted(out.iterdir()) if p.is_file()}
    return {
        "run_s": run_s,
        "peak_rss_mb": peak,
        "attempted": len(STAGE_ORDER),
        "failed": failed,
        "digests": digests,
        "file_stage": file_stage,
        "recall": recall,
        "layers": _on_disk_bytes(out) if not failed else {},
    }


def _on_disk_bytes(out: Path) -> dict:
    """Bytes written and hashed, from the manifests' file lists."""
    written = hashed = 0
    for manifest in sorted(out.glob("*.manifest.json")):
        written += manifest.stat().st_size
        entry = json.loads(manifest.read_text(encoding="utf-8"))
        for name in entry["outputs"]:
            size = (out / name).stat().st_size
            written += size
            hashed += size
        for name in entry["inputs"]:
            # Inputs are either fixture files or earlier stages' outputs.
            path = out / name
            if not path.is_file():
                path = out.parent / name
            hashed += path.stat().st_size
    return {"pipeline.bytes_written": written, "pipeline.bytes_hashed": hashed}


def pass_in_memory(fixtures: list[Path]) -> dict:
    """One `run_study` per fixture; one operation per study."""
    from newsrisk import config_from_file, run_study

    results, errors = [], {}
    run_s = 0.0
    for i, fixture in enumerate(fixtures):
        cfg = config_from_file(fixture / "run_config.json")
        t0 = time.perf_counter()
        try:
            results.append(run_study(cfg))
        except Exception as exc:  # counted as a failed operation
            results.append(None)
            errors[f"study-{i}"] = [f"{type(exc).__name__}: {exc}"]
        run_s += time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = dict(errors)
    digests = {}
    recalls = []
    for i, (fixture, result) in enumerate(zip(fixtures, results)):
        if result is None:
            continue
        truth = json.loads((fixture / "truth.json").read_text(encoding="utf-8"))
        parsed = {
            occ.article_id: occ.companies
            for occs in result.occurrences.values()
            for occ in occs
        }
        problems, recall = check_mentions(parsed, truth)
        recalls.append(recall)
        risk = {(dp.quarter.label, dp.canonical_id): dp.rr_total for dp in result.datapoints}
        problems += check_risk(risk, set(result.selected), truth)
        if problems:
            failed[f"study-{i}"] = problems
        digests[f"study-{i}"] = _study_digest(result)
    return {
        "run_s": run_s,
        "peak_rss_mb": peak,
        "attempted": len(fixtures),
        "failed": failed,
        "digests": digests,
        "file_stage": {key: key for key in digests},
        "recall": sum(recalls) / len(recalls) if recalls else 0.0,
        "layers": {"pipeline.bytes_written": 0, "pipeline.bytes_hashed": 0},
    }


def _study_digest(result) -> str:
    """SHA-256 of the study's mention sets, risk scores and decline outcomes."""
    digest = hashlib.sha256()
    for quarter, occs in sorted(result.occurrences.items()):
        for occ in sorted(occs, key=lambda o: o.article_id):
            digest.update(f"{occ.article_id},{quarter.label},{sorted(occ.companies)}\n".encode())
    for dp in result.datapoints:
        digest.update(f"{dp.quarter.label},{dp.canonical_id},{dp.rr_total!r}\n".encode())
    for dp in result.study.datapoints:
        digest.update(f"{dp.canonical_id},{dp.measurement_date}\n".encode())
    digest.update(result.study.outcomes.tobytes())
    return digest.hexdigest()


def run_pass(name: str, workdir: Path, trace: bool, spans_path: Path) -> dict:
    from spans import PROBE_SPANS, STAGE_SPANS, Tracer

    workload = WORKLOADS[name]
    fixtures = fixture_dirs(workdir, workload.studies)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    loadavg_before = os.getloadavg()
    if workload.on_disk:
        result = pass_on_disk(fixtures[0])
    else:
        result = pass_in_memory(fixtures)
    result["loadavg"] = [loadavg_before, os.getloadavg()]
    if tracer:
        tracer.uninstall()
        tracer.write(spans_path)
        expected = PROBE_SPANS + (STAGE_SPANS if workload.on_disk else ())
        metrics, problems = tracer.layer_metrics(expected)
        metrics.update(result["layers"])
        metrics["entities.recall"] = result["recall"]
        result["layers"] = metrics
        result["trace_problems"] = problems
    return result


def main(argv: list[str]) -> int:
    command, name = argv[0], argv[1]
    if command == "setup":
        out = setup(name, int(argv[2]), Path(argv[3]), float(argv[4]))
    elif command == "pass":
        out = run_pass(name, Path(argv[2]), argv[3] == "1", Path(argv[4]))
    else:
        print(f"unknown command {command!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
