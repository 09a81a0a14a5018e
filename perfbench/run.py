"""newsrisk benchmark: set up a workload's fixtures, time passes, check outputs.

    python3 perfbench/run.py --workload dense-news --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run it from the repository root; it reads the package from `src/` and works
in `.perfbench_work/`. Untraced runs report the end-to-end metrics of
BENCHMARK.json, traced runs its per-layer metrics. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
is 0 only when every operation passed the correctness checks.

Each set-up and each pass runs in a fresh interpreter (`worker.py`), so the
peak RSS of a pass excludes fixture generation and earlier passes. Inputs are
read from the page cache: the fixture has just been written, and dropping
caches is out of scope.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
# Set-up repeats for this long (at least three times) and reports the median.
SETUP_SECONDS = 3.0
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
# A run must end within 180 s; stop starting work well before that.
DEADLINE_S = 160.0


class BenchError(Exception):
    """A set-up or pass that could not run to completion."""


def _worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(args[:2]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args[:2])} exceeded the time limit") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"worker {' '.join(args[:2])} exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    """What the numbers depend on besides the code."""
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "newsrisk").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": _commit(),
        "source_sha256": source.hexdigest(),
        "inputs": "page cache (fixtures written just before the passes)",
    }


def _commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    fixtures = workdir / "fixtures"
    setup = _worker(["setup", name, str(seed), str(fixtures), str(SETUP_SECONDS)], deadline)

    def one_pass(traced: bool, index: int) -> dict:
        spans = workdir / "spans" / f"seed{seed}-pass{index}.json"
        return _worker(["pass", name, str(fixtures), "1" if traced else "0", str(spans)], deadline)

    # Passes alternate untraced/traced in a traced run; an untraced run has
    # untraced passes only. A new round starts only if it should finish in time.
    kinds = (False, True) if trace else (False,)
    minimum = MIN_TRACED_PAIRS if trace else MIN_PASSES
    passes: list[tuple[bool, dict]] = []
    started = time.monotonic()
    while True:
        round_start = time.monotonic()
        for traced in kinds:
            passes.append((traced, one_pass(traced, len(passes))))
        rounds = len(passes) // len(kinds)
        now = time.monotonic()
        if rounds >= minimum and now - started + (now - round_start) > seconds:
            break
    shutil.rmtree(fixtures, ignore_errors=True)
    return summarize(name, setup, passes)


def summarize(name: str, setup: dict, passes: list[tuple[bool, dict]]) -> dict:
    """Medians over passes, operation counts, and the digest consistency check."""
    untraced = [p for traced, p in passes if not traced]
    traced = [p for traced, p in passes if traced]
    reference = untraced[0]["digests"]
    attempted = failed = 0
    problems: list[str] = []
    for _, p in passes:
        bad = dict(p["failed"])
        for item, digest in p["digests"].items():
            if reference.get(item) != digest:
                bad.setdefault(p["file_stage"].get(item, item), []).append(
                    f"{item} differs from the first pass"
                )
        if set(p["digests"]) != set(reference):
            bad.setdefault("outputs", []).append("different output file set")
        attempted += p["attempted"]
        failed += min(len(bad), p["attempted"])
        problems += [f"{op}: {msg}" for op, msgs in sorted(bad.items()) for msg in msgs]
        problems += p.get("trace_problems", [])
    combined = hashlib.sha256(
        "".join(f"{item} {digest}\n" for item, digest in sorted(reference.items())).encode()
    ).hexdigest()
    setup_s = [g + w for g, w in zip(setup["generate_s"], setup["write_s"])]
    run_s = [p["run_s"] for p in untraced]
    result = {
        "workload": name,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "artifact_digest": combined,
        "run_s_samples": run_s,
        "setup_s_samples": setup_s,
        "loadavg": [p["loadavg"] for _, p in passes],
        "numpy": setup["numpy"],
        "blas": setup["blas"],
        "end_to_end": {
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        },
    }
    if traced:
        result["per_layer"] = per_layer(setup, untraced, traced)
    return result


def per_layer(setup: dict, untraced: list[dict], traced: list[dict]) -> dict:
    """Median of each layer metric over the traced passes, plus derived ratios."""
    keys = sorted({k for p in traced for k in p["layers"]})
    layers = {k: statistics.median(p["layers"].get(k, 0.0) for p in traced) for k in keys}
    parsed = layers.pop("entities.articles_parsed", 0)
    layers["entities.us_per_article"] = (
        1e6 * layers["entities.parse_s"] / parsed if parsed else 0.0
    )
    attempted = layers.pop("backtest.datapoints_in", 0)
    valid = layers.pop("backtest.datapoints_valid", 0)
    layers["backtest.valid_ratio"] = valid / attempted if attempted else 0.0
    layers["fixtures.generate_s"] = statistics.median(setup["generate_s"])
    layers["fixtures.write_s"] = statistics.median(setup["write_s"])
    layers["fixtures.bytes"] = setup["bytes"]
    traced_run = statistics.median(p["run_s"] for p in traced)
    layers["trace.run_s"] = traced_run
    layers["trace.overhead_s"] = traced_run - statistics.median(p["run_s"] for p in untraced)
    return layers


def report(result: dict, trace: bool, spec: dict) -> dict:
    """Print the human-readable lines and return the metrics of the JSON line."""
    names = spec["per_layer"] if trace else spec["end_to_end"]
    source = result["per_layer"] if trace else result["end_to_end"]
    metrics = {}
    for entry in names:
        if entry["name"] not in source:
            result["problems"].append(f"metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": source.get(entry["name"], 0.0), "unit": entry["unit"]}
    run_s = result["run_s_samples"]
    print(f"workload {result['workload']}: artifact digest {result['artifact_digest']}")
    print(
        f"  run_s        {result['end_to_end']['run_s']:.4f} s   median of {len(run_s)} "
        f"untraced passes (min {min(run_s):.4f}, max {max(run_s):.4f})"
    )
    print(
        f"  setup_s      {result['end_to_end']['setup_s']:.4f} s   median of "
        f"{len(result['setup_s_samples'])} set-ups"
    )
    print(f"  peak_rss_mb  {result['end_to_end']['peak_rss_mb']:.1f} MB  median over passes")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(
        f"  error_rate   {rate:.4f} ratio  ({result['failed']} failed of "
        f"{result['attempted']} operations)"
    )
    if trace:
        for entry in spec["per_layer"]:
            print(f"  {entry['name']:<32} {metrics[entry['name']]['value']:.6g} {entry['unit']}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "newsrisk" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no newsrisk checkout at {ROOT} (need src/newsrisk and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if len(names) > 1:
        deadline = time.monotonic() + DEADLINE_S * len(names)

    env = environment()
    print(
        f"environment: nproc={env['nproc']} usable={env['cpus_usable']} python={env['python']} "
        f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} "
        f"OMP_NUM_THREADS={env['OMP_NUM_THREADS']} commit={env['commit']} "
        f"source={env['source_sha256'][:16]}"
    )
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, seconds, bool(args.trace), deadline)
        except BenchError as exc:
            print(f"workload {name}: {exc}", file=sys.stderr)
            return 1
        result["environment"] = env
        result["seed"] = args.seed
        result["seconds"] = seconds
        results_dir = WORK / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        (results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"  numpy {result['numpy']}, blas {json.dumps(result['blas'], sort_keys=True)}")
        print(f"  loadavg before/after each pass: {result['loadavg']}")
        metrics = report(result, bool(args.trace), spec)
        out["attempted"] += result["attempted"]
        out["failed"] += result["failed"]
        out["correct"] = out["correct"] and result["failed"] == 0 and not result["problems"]
        if len(names) == 1:
            out["metrics"] = metrics
        else:
            out["metrics"].update({f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
