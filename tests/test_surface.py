"""The package holds only what the pipeline runs.

Every module-level function and method under `src/newsrisk/` must be called
by the package's own callers: the `fixture` command, `run`, the six stage
commands and `run_study`. A function that only tests call belongs in
`tests/_oracles.py`, not in the package.
"""

import inspect
import sys
from pathlib import Path

import newsrisk
from newsrisk.cli import main
from newsrisk.pipeline import PIPELINE, config_from_file, run_study

PACKAGE = Path(newsrisk.__file__).parent

#: Functions no successful run reaches, each with the reason it stays.
EXEMPT = {
    ("cli.py", "error"): "argparse's usage failure, remapped to exit 1",
    ("corpus.py", "_undecodable"): "names the line of a byte that is not UTF-8",
    ("corpus.py", "_scan"): "the row scan that names a faulty CSV line",
    ("corpus.py", "_end_line"): "the line number of a faulty CSV row",
    ("corpus.py", "_input_error"): "the error of a faulty input file",
    ("pipeline.py", "_artifact_error"): "the error of a faulty handoff artifact",
    ("corpus.py", "float_cell"): "parses number cells in the row scan of a faulty file",
    ("corpus.py", "_read_price_columns"): "reads a price file the byte route does not accept",
    ("pricerows.py", "keep"): "checks the chunks of a price file the byte route does not accept",
    ("corpus.py", "_epoch_day"): "parses the dates of a price file the byte route does not accept",
    ("corpus.py", "_text"): "formats a column that mixes None or floats with other types",
}


def _defined(code, path: Path) -> list[tuple[str, int, str]]:
    """(file, line, name) of each function defined at module or class level."""
    found = []
    for const in code.co_consts:
        if not inspect.iscode(const) or const.co_name.startswith("<"):
            continue  # lambdas and comprehensions
        if const.co_flags & inspect.CO_OPTIMIZED:
            found.append((str(path), const.co_firstlineno, const.co_name))
        else:  # a class body: its methods count, its nested closures do not
            found.extend(_defined(const, path))
    return found


def test_every_package_function_runs_in_the_pipeline(tmp_path):
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        defined += _defined(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path)

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    data = tmp_path / "data"
    fixture_args = [
        "fixture", "--output", str(data), "--seed", "3", "--companies", "8",
        "--quarters-count", "2", "--articles-count", "72", "--clusters", "1",
        "--cluster-size", "3", "--cluster-articles", "4", "--share-class-pairs", "1",
    ]
    config = data / "run_config.json"
    staged = tmp_path / "staged"
    sys.setprofile(profile)
    try:
        assert main(fixture_args) == 0
        assert main(["run", "--config", str(config)]) == 0
        for stage in PIPELINE:
            assert main([stage.name, "--config", str(config), "--output", str(staged)]) == 0
        run_study(config_from_file(config))
    finally:
        sys.setprofile(None)

    unused = [
        f"{Path(file).name}:{line} {name}"
        for file, line, name in defined
        if (file, line, name) not in called and (Path(file).name, name) not in EXEMPT
    ]
    assert not unused, f"package functions that no pipeline run calls: {unused}"
    stale = set(EXEMPT) - {(Path(file).name, name) for file, _, name in defined}
    assert not stale, f"exemptions that name no package function: {stale}"
