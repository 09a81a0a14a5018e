import csv
from pathlib import Path

import pytest

from newsrisk.corpus import UNIVERSE_COLUMNS, load_universe
from newsrisk.fixtures import FixtureSpec, generate_fixture, write_fixture

from _adversarial import ADVERSARIAL_UNIVERSE_ROWS


@pytest.fixture(scope="session")
def adversarial_universe(tmp_path_factory):
    """The crafted parser universe, loaded through the real CSV loader."""
    path = tmp_path_factory.mktemp("adversarial") / "universe.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(UNIVERSE_COLUMNS)
        writer.writerows(ADVERSARIAL_UNIVERSE_ROWS)
    return load_universe(path)


#: Small but structurally complete: clusters, anchors, a missing cap, and one
#: share-class pair. Quota math: 140 articles/quarter >= 2*8 cluster + 18 anchor.
SMALL_SPEC = FixtureSpec(
    seed=11,
    n_companies=20,
    n_quarters=3,
    n_articles=420,
    clusters_per_quarter=2,
    cluster_size=3,
    anchor_positive_articles=10,
    anchor_negative_articles=8,
    missing_caps=1,
    share_class_pairs=1,
)


@pytest.fixture(scope="session")
def small_fixture():
    return generate_fixture(SMALL_SPEC)


@pytest.fixture(scope="session")
def small_fixture_dir(tmp_path_factory, small_fixture):
    out = tmp_path_factory.mktemp("small_fixture")
    write_fixture(small_fixture, out)
    return Path(out)


@pytest.fixture(scope="session")
def planted_fixture():
    """Default-size fixture with the standard planted decline."""
    return generate_fixture(
        FixtureSpec(seed=7, drift_pct_per_day=-1.0, drift_window=(1, 30))
    )
