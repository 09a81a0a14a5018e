"""The benchmark's workloads: which fixtures to generate and what one pass runs.

Why each workload exists is recorded in BENCHMARK.json. Each is sized so that
the layers it was chosen for do most of the work, and so that one pass takes
a few seconds on a 2-core machine: a run repeats passes to report medians.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    #: `FixtureSpec` fields besides the seed.
    fixture: dict
    #: Fixtures per pass, seeds `seed .. seed + studies - 1`.
    studies: int
    #: README config keys added to each fixture's run config.
    config: dict
    #: True: one `run_all` into an empty output dir. False: `run_study` per fixture.
    on_disk: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-news",
            # 450 articles a quarter over two quarters keep price loading small
            # next to matching; top_k = every company, so each mentioned
            # company-quarter is scored.
            fixture=dict(n_companies=150, n_quarters=2, n_articles=900),
            studies=1,
            config={"top_k": 150},
            on_disk=True,
        ),
        Workload(
            name="wide-universe",
            # 22 articles a quarter: the planted clusters and anchors plus six
            # regular ones. Clusters of two, because three cluster articles
            # mention every member of a two-member ring but only two of five.
            fixture=dict(
                n_companies=1000,
                n_quarters=2,
                n_articles=44,
                clusters_per_quarter=2,
                cluster_size=2,
                cluster_articles=3,
                anchor_positive_articles=6,
                anchor_negative_articles=4,
            ),
            studies=1,
            config={"top_k": 1000},
            on_disk=True,
        ),
        Workload(
            name="seed-sweep",
            fixture={},
            studies=2,
            config={},
            on_disk=False,
        ),
    )
}
