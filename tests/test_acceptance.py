"""End-to-end guarantees of the package, one test per guarantee.

Each test prints a single summary line (visible with ``pytest -s``) stating
the measured quantity next to its pinned bound, so a release run documents
the margins, not just green checkmarks.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import newsrisk.backtest as bt
from newsrisk.centrality import information_centrality
from newsrisk.entities import MatcherSet, OccurrenceSet
from newsrisk.errors import ConditioningError
from newsrisk.fixtures import (
    FixtureSpec,
    generate_fixture,
    write_fixture,
)
from newsrisk.networks import (
    MIXED,
    NEGATIVE,
    POSITIVE,
    QuarterNetwork,
    build_networks,
    smooth,
)
from newsrisk.pipeline import config_from_mapping, run_all, run_study
from newsrisk.quarters import Quarter, quarter_of
from newsrisk.riskrank import RiskCalibration, build_players, riskrank_node

from _adversarial import adversarial_negatives, adversarial_positives
from _oracles import (
    centrality_denominators,
    centrality_oracle,
    choquet_integral,
    indefinite_network,
    null_outperformance,
    random_anchored_network,
    random_mixed_network,
)

Q = Quarter(2012, 3)
CAL = RiskCalibration(lam=0.5, mu=0.5, theta=0.5)


def uniform_network(nodes, edges, node_weight=2, edge_weight=1):
    nodes = tuple(sorted(nodes))
    return QuarterNetwork(
        quarter=Q,
        polarity=NEGATIVE,
        nodes=nodes,
        node_weights={n: node_weight for n in nodes},
        edge_weights={tuple(sorted(e)): edge_weight for e in edges},
        article_count=edge_weight * len(edges),
    )


def anchored_occurrences(n_nodes, n_pair_articles, n_anchor_articles, seed):
    """A single-polarity corpus whose two anchor companies co-appear more
    often than any other company appears at all (keeps the ranking solvable)."""
    rng = np.random.default_rng(seed)
    nodes = [f"N{i:03d}" for i in range(n_nodes)]
    occurrences = []
    serial = 0
    for _ in range(n_anchor_articles):
        occurrences.append(
            OccurrenceSet(f"A{serial}", Q, NEGATIVE, frozenset(nodes[:2]))
        )
        serial += 1
    for _ in range(n_pair_articles):
        pair = rng.choice(n_nodes - 2, size=2, replace=False) + 2
        occurrences.append(
            OccurrenceSet(
                f"A{serial}", Q, NEGATIVE, frozenset(nodes[i] for i in pair)
            )
        )
        serial += 1
    return nodes, occurrences


def test_centrality_agrees_with_direct_inverse_oracle():
    rng = np.random.default_rng(20260816)
    worst = 0.0
    started = time.perf_counter()
    for _ in range(200):
        network = random_anchored_network(rng)
        got = information_centrality(network)
        want = centrality_oracle(network)
        assert got.keys() == want.keys()
        for node in want:
            assert got[node] == pytest.approx(want[node], abs=1e-9, rel=1e-9)
            worst = max(worst, abs(got[node] - want[node]))
    elapsed = time.perf_counter() - started

    # symmetric graphs must come out exactly uniform
    k7 = [f"N{i}" for i in range(7)]
    complete = smooth(
        uniform_network(
            k7,
            [(a, b) for i, a in enumerate(k7) for b in k7[i + 1 :]],
            node_weight=4,
            edge_weight=3,
        ),
        alpha=0.1,
    )
    c8 = [f"C{i}" for i in range(8)]
    cycle = smooth(
        uniform_network(c8, [(c8[i], c8[(i + 1) % 8]) for i in range(8)]), alpha=1.0
    )
    p = [f"P{i}" for i in range(10)]
    petersen_edges = (
        [(p[i], p[(i + 1) % 5]) for i in range(5)]
        + [(p[i + 5], p[(i + 2) % 5 + 5]) for i in range(5)]
        + [(p[i], p[i + 5]) for i in range(5)]
    )
    petersen = smooth(uniform_network(p, petersen_edges, node_weight=3), alpha=1.0)
    spreads = []
    for network in (complete, cycle, petersen):
        scores = information_centrality(network)
        spreads.append(max(scores.values()) - min(scores.values()))
        assert spreads[-1] <= 1e-9

    # the solver and the oracle reject the same unsolvable input
    bad = indefinite_network()
    with pytest.raises(ConditioningError, match="non-positive centrality denominator"):
        information_centrality(bad)
    assert min(centrality_denominators(bad).values()) <= 0

    assert elapsed < 5.0
    print(
        f"PASS centrality oracle: 200 graphs max|delta|={worst:.2e} (tol 1e-9), "
        f"uniform spreads max={max(spreads):.2e}, {elapsed:.2f}s < 5s"
    )


def test_risk_aggregate_agrees_with_brute_force_choquet():
    rng = np.random.default_rng(8161978)
    checked = 0
    worst = 0.0
    while checked < 500:
        net, _ = random_mixed_network(rng, n_nodes=int(rng.integers(3, 7)), n_articles=20)
        for center in net.nodes:
            players = build_players(net, center, CAL)
            assert len(players.phi) <= 6
            x = {n: float(rng.random()) for n in players.phi}
            _, _, _, rr_total = riskrank_node(players, x)
            want = choquet_integral(players, x)
            assert rr_total == pytest.approx(want, abs=1e-12)
            worst = max(worst, abs(rr_total - want))
            checked += 1

    # the three-company worked example is dyadic, so it must be bit-exact
    triangle = build_networks(
        [
            OccurrenceSet("A1", Q, NEGATIVE, frozenset(("k", "a"))),
            OccurrenceSet("A2", Q, NEGATIVE, frozenset(("k", "b"))),
            OccurrenceSet("A3", Q, NEGATIVE, frozenset(("a", "b"))),
        ],
        Q,
        ("k", "a", "b"),
    )[MIXED]
    players = build_players(triangle, "k", CAL)
    _, _, _, rr_total = riskrank_node(players, {"k": 1.0, "a": 0.5, "b": 0.0})
    assert rr_total == 0.609375

    print(
        f"PASS choquet oracle: {checked} player sets max|delta|={worst:.2e} "
        f"(tol 1e-12), triangle total == 0.609375 exactly"
    )


def test_risk_scores_stay_bounded_and_monotone():
    rng = np.random.default_rng(5150)
    instances = 0
    violations = 0
    while instances < 1000:
        net, _ = random_mixed_network(rng, n_nodes=int(rng.integers(3, 8)), n_articles=22)
        center = str(rng.choice(net.nodes))
        players = build_players(net, center, CAL)
        x = {n: float(rng.random()) for n in players.phi}
        _, _, _, base = riskrank_node(players, x)
        if not (-1e-12 <= base <= 1 + 1e-12):
            violations += 1
        for node in players.phi:
            bumped = dict(x)
            bumped[node] = min(1.0, x[node] + float(rng.random()) * (1 - x[node]))
            _, _, _, total = riskrank_node(players, bumped)
            if total < base - 1e-12:
                violations += 1
        _, _, _, ones = riskrank_node(players, {n: 1.0 for n in players.phi})
        _, _, _, zeros = riskrank_node(players, {n: 0.0 for n in players.phi})
        if abs(ones - 1.0) > 1e-12 or abs(zeros) > 1e-12:
            violations += 1
        instances += 1
    assert violations == 0
    print(
        f"PASS risk bounds: {instances} instances, 0 bound/monotonicity/unanimity "
        f"violations (tol 1e-12)"
    )


def test_report_arithmetic_reference_rows():
    cases = [
        (4.82, 2.82, 1.71, 0.02),
        (7.03, 3.09, 2.28, 0.02),
        (9.59, 0.72, 13.41, 0.10),
    ]
    for diff, std, expected, tol in cases:
        base = 40.0
        stat = bt.range_stat(
            "3 to 4",
            3,
            4,
            np.array([base + diff, base + diff]),
            np.array([base - std, base + std]),
            delay_lo=3,
        )
        assert stat.abs_diff == pytest.approx(diff, abs=1e-12)
        assert stat.benchmark_daily_std == pytest.approx(std, abs=1e-12)
        assert stat.std_outperformance == pytest.approx(expected, abs=tol)
    assert bt.proportion_stderr(0.5, 50, 0.5, 50) == pytest.approx(0.1, abs=1e-15)
    assert bt.proportion_stderr(0.42, 18640, 0.47, 1752) == pytest.approx(
        0.012459, abs=5e-6
    )
    print(
        "PASS report arithmetic: 3 outperformance reference rows within "
        "+/-0.02..0.10, stderr(0.42/18640 vs 0.47/1752) == 0.012459 +/- 5e-6"
    )


def test_entity_matcher_on_adversarial_corpus(adversarial_universe):
    matcher = MatcherSet(adversarial_universe)
    negatives = adversarial_negatives()
    assert len(negatives) >= 200
    false_positives = [s for s in negatives if matcher.match_ids(s)]
    assert false_positives == []
    positives = adversarial_positives()
    missed = [
        (sentence, expected)
        for sentence, expected in positives
        if matcher.match_ids(sentence) != expected
    ]
    assert missed == []
    print(
        f"PASS entity matching: {len(negatives)} bait sentences 0 false positives, "
        f"{len(positives)} planted mentions 100% recall"
    )


def test_planted_decline_is_detected_and_null_is_calibrated(tmp_path):
    # end-to-end through the file loaders: a fixture with a real post-signal
    # price decline must stand far outside what label noise alone produces
    fixture = generate_fixture(
        FixtureSpec(seed=7, drift_pct_per_day=-1.0, drift_window=(1, 30))
    )
    write_fixture(fixture, tmp_path)
    cfg = config_from_mapping(
        {
            "articles": "articles.jsonl",
            "universe": "universe.csv",
            "prices": "prices.csv",
            "marketcaps": "marketcaps.csv",
            "output": "out",
            "quarters": f"{fixture.quarters[0].label}..{fixture.quarters[-1].label}",
        },
        base_dir=tmp_path,
    )
    result = run_study(cfg)
    report = result.reports.range_reports[(bt.AGGREGATED, 1.0)]
    rows = {row.label: row for row in report.rows}
    assert "21 to 30" in rows
    planted = rows["21 to 30"].std_outperformance
    assert planted is not None
    assert planted > 3.0

    null_values = [null_outperformance(seed) for seed in range(100)]
    inside = sum(1 for value in null_values if abs(value) <= 3.0)
    assert inside >= 99
    print(
        f"PASS backtest power: planted outperformance {planted:.2f} > 3, "
        f"null sweep {inside}/100 within +/-3 (max |x| = "
        f"{max(abs(v) for v in null_values):.2f})"
    )


def test_ranking_scales_to_large_networks():
    nodes, occurrences = anchored_occurrences(
        n_nodes=500, n_pair_articles=3000, n_anchor_articles=60, seed=1
    )
    network = smooth(build_networks(occurrences, Q, nodes)[NEGATIVE], alpha=0.1)
    started = time.perf_counter()
    scores = information_centrality(network)
    single = time.perf_counter() - started
    assert len(scores) == 500
    assert single < 2.0

    fixture = generate_fixture(FixtureSpec(seed=13, n_quarters=22, n_articles=7700))
    by_quarter = {}
    for article in fixture.articles:
        quarter = quarter_of(article.published_at)
        by_quarter.setdefault(quarter, []).append(
            OccurrenceSet(
                article.id,
                quarter,
                article.polarity,
                frozenset(fixture.truth.mentions[article.id]),
            )
        )
    assert len(by_quarter) == 22
    company_ids = sorted(record.canonical_id for record in fixture.companies)
    started = time.perf_counter()
    solves = 0
    for quarter, quarter_occurrences in sorted(by_quarter.items()):
        networks = build_networks(quarter_occurrences, quarter, company_ids)
        for polarity in (POSITIVE, NEGATIVE, MIXED):
            result = information_centrality(smooth(networks[polarity], alpha=0.1))
            assert len(result) == len(company_ids)
            solves += 1
    loop = time.perf_counter() - started
    assert solves == 66
    assert loop < 90.0
    print(
        f"PASS scaling: 500-node solve {single:.3f}s < 2s, "
        f"22-quarter x 3-polarity loop {loop:.2f}s < 90s"
    )


def test_full_pipeline_runs_are_byte_identical(small_fixture_dir, tmp_path):
    def run_into(out_dir: Path) -> dict[str, bytes]:
        cfg = config_from_mapping(
            {
                "articles": "articles.jsonl",
                "universe": "universe.csv",
                "prices": "prices.csv",
                "marketcaps": "marketcaps.csv",
                "output": str(out_dir),
                "quarters": "2011Q1..2011Q3",
            },
            base_dir=small_fixture_dir,
        )
        run_all(cfg)
        return {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()
        }

    first = run_into(tmp_path / "a")
    rerun = run_into(tmp_path / "a")
    elsewhere = run_into(tmp_path / "b")
    assert first == rerun
    assert first == elsewhere
    n_manifests = sum(1 for name in first if name.endswith(".manifest.json"))
    assert n_manifests == 6
    print(
        f"PASS determinism: {len(first)} artifacts ({n_manifests} manifests) "
        f"byte-identical across rerun and across output directories"
    )
