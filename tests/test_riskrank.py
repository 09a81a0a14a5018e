"""Risk aggregation: influence weights, pair interactions, and the
two-additive aggregate checked against a brute-force Choquet oracle."""

import math

import numpy as np
import pytest

from newsrisk.entities import OccurrenceSet
from newsrisk.errors import ValidationError
from newsrisk.networks import MIXED, NEGATIVE, POSITIVE, build_networks
from newsrisk.quarters import Quarter
from newsrisk.riskrank import (
    RiskCalibration,
    build_players,
    riskrank_node,
    riskrank_quarter,
    select_universe,
)
from newsrisk.centrality import RankEntry

from _oracles import (
    SentimentRecord,
    choquet_integral,
    mobius_capacity,
    quarter_sentiment,
    random_mixed_network,
    random_occurrences,
)

Q = Quarter(2012, 3)
CAL = RiskCalibration(lam=0.5, mu=0.5, theta=0.5)


def occ(i, polarity, *companies):
    return OccurrenceSet(f"A{i}", Q, polarity, frozenset(companies))


def mixed_net(occurrences, universe):
    return build_networks(occurrences, Q, universe)[MIXED]


def networks(occurrences, universe):
    return build_networks(occurrences, Q, universe)


def triangle():
    """k--a, k--b, a--b with unit weights."""
    occurrences = [
        occ(1, NEGATIVE, "k", "a"),
        occ(2, NEGATIVE, "k", "b"),
        occ(3, NEGATIVE, "a", "b"),
    ]
    return mixed_net(occurrences, ("k", "a", "b"))


def line():
    """k--a--b: b is reachable from k only through a."""
    occurrences = [occ(1, NEGATIVE, "k", "a"), occ(2, NEGATIVE, "a", "b")]
    return mixed_net(occurrences, ("k", "a", "b"))


def test_calibration_validation():
    RiskCalibration(0.0, 0.0, 0.0)
    RiskCalibration(0.99, 1.0, 1.0)
    with pytest.raises(ValidationError, match=r"lambda must be in \[0, 1\)"):
        RiskCalibration(lam=1.0)
    with pytest.raises(ValidationError, match="lambda"):
        RiskCalibration(lam=-0.1)
    with pytest.raises(ValidationError, match="mu"):
        RiskCalibration(mu=1.5)
    with pytest.raises(ValidationError, match="theta"):
        RiskCalibration(theta=-0.2)


def test_quarter_sentiment_counts():
    """x_own, read off the networks' node weights, is the negative share of
    the articles naming the company, as the oracle counts them."""
    occurrences = [
        occ(1, POSITIVE, "a", "b"),
        occ(2, NEGATIVE, "a"),
        occ(3, NEGATIVE, "a"),
        occ(4, POSITIVE, "c"),
        occ(5, NEGATIVE),  # no company resolved: counts nowhere
    ]
    records = quarter_sentiment(occurrences, Q)
    assert sorted(records) == ["a", "b", "c"]
    assert (records["a"].s_positive, records["a"].s_negative) == (1, 2)
    assert records["a"].s_rel == pytest.approx(2 / 3)
    assert records["b"].s_rel == 0.0
    assert records["c"].s_rel == 0.0
    universe = ("a", "b", "c", "d")
    datapoints = riskrank_quarter(networks(occurrences, universe), universe, CAL)
    assert {dp.canonical_id: dp.x_own for dp in datapoints} == {
        cid: record.s_rel for cid, record in records.items()
    }


def test_sentiment_records_always_have_news():
    assert SentimentRecord("x", Q, 0, 3).s_rel == 1.0
    nodes = [f"n{i}" for i in range(12)]
    subset = [*nodes[::2], "zz"]  # zz is in the universe, but no article names it
    for seed in range(20):
        rng = np.random.default_rng(seed)
        occurrences = [
            *random_occurrences(rng, nodes, 15, max_mentions=4, polarity=POSITIVE),
            *random_occurrences(rng, nodes, 15, max_mentions=4, polarity=NEGATIVE),
        ]
        records = quarter_sentiment(occurrences, Q)
        assert set(records) == {cid for occ in occurrences for cid in occ.companies}
        for record in records.values():
            assert record.s_positive + record.s_negative >= 1
        datapoints = riskrank_quarter(networks(occurrences, [*nodes, "zz"]), subset, CAL)
        assert [dp.canonical_id for dp in datapoints] == sorted(set(subset) & set(records))
        for dp in datapoints:
            assert dp.x_own == records[dp.canonical_id].s_rel
            assert 0.0 <= dp.x_own <= 1.0


def test_select_universe_union(caplog):
    absolute = [RankEntry("b", 1.0, 4), RankEntry("a", 2.0, 4)]
    normalized = [RankEntry("c", 1.5, 4), RankEntry("a", 2.5, 4)]
    with caplog.at_level("WARNING", logger="newsrisk.riskrank"):
        selected = select_universe(absolute, normalized, top_k=5)
    assert selected == ("a", "b", "c")
    assert sum("using all" in r.message for r in caplog.records) == 2


def test_isolated_center_owns_the_whole_unit():
    net = mixed_net([occ(1, NEGATIVE, "a", "b")], ("k", "a", "b"))
    players = build_players(net.adjacency(), "k", CAL)
    assert players.players == ("k",)
    assert players.phi == {"k": 1.0}
    assert players.interactions == {}
    assert riskrank_node(players, {"k": 0.37}) == (0.37, 0.0, 0.0, 0.37)


def test_two_hop_line_weights():
    players = build_players(line().adjacency(), "k", CAL)
    assert players.players == ("k", "a", "b")
    assert players.phi == {"k": 0.5, "a": 0.25, "b": 0.25}
    # a and b share a real edge; k's own pairs never interact
    assert players.interactions == {("a", "b"): 2 * 0.5 * 0.25 * 0.25}


def test_triangle_aggregate_is_exact():
    players = build_players(triangle().adjacency(), "k", CAL)
    assert players.phi == {"k": 0.5, "a": 0.25, "b": 0.25}
    assert players.interactions == {("a", "b"): 0.0625}
    rr_own, rr_direct, rr_indirect, rr_total = riskrank_node(
        players, {"k": 1.0, "a": 0.5, "b": 0.0}
    )
    assert rr_own == 0.5
    assert rr_direct == (0.25 - 0.03125) * 0.5
    assert rr_indirect == 0.0  # min(x_a, x_b) = 0
    assert rr_total == 0.609375  # dyadic: bit-exact


def test_influence_weights_sum_to_one():
    rng = np.random.default_rng(31337)
    for _ in range(60):
        net, _ = random_mixed_network(rng, n_nodes=rng.integers(3, 9), n_articles=25)
        for center in net.nodes:
            players = build_players(net.adjacency(), center, CAL)
            assert math.fsum(players.phi.values()) == pytest.approx(1.0, abs=1e-12)


def test_aggregate_matches_choquet_oracle():
    rng = np.random.default_rng(20120301)
    checked = 0
    for _ in range(40):
        net, _ = random_mixed_network(rng, n_nodes=int(rng.integers(3, 7)), n_articles=20)
        for center in net.nodes:
            players = build_players(net.adjacency(), center, CAL)
            if len(players.players) > 6:
                continue
            x = {p: float(rng.uniform()) for p in players.players}
            _, _, _, rr_total = riskrank_node(players, x)
            assert rr_total == pytest.approx(choquet_integral(players, x), abs=1e-12)
            checked += 1
    assert checked >= 100


def test_capacity_is_normalized_and_monotone():
    players = build_players(triangle().adjacency(), "k", CAL)
    capacity = mobius_capacity(players)
    full = frozenset(players.players)
    assert capacity[frozenset()] == pytest.approx(0.0, abs=1e-15)
    assert capacity[full] == pytest.approx(1.0, abs=1e-12)
    for coalition, value in capacity.items():
        for player in full - coalition:
            assert capacity[coalition | {player}] >= value - 1e-12


def test_raising_any_input_never_lowers_the_total():
    rng = np.random.default_rng(8080)
    for _ in range(30):
        net, _ = random_mixed_network(rng, n_nodes=int(rng.integers(3, 8)), n_articles=20)
        center = str(rng.choice(net.nodes))
        players = build_players(net.adjacency(), center, CAL)
        x = {p: float(rng.uniform(0.0, 0.9)) for p in players.players}
        _, _, _, base = riskrank_node(players, x)
        for p in players.players:
            bumped = dict(x)
            bumped[p] = min(1.0, x[p] + 0.1)
            _, _, _, total = riskrank_node(players, bumped)
            assert total >= base - 1e-12


def test_total_stays_inside_unit_interval():
    rng = np.random.default_rng(55)
    for _ in range(40):
        net, _ = random_mixed_network(rng, n_nodes=int(rng.integers(2, 9)), n_articles=30)
        for center in net.nodes:
            players = build_players(net.adjacency(), center, CAL)
            x = {p: float(rng.uniform()) for p in players.players}
            _, _, _, rr_total = riskrank_node(players, x)
            assert -1e-12 <= rr_total <= 1.0 + 1e-12


def test_unanimous_extremes():
    for net in (triangle(), line()):
        players = build_players(net.adjacency(), "k", CAL)
        ones = {p: 1.0 for p in players.players}
        zeros = {p: 0.0 for p in players.players}
        assert riskrank_node(players, ones)[3] == pytest.approx(1.0, abs=1e-12)
        assert riskrank_node(players, zeros)[3] == 0.0


def test_node_input_validation():
    players = build_players(triangle().adjacency(), "k", CAL)
    with pytest.raises(ValidationError, match="missing risk input for player 'b'"):
        riskrank_node(players, {"k": 0.5, "a": 0.5})
    with pytest.raises(ValidationError, match=r"outside \[0,1\]"):
        riskrank_node(players, {"k": 0.5, "a": 1.2, "b": 0.0})


def test_quarter_datapoints():
    occurrences = [
        occ(1, POSITIVE, "k", "a"),
        occ(2, NEGATIVE, "k", "a"),
        occ(3, NEGATIVE, "a", "b"),
        occ(4, POSITIVE, "c"),
    ]
    nets = networks(occurrences, ("k", "a", "b", "c", "zz"))
    datapoints = riskrank_quarter(nets, ("k", "c", "zz"), CAL)
    by_id = {dp.canonical_id: dp for dp in datapoints}

    # zz was never mentioned, so it has no defined sentiment and no datapoint
    assert sorted(by_id) == ["c", "k"]

    k = by_id["k"]
    assert k.quarter == Q
    assert k.x_own == 0.5
    assert k.rr_total == pytest.approx(k.rr_own + k.rr_direct + k.rr_indirect, abs=1e-12)
    # neighbors outside the subset still feed the aggregate
    assert k.rr_direct > 0.0

    c = by_id["c"]  # isolated and all-positive news
    assert (c.x_own, c.rr_total) == (0.0, 0.0)


def test_quarter_is_deterministic():
    occurrences = [
        occ(1, NEGATIVE, "k", "a"),
        occ(2, NEGATIVE, "a", "b"),
        occ(3, POSITIVE, "k"),
    ]
    first = riskrank_quarter(networks(occurrences, ("k", "a", "b")), ("a", "b", "k"), CAL)
    second = riskrank_quarter(
        networks(list(reversed(occurrences)), ("b", "a", "k")), ("k", "b", "a"), CAL
    )
    assert first == second
