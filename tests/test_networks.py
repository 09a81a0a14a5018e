"""Co-occurrence network construction, smoothing, and degree stats."""

import numpy as np
import pytest

from newsrisk.entities import OccurrenceSet
from newsrisk.errors import ValidationError
from newsrisk.fixtures import FixtureSpec, generate_fixture
from newsrisk.networks import (
    MIXED,
    NEGATIVE,
    POSITIVE,
    build_networks,
    network_stats,
    smooth,
)
from newsrisk.quarters import Quarter

from _oracles import (
    as_dicts,
    dict_adjacency,
    dict_networks,
    edge,
    network_fields,
    smoothed_weights,
    truth_occurrences,
)

Q = Quarter(2012, 3)
UNIVERSE = ("AAA", "BBB", "CCC", "DDD")


def occ(i, polarity, *companies):
    return OccurrenceSet(f"A{i}", Q, polarity, frozenset(companies))


@pytest.fixture(scope="module")
def nets():
    occurrences = [
        occ(1, POSITIVE, "AAA", "BBB"),
        occ(2, POSITIVE, "AAA", "BBB", "CCC"),
        occ(3, POSITIVE, "CCC"),
        occ(4, POSITIVE),  # sentiment with no company resolved
        occ(5, NEGATIVE, "AAA", "CCC"),
        occ(6, NEGATIVE, "BBB"),
    ]
    return build_networks(occurrences, Q, UNIVERSE)


def test_hand_computed_weights(nets):
    pos = as_dicts(nets[POSITIVE])
    assert pos.node_weights == {"AAA": 2, "BBB": 2, "CCC": 2}
    assert pos.edge_weights == {
        ("AAA", "BBB"): 2,
        ("AAA", "CCC"): 1,
        ("BBB", "CCC"): 1,
    }
    assert pos.article_count == 4
    # the arrays: S of every node, and the position pairs in sorted order
    assert nets[POSITIVE].node_weights.tolist() == [2, 2, 2, 0]
    assert nets[POSITIVE].edge_index.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert nets[POSITIVE].edge_weights.tolist() == [2, 1, 1]

    neg = as_dicts(nets[NEGATIVE])
    assert neg.node_weights == {"AAA": 1, "BBB": 1, "CCC": 1}
    assert neg.edge_weights == {("AAA", "CCC"): 1}
    assert neg.article_count == 2


def test_mixed_is_positive_plus_negative(nets):
    pos, neg, mix = nets[POSITIVE], nets[NEGATIVE], nets[MIXED]
    assert mix.node_weights.tolist() == (pos.node_weights + neg.node_weights).tolist()
    pairs = set(as_dicts(pos).edge_weights) | set(as_dicts(neg).edge_weights)
    assert set(as_dicts(mix).edge_weights) == pairs
    for i, j in pairs:
        assert edge(mix, i, j) == edge(pos, i, j) + edge(neg, i, j)
    assert mix.article_count == pos.article_count + neg.article_count


def test_nodes_cover_full_universe(nets):
    for net in nets.values():
        assert net.nodes == tuple(sorted(UNIVERSE))
        assert net.node_weights[net.nodes.index("DDD")] == 0
        assert edge(net, "DDD", "AAA") == 0


def test_edge_lookup_is_symmetric(nets):
    mix = nets[MIXED]
    assert edge(mix, "AAA", "BBB") == edge(mix, "BBB", "AAA") == 2
    with pytest.raises(ValidationError, match="self-edge"):
        edge(mix, "AAA", "AAA")


def test_input_order_does_not_matter():
    occurrences = [
        occ(1, POSITIVE, "AAA", "BBB"),
        occ(2, NEGATIVE, "BBB", "CCC"),
        occ(3, POSITIVE, "AAA"),
    ]
    forward = build_networks(occurrences, Q, UNIVERSE)
    backward = build_networks(list(reversed(occurrences)), Q, UNIVERSE)
    for kind in (POSITIVE, NEGATIVE, MIXED):
        assert network_fields(forward[kind]) == network_fields(backward[kind])


def test_adjacency_map(nets):
    adj = nets[POSITIVE].adjacency()
    assert adj["AAA"] == {"BBB": 2, "CCC": 1}
    assert "DDD" not in adj


def test_wrong_quarter_rejected():
    bad = OccurrenceSet("A1", Quarter(2012, 4), POSITIVE, frozenset({"AAA"}))
    with pytest.raises(ValidationError, match="belongs to 2012Q4"):
        build_networks([bad], Q, UNIVERSE)


def test_unlabeled_polarity_rejected():
    bad = OccurrenceSet("A1", Q, "mixed", frozenset({"AAA"}))
    with pytest.raises(ValidationError, match="polarity 'mixed'"):
        build_networks([bad], Q, UNIVERSE)


def test_unknown_company_rejected():
    bad = occ(1, POSITIVE, "AAA", "ZZZ")
    with pytest.raises(ValidationError, match=r"\['ZZZ'\]"):
        build_networks([bad], Q, UNIVERSE)


def test_smoothing_adds_alpha_to_every_pair(nets):
    alpha = 0.1
    sm = smooth(nets[NEGATIVE], alpha)
    idx = {node: k for k, node in enumerate(sm.nodes)}
    assert sm.edge_index.tolist() == [[idx["AAA"], idx["CCC"]]]
    assert sm.edge_counts.tolist() == [1.0]
    weights = smoothed_weights(sm)
    n = len(sm.nodes)
    assert weights.shape == (n, n)
    assert np.allclose(weights, weights.T)
    assert np.all(np.diag(weights) == 0.0)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            i, j = sm.nodes[a], sm.nodes[b]
            assert weights[a, b] == pytest.approx(edge(nets[NEGATIVE], i, j) + alpha)
    # node weights pass through unsmoothed
    assert sm.node_weights[idx["AAA"]] == 1.0
    assert sm.node_weights[idx["DDD"]] == 0.0


def test_smoothing_rejects_nonpositive_alpha(nets):
    for alpha in (0.0, -0.5):
        with pytest.raises(ValidationError, match="alpha must be positive"):
            smooth(nets[MIXED], alpha)


def test_stats_on_hand_example(nets):
    stats = network_stats(nets[POSITIVE])
    assert stats["quarter"] == "2012Q3"
    assert stats["polarity"] == POSITIVE
    assert stats["n_nodes"] == 4
    assert stats["n_edges"] == 3
    assert stats["article_count"] == 4
    assert stats["avg_edges_per_node"] == pytest.approx(1.5)
    assert stats["max_degree"] == 2
    # AAA, BBB, CCC all have degree 2; the smallest id wins
    assert stats["max_degree_node"] == "AAA"


def test_stats_with_no_edges():
    nets = build_networks([occ(1, POSITIVE, "AAA")], Q, UNIVERSE)
    stats = network_stats(nets[NEGATIVE])
    assert stats["n_edges"] == 0
    assert stats["max_degree"] == 0
    assert stats["max_degree_node"] is None
    assert stats["avg_edges_per_node"] == 0.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_array_networks_match_the_dict_reference(seed):
    """On fixtures whose articles name up to four companies, every network
    holds the counts of the dict reference, its arrays have the declared
    dtypes, and its neighbor map is filled in the reference's order."""
    fixture = generate_fixture(
        FixtureSpec(seed=seed, mention_count_weights=(0.6, 0.25, 0.1, 0.05))
    )
    ids = [c.canonical_id for c in fixture.companies]
    wide = 0
    for quarter, occurrences in truth_occurrences(fixture).items():
        wide += sum(len(o.companies) >= 3 for o in occurrences)
        reference = dict_networks(occurrences, quarter, ids)
        for kind, network in build_networks(occurrences, quarter, ids).items():
            assert as_dicts(network) == reference[kind]
            assert network.node_weights.dtype == np.int64
            assert network.edge_index.dtype == np.intp
            assert network.edge_index.shape == (len(network.edge_weights), 2)
            assert network.edge_weights.dtype == np.int64
            want = dict_adjacency(reference[kind])
            got = network.adjacency()
            assert [(i, list(n.items())) for i, n in got.items()] == [
                (i, list(n.items())) for i, n in want.items()
            ]
    assert wide > 50
