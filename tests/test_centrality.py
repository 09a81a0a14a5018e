"""Information centrality against independent dense-inverse and exact
rational oracles, plus rescaling, normalization, ranking, and
rank-correlation units."""

import tracemalloc

import numpy as np
import pytest

from newsrisk.centrality import (
    CentralityTable,
    average_rank,
    build_tables,
    information_centrality,
    minmax_rescale,
    normalized_scores,
    rank_scores,
)
from newsrisk.corpus import MarketCapTable
from newsrisk.errors import ConditioningError
from newsrisk.entities import OccurrenceSet
from newsrisk.fixtures import FixtureSpec, generate_fixture
from newsrisk.networks import NEGATIVE, QuarterNetwork, SmoothedNetwork, build_networks, smooth
from newsrisk.quarters import Quarter

from _oracles import (
    centrality_denominators,
    centrality_oracle,
    dense_centrality,
    exact_centrality,
    indefinite_network,
    kendall_tau,
    random_anchored_network,
    random_tied_occurrences,
    truth_networks,
)

Q = Quarter(2012, 3)


def uniform_network(nodes, edges, node_weight=2, edge_weight=1):
    """A hand-built single-polarity network with uniform weights."""
    nodes = tuple(sorted(nodes))
    return QuarterNetwork(
        quarter=Q,
        polarity=NEGATIVE,
        nodes=nodes,
        node_weights={n: node_weight for n in nodes},
        edge_weights={tuple(sorted(e)): edge_weight for e in edges},
        article_count=edge_weight * len(edges),
    )


def spread(scores):
    values = list(scores.values())
    return max(values) - min(values)


def test_oracle_agreement_on_random_graphs():
    rng = np.random.default_rng(424242)
    for _ in range(40):
        network = random_anchored_network(rng)
        got = information_centrality(network)
        want = centrality_oracle(network)
        assert got.keys() == want.keys()
        for node in want:
            assert got[node] == pytest.approx(want[node], abs=1e-9, rel=1e-9)


def test_complete_graph_scores_are_uniform():
    nodes = [f"N{i}" for i in range(7)]
    edges = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    for alpha, w in ((0.1, 3), (1.0, 1)):
        net = smooth(uniform_network(nodes, edges, node_weight=4, edge_weight=w), alpha)
        scores = information_centrality(net)
        assert spread(scores) <= 1e-9
        oracle = centrality_oracle(net)
        for node in nodes:
            assert scores[node] == pytest.approx(oracle[node], abs=1e-9)


def test_cycle_scores_are_uniform():
    nodes = [f"C{i}" for i in range(8)]
    edges = [(nodes[i], nodes[(i + 1) % 8]) for i in range(8)]
    net = smooth(uniform_network(nodes, edges), alpha=1.0)
    scores = information_centrality(net)
    assert spread(scores) <= 1e-9


def test_petersen_scores_are_uniform():
    outer = [(f"P{i}", f"P{(i + 1) % 5}") for i in range(5)]
    inner = [(f"P{i + 5}", f"P{(i + 2) % 5 + 5}") for i in range(5)]
    spokes = [(f"P{i}", f"P{i + 5}") for i in range(5)]
    nodes = [f"P{i}" for i in range(10)]
    net = smooth(uniform_network(nodes, outer + inner + spokes, node_weight=3), alpha=1.0)
    scores = information_centrality(net)
    assert spread(scores) <= 1e-9
    oracle = centrality_oracle(net)
    for node in nodes:
        assert scores[node] == pytest.approx(oracle[node], abs=1e-9)


def test_path_middle_node_scores_highest():
    net = uniform_network(["a", "b", "c"], [("a", "b"), ("b", "c")])
    object.__setattr__(net, "node_weights", {"a": 1, "b": 2, "c": 1})
    scores = information_centrality(smooth(net, alpha=1.0))
    assert scores["a"] == pytest.approx(scores["c"], abs=1e-12)
    assert scores["b"] > scores["a"]


def test_indefinite_matrix_is_rejected_and_oracle_agrees():
    network = indefinite_network()
    with pytest.raises(ConditioningError, match="non-positive centrality denominator"):
        information_centrality(network)
    with pytest.raises(ConditioningError, match="2012Q3/negative"):
        information_centrality(network)
    denominators = centrality_denominators(network)
    assert min(denominators.values()) <= 0


def test_condition_cap_is_enforced():
    rng = np.random.default_rng(7)
    network = random_anchored_network(rng)
    with pytest.raises(ConditioningError, match="exceeds cap"):
        information_centrality(network, condition_cap=1.0)


NO_EDGES = (np.zeros((0, 2), dtype=np.intp), np.zeros(0))


def test_degenerate_sizes():
    empty = SmoothedNetwork(Q, NEGATIVE, (), np.zeros(0), 0.1, *NO_EDGES)
    assert information_centrality(empty) == {}
    single = SmoothedNetwork(Q, NEGATIVE, ("solo",), np.ones(1), 0.1, *NO_EDGES)
    assert information_centrality(single) == {"solo": 0.0}


def test_zero_weight_matrix_is_rejected():
    dead = SmoothedNetwork(Q, NEGATIVE, ("a", "b"), np.ones(2), 0.0, *NO_EDGES)
    with pytest.raises(ConditioningError, match="no positive pair weights"):
        information_centrality(dead)


#: FixtureSpec() and the benchmark's three fixture shapes (dense-news,
#: wide-universe, seed-sweep) at seed 1.
REFERENCE_SPECS = (
    FixtureSpec(),
    FixtureSpec(seed=1, n_companies=150, n_quarters=2, n_articles=900),
    FixtureSpec(
        seed=1, n_companies=1000, n_quarters=2, n_articles=44, clusters_per_quarter=2,
        cluster_size=2, cluster_articles=3, anchor_positive_articles=6,
        anchor_negative_articles=4,
    ),
    FixtureSpec(seed=1),
)


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: f"{s.n_companies}x{s.seed}")
def test_fixture_networks_match_the_dense_inverse(spec):
    for network in truth_networks(generate_fixture(spec)):
        want, condition = dense_centrality(network)
        got = information_centrality(network)
        assert got.keys() == want.keys()
        for node in want:
            assert got[node] == pytest.approx(want[node], rel=1e-10, abs=0)
        # the condition number agrees with ||B||_1 * ||B^-1||_1 to 1e-12
        information_centrality(network, condition_cap=condition * (1 + 1e-12))
        with pytest.raises(ConditioningError, match="exceeds cap"):
            information_centrality(network, condition_cap=condition * (1 - 1e-12))


def test_same_networks_rejected_for_the_same_reasons():
    fixture = generate_fixture(
        FixtureSpec(seed=1, mention_count_weights=(0.6, 0.25, 0.1, 0.05))
    )
    rejected = []
    for network in truth_networks(fixture):
        try:
            information_centrality(network)
        except ConditioningError as exc:
            rejected.append(str(exc))
    assert rejected == [
        "2011Q2/mixed: non-positive centrality denominator",
        "2012Q1/mixed: non-positive centrality denominator",
        "2012Q2/negative: non-positive centrality denominator",
    ]


def _tie_classes(network, exact):
    """Nodes grouped by exact score, and the nodes that have an edge."""
    classes: dict = {}
    for node, value in exact.items():
        classes.setdefault(value, []).append(node)
    with_edge = {network.nodes[i] for i in np.unique(network.edge_index).tolist()}
    return list(classes.values()), with_edge


def _assert_exact_order(network, got, exact):
    """Scores to 1e-12 of the rational solve, ranks in exact order, and
    exchangeable companies bit-equal and ordered by canonical_id."""
    for node, value in exact.items():
        assert got[node] == pytest.approx(float(value), rel=1e-12, abs=0)
    ranks = rank_scores(got)
    classes, with_edge = _tie_classes(network, exact)
    for a in exact:
        for b in exact:
            if exact[a] > exact[b]:
                assert ranks[a] < ranks[b]
    for members in classes:
        if len(members) > 1 and not with_edge & set(members):
            assert len({got[m] for m in members}) == 1
            assert sorted(members, key=ranks.get) == sorted(members)


def test_rational_oracle_on_tied_networks():
    rng = np.random.default_rng(7301)
    tied = 0
    for _ in range(30):
        nodes, occurrences = random_tied_occurrences(rng)
        network = smooth(build_networks(occurrences, Q, nodes)[NEGATIVE], alpha=0.1)
        assert len(network.nodes) <= 20
        exact = exact_centrality(network)
        _assert_exact_order(network, information_centrality(network), exact)
        tied += len(exact) - len(set(exact.values()))
    assert tied > 30  # the generator produces ties worth checking


def test_relabeling_permutes_ranks_and_keeps_tie_breaks_by_id():
    rng = np.random.default_rng(5150)
    for _ in range(10):
        nodes, occurrences = random_tied_occurrences(rng)
        rename = dict(zip(nodes, rng.permutation([f"id{i:02d}" for i in range(len(nodes))])))
        relabeled = [
            OccurrenceSet(o.article_id, o.quarter, o.polarity,
                          frozenset(rename[c] for c in o.companies))
            for o in occurrences
        ]
        runs = []
        for names, occs in ((nodes, occurrences), (list(rename.values()), relabeled)):
            network = smooth(build_networks(occs, Q, names)[NEGATIVE], alpha=0.1)
            exact = exact_centrality(network)
            got = information_centrality(network)
            _assert_exact_order(network, got, exact)
            runs.append((network, exact, rank_scores(got)))
        (network, exact, before), (_, _, after) = runs
        classes, _ = _tie_classes(network, exact)
        for members in classes:
            # a tied class keeps its block of ranks; a lone node keeps its rank
            assert {before[m] for m in members} == {after[rename[m]] for m in members}


def test_solving_a_wide_sparse_network_builds_no_dense_matrix():
    nodes = [f"c{i:04d}" for i in range(5000)]
    occurrences = [
        OccurrenceSet(f"p{i}", Q, NEGATIVE, frozenset(nodes[3 * i : 3 * i + 2]))
        for i in range(10)
    ]
    occurrences += [
        OccurrenceSet(f"x{i}", Q, NEGATIVE, frozenset(nodes[-2:])) for i in range(5)
    ]
    network = build_networks(occurrences, Q, nodes)[NEGATIVE]
    tracemalloc.start()
    try:
        scores = information_centrality(smooth(network, alpha=0.1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scores) == 5000
    assert len(network.edge_weights) == 11
    assert peak < 20e6  # one dense 5 000^2 float64 array is 200 MB


def test_minmax_rescale():
    scores = {"a": 2.0, "b": 4.0, "c": 3.0}
    rescaled = minmax_rescale(scores)
    assert rescaled == {"a": 0.0, "b": 1.0, "c": 0.5}
    assert minmax_rescale({}) == {}
    assert minmax_rescale({"a": 5.0, "b": 5.0}) == {"a": 0.0, "b": 0.0}


def test_normalized_scores_skip_missing_caps():
    caps = MarketCapTable({("a", Q): 2.0, ("b", Q): 0.5})
    out = normalized_scores({"a": 1.0, "b": 1.0, "c": 1.0}, caps, Q)
    assert out == {"a": 0.5, "b": 2.0}
    assert "c" not in out


def test_rank_scores_break_ties_by_id():
    ranks = rank_scores({"zed": 0.9, "amy": 0.9, "bob": 1.0, "cat": 0.1})
    assert ranks == {"bob": 1, "amy": 2, "zed": 3, "cat": 4}


def test_ranks_ignore_monotone_transforms():
    rng = np.random.default_rng(99)
    scores = {f"n{i}": float(v) for i, v in enumerate(rng.uniform(0.1, 5.0, size=30))}
    transformed = {k: np.log(v) * 3 + 1 for k, v in scores.items()}
    assert rank_scores(scores) == rank_scores(transformed)


def test_build_tables_modes():
    caps = MarketCapTable({("a", Q): 1.0, ("b", Q): 50.0})
    absolute, normalized = build_tables(Q, NEGATIVE, {"a": 1.0, "b": 3.0, "c": 2.0}, caps)
    assert absolute.mode == "absolute"
    assert absolute.scores == {"a": 0.0, "b": 1.0, "c": 0.5}
    assert absolute.ranks == {"b": 1, "c": 2, "a": 3}
    # b has the top absolute score but a tiny cap flips the normalized order
    assert normalized.scores == {"a": 0.0, "b": 0.02}
    assert normalized.ranks == {"b": 1, "a": 2}


def _table(quarter_index, ranks):
    return CentralityTable(Quarter(2012, quarter_index), NEGATIVE, "absolute", {}, ranks)


def test_average_rank_ordering_and_truncation():
    tables = [
        _table(1, {"a": 1, "b": 2, "c": 3}),
        _table(2, {"a": 2, "b": 1, "c": 3}),
        _table(3, {"b": 1, "c": 2}),  # a unscored this quarter
    ]
    entries = average_rank(tables, top_k=2)
    assert [(e.canonical_id, e.average_rank, e.quarters_scored) for e in entries] == [
        ("b", 4 / 3, 3),
        ("a", 1.5, 2),
    ]
    full = average_rank(tables, top_k=10)
    assert [e.canonical_id for e in full] == ["b", "a", "c"]


def test_average_rank_ties_break_by_id():
    tables = [_table(1, {"x": 1, "m": 2}), _table(2, {"x": 2, "m": 1})]
    entries = average_rank(tables, top_k=5)
    assert [e.canonical_id for e in entries] == ["m", "x"]


def test_kendall_tau_reference_points():
    a = {"a": 1, "b": 2, "c": 3, "d": 4}
    assert kendall_tau(a, a) == 1.0
    reversed_ranks = {k: 5 - v for k, v in a.items()}
    assert kendall_tau(a, reversed_ranks) == -1.0
    assert kendall_tau({"a": 1}, {"a": 1}) == 1.0
    assert kendall_tau({}, {}) == 1.0
    # one swapped adjacent pair out of 6: (5 - 1) / 6
    b = {"a": 1, "b": 2, "c": 4, "d": 3}
    assert kendall_tau(a, b) == pytest.approx(4 / 6)


def test_smoothing_level_barely_moves_fixture_ranks(planted_fixture):
    from dataclasses import replace

    from newsrisk.pipeline import PIPELINE, STAGE_ORDER

    from _oracles import FixtureStudy

    light = FixtureStudy(planted_fixture, alpha=0.1)
    rank = PIPELINE[STAGE_ORDER.index("rank")]
    heavy = {
        (t.quarter, t.polarity, t.mode): t
        for t in rank.compute(replace(light.config, alpha=1.0), light.values)["tables"]
    }
    taus = [
        kendall_tau(table.ranks, heavy[table.quarter, table.polarity, table.mode].ranks)
        for table in light.tables
        if table.mode == "absolute"
    ]
    assert len(taus) == 24  # 8 quarters x 3 polarities
    assert min(taus) > 0.6
    assert sum(taus) / len(taus) > 0.8
