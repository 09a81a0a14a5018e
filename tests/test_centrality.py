"""Information centrality against independent dense-inverse and exact
rational oracles, plus rescaling, normalization, ranking, and
rank-correlation units."""

import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from newsrisk import centrality
from newsrisk.centrality import (
    CentralityTable,
    average_rank,
    build_tables,
    information_centrality,
)
from newsrisk.errors import ConditioningError
from newsrisk.entities import OccurrenceSet
from newsrisk.fixtures import FixtureSpec, generate_fixture
from newsrisk.networks import NEGATIVE, SmoothedNetwork, build_networks, smooth
from newsrisk.quarters import Quarter

from _oracles import (
    DictNetwork,
    as_arrays,
    centrality_by_id,
    centrality_denominators,
    centrality_oracle,
    dense_centrality,
    dict_average_rank,
    dict_tables,
    exact_centrality,
    indefinite_network,
    kendall_tau,
    random_anchored_network,
    rank_scores,
    random_tied_occurrences,
    table_dicts,
    truth_networks,
)

Q = Quarter(2012, 3)


def uniform_network(nodes, edges, node_weight=2, edge_weight=1):
    """A hand-built single-polarity network with uniform weights."""
    nodes = tuple(sorted(nodes))
    return as_arrays(DictNetwork(
        quarter=Q,
        polarity=NEGATIVE,
        nodes=nodes,
        node_weights={n: node_weight for n in nodes},
        edge_weights={tuple(sorted(e)): edge_weight for e in edges},
        article_count=edge_weight * len(edges),
    ))


def raw_ranks(network, scores):
    """The ranks `build_tables` gives raw scores, by id; its min-max rescale
    is left out, so that scores one ulp apart keep their order."""
    return dict(zip(network.nodes, centrality._ranks(np.array(list(scores.values()))).tolist()))


def tables_of(raw, caps=None):
    """The absolute and normalized tables of raw scores by id, through
    `build_tables`, with the market caps by id in `caps`."""
    nodes = tuple(sorted(raw))
    network = SmoothedNetwork(Q, NEGATIVE, nodes, np.zeros(len(nodes)), 0.1, *NO_EDGES)
    caps = caps or {}
    return build_tables(
        network,
        np.array([raw[n] for n in nodes], dtype=float),
        np.array([caps.get(n, np.nan) for n in nodes], dtype=float),
    )


def spread(scores):
    values = list(scores.values())
    return max(values) - min(values)


def test_oracle_agreement_on_random_graphs():
    rng = np.random.default_rng(424242)
    for _ in range(40):
        network = random_anchored_network(rng)
        got = centrality_by_id(network)
        want = centrality_oracle(network)
        assert got.keys() == want.keys()
        for node in want:
            assert got[node] == pytest.approx(want[node], abs=1e-9, rel=1e-9)


def test_complete_graph_scores_are_uniform():
    nodes = [f"N{i}" for i in range(7)]
    edges = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    for alpha, w in ((0.1, 3), (1.0, 1)):
        net = smooth(uniform_network(nodes, edges, node_weight=4, edge_weight=w), alpha)
        scores = centrality_by_id(net)
        assert spread(scores) <= 1e-9
        oracle = centrality_oracle(net)
        for node in nodes:
            assert scores[node] == pytest.approx(oracle[node], abs=1e-9)


def test_cycle_scores_are_uniform():
    nodes = [f"C{i}" for i in range(8)]
    edges = [(nodes[i], nodes[(i + 1) % 8]) for i in range(8)]
    net = smooth(uniform_network(nodes, edges), alpha=1.0)
    scores = centrality_by_id(net)
    assert spread(scores) <= 1e-9


def test_petersen_scores_are_uniform():
    outer = [(f"P{i}", f"P{(i + 1) % 5}") for i in range(5)]
    inner = [(f"P{i + 5}", f"P{(i + 2) % 5 + 5}") for i in range(5)]
    spokes = [(f"P{i}", f"P{i + 5}") for i in range(5)]
    nodes = [f"P{i}" for i in range(10)]
    net = smooth(uniform_network(nodes, outer + inner + spokes, node_weight=3), alpha=1.0)
    scores = centrality_by_id(net)
    assert spread(scores) <= 1e-9
    oracle = centrality_oracle(net)
    for node in nodes:
        assert scores[node] == pytest.approx(oracle[node], abs=1e-9)


def test_path_middle_node_scores_highest():
    net = uniform_network(["a", "b", "c"], [("a", "b"), ("b", "c")])
    object.__setattr__(net, "node_weights", np.array([1, 2, 1]))
    scores = centrality_by_id(smooth(net, alpha=1.0))
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


def test_condition_cap_is_enforced(monkeypatch):
    rng = np.random.default_rng(7)
    network = random_anchored_network(rng)
    monkeypatch.setattr(centrality, "CONDITION_CAP", 1.0)
    with pytest.raises(ConditioningError, match="exceeds cap"):
        information_centrality(network)


NO_EDGES = (np.zeros((0, 2), dtype=np.intp), np.zeros(0))


def test_degenerate_sizes():
    empty = SmoothedNetwork(Q, NEGATIVE, (), np.zeros(0), 0.1, *NO_EDGES)
    assert information_centrality(empty).tolist() == []
    single = SmoothedNetwork(Q, NEGATIVE, ("solo",), np.ones(1), 0.1, *NO_EDGES)
    assert information_centrality(single).tolist() == [0.0]


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
def test_fixture_networks_match_the_dense_inverse(spec, monkeypatch):
    for network in truth_networks(generate_fixture(spec)):
        want, condition = dense_centrality(network)
        got = centrality_by_id(network)
        assert got.keys() == want.keys()
        for node in want:
            assert got[node] == pytest.approx(want[node], rel=1e-10, abs=0)
        # the condition number agrees with ||B||_1 * ||B^-1||_1 to 1e-12
        monkeypatch.setattr(centrality, "CONDITION_CAP", condition * (1 + 1e-12))
        information_centrality(network)
        monkeypatch.setattr(centrality, "CONDITION_CAP", condition * (1 - 1e-12))
        with pytest.raises(ConditioningError, match="exceeds cap"):
            information_centrality(network)
        monkeypatch.undo()


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
    ranks = raw_ranks(network, got)
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
        _assert_exact_order(network, centrality_by_id(network), exact)
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
            got = centrality_by_id(network)
            _assert_exact_order(network, got, exact)
            runs.append((network, exact, raw_ranks(network, got)))
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
    absolute, _ = tables_of({"a": 2.0, "b": 4.0, "c": 3.0})
    assert table_dicts(absolute)[0] == {"a": 0.0, "b": 1.0, "c": 0.5}
    assert table_dicts(tables_of({})[0])[0] == {}
    assert table_dicts(tables_of({"a": 5.0, "b": 5.0})[0])[0] == {"a": 0.0, "b": 0.0}


def test_normalized_scores_skip_missing_caps():
    _, normalized = tables_of({"a": 1.0, "b": 1.0, "c": 0.0}, {"a": 2.0, "b": 0.5})
    out, _ = table_dicts(normalized)
    assert out == {"a": 0.5, "b": 2.0}
    assert "c" not in out


def test_rank_scores_break_ties_by_id():
    absolute, _ = tables_of({"zed": 0.9, "amy": 0.9, "bob": 1.0, "cat": 0.1})
    _, ranks = table_dicts(absolute)
    assert ranks == {"bob": 1, "amy": 2, "zed": 3, "cat": 4}


def test_ranks_ignore_monotone_transforms():
    rng = np.random.default_rng(99)
    scores = {f"n{i}": float(v) for i, v in enumerate(rng.uniform(0.1, 5.0, size=30))}
    transformed = {k: np.log(v) * 3 + 1 for k, v in scores.items()}
    assert table_dicts(tables_of(scores)[0])[1] == table_dicts(tables_of(transformed)[0])[1]


def test_build_tables_modes():
    absolute, normalized = tables_of({"a": 1.0, "b": 3.0, "c": 2.0}, {"a": 1.0, "b": 50.0})
    assert absolute.mode == "absolute"
    assert table_dicts(absolute) == ({"a": 0.0, "b": 1.0, "c": 0.5}, {"b": 1, "c": 2, "a": 3})
    # b has the top absolute score but a tiny cap flips the normalized order
    assert table_dicts(normalized) == ({"a": 0.0, "b": 0.02}, {"b": 1, "a": 2})


TABLE_CASES = {
    "equal scores": (
        {"d": 2.0, "b": 2.0, "c": 1.0, "a": 2.0, "e": 3.0}, dict.fromkeys("abcde", 1.0)
    ),
    "zero signs": (
        {"a": 0.0, "b": -0.0, "c": 1.0, "d": -0.0, "e": 0.0},
        {"a": 2.0, "b": 1.0, "d": 4.0, "e": 0.5},
    ),
    "all equal": ({"b": 0.7, "a": 0.7, "c": 0.7}, {"a": 1.0, "c": 3.0}),
    "no cap": ({"a": 3.0, "b": 1.0, "c": 2.0, "d": 2.0}, {"a": 3.0, "c": 0.5, "d": 2.0}),
    "no caps at all": ({"b": 3.0, "a": 1.0}, {}),
    "single": ({"solo": 0.0}, {"solo": 1.0}),
    "empty": ({}, {}),
}


@pytest.mark.parametrize("raw, caps", TABLE_CASES.values(), ids=TABLE_CASES.keys())
def test_tables_match_the_dict_reference(raw, caps):
    """Both tables hold the dict reference's scores and ranks, ids in
    order, in arrays of the declared dtypes."""
    for table, (scores, ranks) in zip(tables_of(raw, caps), dict_tables(raw, caps)):
        assert table.ids.tolist() == sorted(scores)
        assert table_dicts(table) == (scores, ranks)
        assert table.scores.dtype == np.float64 and table.ranks.dtype == np.int64


def test_negative_zero_ties_with_zero():
    """-0.0 and 0.0 are one score, so their tie breaks by position (id), as
    `sorted` breaks it."""
    scores = dict(zip("abcde", (0.0, -0.0, 1.0, -0.0, 0.0)))
    ranks = centrality._ranks(np.array(list(scores.values())))
    assert ranks.tolist() == [2, 3, 1, 4, 5]
    assert dict(zip(scores, ranks.tolist())) == rank_scores(scores)


def test_fixture_tables_match_the_dict_reference(planted_fixture):
    """Every table of every network of a fixture, and the average ranks of
    each (polarity, mode), equal their dict references exactly."""
    caps = {}
    for (cid, label), cap in planted_fixture.marketcaps.items():
        caps.setdefault(label, {})[cid] = cap
    tables = []
    for network in truth_networks(planted_fixture):
        raw = information_centrality(network)
        quarter_caps = caps.get(network.quarter.label, {})
        caps_array = np.array([quarter_caps.get(n, np.nan) for n in network.nodes])
        pair = build_tables(network, raw, caps_array)
        reference = dict_tables(dict(zip(network.nodes, raw.tolist())), quarter_caps)
        assert [table_dicts(t) for t in pair] == list(reference)
        tables += pair
    assert any(len(t.ids) < len(planted_fixture.companies) for t in tables)  # a missing cap
    for polarity in ("positive", "negative", "mixed"):
        for mode in ("absolute", "normalized"):
            group = [t for t in tables if t.polarity == polarity and t.mode == mode]
            got = [astuple(e) for e in average_rank(group, top_k=30)]
            assert got == dict_average_rank([table_dicts(t)[1] for t in group], 30)


def _table(quarter_index, ranks):
    return CentralityTable(
        Quarter(2012, quarter_index), NEGATIVE, "absolute", np.array(list(ranks), dtype=object),
        np.zeros(len(ranks)), np.array(list(ranks.values()), dtype=np.int64),
    )


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
        kendall_tau(
            table_dicts(table)[1],
            table_dicts(heavy[table.quarter, table.polarity, table.mode])[1],
        )
        for table in light.tables
        if table.mode == "absolute"
    ]
    assert len(taus) == 24  # 8 quarters x 3 polarities
    assert min(taus) > 0.6
    assert sum(taus) / len(taus) > 0.8
