"""Quarterly company co-occurrence networks.

Per quarter, three undirected weighted networks are built from the article
mention sets: one from positive articles, one from negative articles, and a
mixed network from all articles (elementwise the sum of the other two). The
node set is always the full entity universe, so isolated companies are
retained. Node weight S(i) counts articles mentioning i; edge weight w(i,j)
counts articles mentioning both i and j.

Smoothing adds a constant alpha to every unordered pair, producing a
complete real-weighted graph (node weights untouched) so that downstream
matrix computations are well-defined even for sparse quarters. The smoothed
graph is held as alpha plus the sparse co-mention counts; nothing stores its
n^2 pair weights.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .entities import OccurrenceSet
from .errors import ValidationError
from .quarters import Quarter

log = logging.getLogger(__name__)

POSITIVE = "positive"
NEGATIVE = "negative"
MIXED = "mixed"
NETWORK_KINDS = (POSITIVE, NEGATIVE, MIXED)


@dataclass(frozen=True)
class QuarterNetwork:
    """One polarity's co-occurrence network for one quarter.

    node_weights and edge_weights store only nonzero entries; `nodes` is the
    full universe. Edge keys are lexicographically sorted id pairs.
    """

    quarter: Quarter
    polarity: str
    nodes: tuple[str, ...]
    node_weights: Mapping[str, int]
    edge_weights: Mapping[tuple[str, str], int]
    article_count: int

    def weight(self, i: str) -> int:
        return self.node_weights.get(i, 0)

    def adjacency(self) -> dict[str, dict[str, int]]:
        """Positive-weight neighbor map (absent nodes are isolated)."""
        adj: dict[str, dict[str, int]] = {}
        for (i, j), w in self.edge_weights.items():
            adj.setdefault(i, {})[j] = w
            adj.setdefault(j, {})[i] = w
        return adj


@dataclass(frozen=True)
class SmoothedNetwork:
    """Complete graph after additive smoothing, aligned with `nodes`.

    Every unordered pair weighs alpha plus its co-mention count. Only the
    pairs with a count are stored: row e of `edge_index` holds the positions
    (i < j) of pair e in `nodes`, and `edge_counts[e]` its raw count.
    """

    quarter: Quarter
    polarity: str
    nodes: tuple[str, ...]
    node_weights: np.ndarray
    alpha: float
    edge_index: np.ndarray
    edge_counts: np.ndarray


def build_networks(
    occurrences: Iterable[OccurrenceSet],
    quarter: Quarter,
    universe_ids: Sequence[str],
) -> dict[str, QuarterNetwork]:
    """The positive, negative, and mixed networks for one quarter.

    Every article increments S(i) for each company it mentions and w(i, j)
    for each unordered pair; single-company articles contribute node weight
    only. Articles mentioning nothing still count toward article totals.
    """
    nodes = tuple(sorted(universe_ids))
    node_set = set(nodes)
    s: dict[str, dict[str, int]] = {k: {} for k in NETWORK_KINDS}
    w: dict[str, dict[tuple[str, str], int]] = {k: {} for k in NETWORK_KINDS}
    counts = {k: 0 for k in NETWORK_KINDS}

    for occ in occurrences:
        if occ.quarter != quarter:
            raise ValidationError(
                f"article {occ.article_id!r} belongs to {occ.quarter}, not {quarter}"
            )
        if occ.polarity not in (POSITIVE, NEGATIVE):
            raise ValidationError(
                f"article {occ.article_id!r} has polarity {occ.polarity!r}"
            )
        unknown = occ.companies - node_set
        if unknown:
            raise ValidationError(
                f"article {occ.article_id!r} mentions companies outside the "
                f"universe: {sorted(unknown)}"
            )
        for kind in (occ.polarity, MIXED):
            counts[kind] += 1
            mentioned = sorted(occ.companies)
            for i in mentioned:
                s[kind][i] = s[kind].get(i, 0) + 1
            for a_idx in range(len(mentioned)):
                for b_idx in range(a_idx + 1, len(mentioned)):
                    key = (mentioned[a_idx], mentioned[b_idx])
                    w[kind][key] = w[kind].get(key, 0) + 1

    return {
        kind: QuarterNetwork(
            quarter=quarter,
            polarity=kind,
            nodes=nodes,
            node_weights=dict(sorted(s[kind].items())),
            edge_weights=dict(sorted(w[kind].items())),
            article_count=counts[kind],
        )
        for kind in NETWORK_KINDS
    }


def smooth(network: QuarterNetwork, alpha: float) -> SmoothedNetwork:
    """Additive smoothing over every unordered node pair."""
    if not alpha > 0:
        raise ValidationError(f"smoothing alpha must be positive, got {alpha}")
    nodes = network.nodes
    index = {node: i for i, node in enumerate(nodes)}
    pairs = network.edge_weights
    edge_index = np.array([(index[i], index[j]) for i, j in pairs], dtype=np.intp)
    return SmoothedNetwork(
        quarter=network.quarter,
        polarity=network.polarity,
        nodes=nodes,
        node_weights=np.array([float(network.weight(i)) for i in nodes]),
        alpha=float(alpha),
        edge_index=edge_index.reshape(len(pairs), 2),
        edge_counts=np.array(list(pairs.values()), dtype=float),
    )


def network_stats(network: QuarterNetwork) -> dict:
    """Degree summary over the full node set (isolated nodes included)."""
    n = len(network.nodes)
    n_edges = len(network.edge_weights)
    degree: dict[str, int] = {}
    for i, j in network.edge_weights:
        degree[i] = degree.get(i, 0) + 1
        degree[j] = degree.get(j, 0) + 1
    if degree:
        max_degree = max(degree.values())
        max_degree_node = min(d for d in degree if degree[d] == max_degree)
    else:
        max_degree = 0
        max_degree_node = None
    return {
        "quarter": network.quarter.label,
        "polarity": network.polarity,
        "n_nodes": n,
        "n_edges": n_edges,
        "article_count": network.article_count,
        "avg_edges_per_node": (2.0 * n_edges / n) if n else 0.0,
        "max_degree": max_degree,
        "max_degree_node": max_degree_node,
    }
