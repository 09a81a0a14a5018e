"""Quarterly company co-occurrence networks.

Per quarter, three undirected weighted networks are built from the article
mention sets: one from positive articles, one from negative articles, and a
mixed network from all articles (elementwise the sum of the other two). The
node set is always the full entity universe, so isolated companies are
retained. Node weight S(i) counts articles mentioning i; edge weight w(i,j)
counts articles mentioning both i and j.

A network is held as arrays over its sorted node tuple: S for every node,
and the position pairs and counts of the co-mentioned pairs, in sorted pair
order. Positions follow canonical_id order, so every later stage that walks
the arrays in order walks the ids in order.

Smoothing adds a constant alpha to every unordered pair, producing a
complete real-weighted graph (node weights untouched) so that downstream
matrix computations are well-defined even for sparse quarters. The smoothed
graph is held as alpha plus the sparse co-mention counts, over the same
arrays; nothing stores its n^2 pair weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .entities import OccurrenceSet
from .errors import ValidationError
from .quarters import Quarter

POSITIVE = "positive"
NEGATIVE = "negative"
MIXED = "mixed"
NETWORK_KINDS = (POSITIVE, NEGATIVE, MIXED)


@dataclass(frozen=True, eq=False)
class QuarterNetwork:
    """One polarity's co-occurrence network for one quarter, as arrays over
    `nodes`, the whole universe in sorted order.

    `node_weights[i]` is S(nodes[i]), zero for a company no article names.
    Row e of `edge_index` holds the positions (i < j) of a co-mentioned
    pair, rows in sorted pair order, and `edge_weights[e]` its count w(i, j).
    """

    quarter: Quarter
    polarity: str
    nodes: tuple[str, ...]
    node_weights: np.ndarray
    edge_index: np.ndarray
    edge_weights: np.ndarray
    article_count: int

    def adjacency(self) -> dict[str, dict[str, int]]:
        """Positive-weight neighbor map (absent nodes are isolated), filled
        in sorted pair order."""
        adj: dict[str, dict[str, int]] = {}
        for (a, b), w in zip(self.edge_index.tolist(), self.edge_weights.tolist()):
            i, j = self.nodes[a], self.nodes[b]
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
    Each polarity's mentions are counted by one `np.bincount`, and its pairs,
    coded i * n + j, by one `np.unique`, which sorts them.
    """
    nodes = tuple(sorted(universe_ids))
    n = len(nodes)
    position = {node: k for k, node in enumerate(nodes)}
    mentions: dict[str, list[int]] = {k: [] for k in NETWORK_KINDS}
    pairs: dict[str, list[int]] = {k: [] for k in NETWORK_KINDS}
    counts = dict.fromkeys(NETWORK_KINDS, 0)

    for occ in occurrences:
        if occ.quarter != quarter:
            raise ValidationError(
                f"article {occ.article_id!r} belongs to {occ.quarter}, not {quarter}"
            )
        if occ.polarity not in (POSITIVE, NEGATIVE):
            raise ValidationError(
                f"article {occ.article_id!r} has polarity {occ.polarity!r}"
            )
        unknown = occ.companies.difference(position)
        if unknown:
            raise ValidationError(
                f"article {occ.article_id!r} mentions companies outside the "
                f"universe: {sorted(unknown)}"
            )
        mentioned = sorted(position[c] for c in occ.companies)
        codes = [i * n + j for i, j in combinations(mentioned, 2)]
        for kind in (occ.polarity, MIXED):
            counts[kind] += 1
            mentions[kind] += mentioned
            pairs[kind] += codes

    networks = {}
    for kind in NETWORK_KINDS:
        codes, weights = np.unique(np.array(pairs[kind], dtype=np.int64), return_counts=True)
        networks[kind] = QuarterNetwork(
            quarter=quarter,
            polarity=kind,
            nodes=nodes,
            node_weights=np.bincount(np.array(mentions[kind], dtype=np.intp), minlength=n),
            edge_index=np.stack(np.divmod(codes, n), axis=1),
            edge_weights=weights,
            article_count=counts[kind],
        )
    return networks


def smooth(network: QuarterNetwork, alpha: float) -> SmoothedNetwork:
    """Additive smoothing over every unordered node pair: alpha and the
    weights as floats, over the network's own arrays."""
    if not alpha > 0:
        raise ValidationError(f"smoothing alpha must be positive, got {alpha}")
    return SmoothedNetwork(
        quarter=network.quarter,
        polarity=network.polarity,
        nodes=network.nodes,
        node_weights=network.node_weights.astype(float),
        alpha=float(alpha),
        edge_index=network.edge_index,
        edge_counts=network.edge_weights.astype(float),
    )


def network_stats(network: QuarterNetwork) -> dict:
    """Degree summary over the full node set (isolated nodes included)."""
    n = len(network.nodes)
    n_edges = len(network.edge_weights)
    degree = np.bincount(network.edge_index.ravel(), minlength=n)
    return {
        "quarter": network.quarter.label,
        "polarity": network.polarity,
        "n_nodes": n,
        "n_edges": n_edges,
        "article_count": network.article_count,
        "avg_edges_per_node": (2.0 * n_edges / n) if n else 0.0,
        "max_degree": int(degree.max()) if n_edges else 0,
        # argmax takes the first, and so the smallest id, of the largest degree
        "max_degree_node": network.nodes[int(degree.argmax())] if n_edges else None,
    }
