"""Information centrality, market-cap normalization, and rankings.

Centrality follows the information-centrality (current-flow) construction on
the smoothed complete network: B(i,i) = 1 + S_hat(i), B(i,j) = 1 - w_hat(i,j),
and node i scores

    I(i) = n / (n*C(i,i) + trace(C) - 2 * rowsum_i(C)),   C = B^-1.

Edge and node weights are rescaled to [0,1] first (w_hat = w'/max w',
S_hat = S/max S) so that off-diagonal entries stay in [0,1] no matter how
large raw co-mention counts get.

B is never built. With w_max = alpha + the largest co-mention count,
c0 = 1 - alpha/w_max and E the raw counts, smoothing makes B a diagonal plus
a rank-(k+1) update, where K is the set of k companies that have an edge:

    B = D + U M U^T,  D = diag(S_hat + alpha/w_max),  U = [1 | e_K],
    M = blockdiag(c0, -E_KK / w_max).

The Sherman-Morrison-Woodbury identity (Hager 1989, "Updating the inverse of
a matrix") gives C = D^-1 - D^-1 U Z U^T D^-1 with Z = (I + M U^T D^-1 U)^-1 M,
so diag(C), C*1 and the denominators cost O(n*k + k^3) and no n x n array
exists. Only D and the (k+1)^2 capacitance matrix I + M U^T D^-1 U are
solved; its determinant is det(B)/det(D), so it is singular exactly when B
is. The condition cap applies to the exact 1-norm condition number
||B||_1 * ||C||_1, both norms computed from the structured form.

Companies without an edge that share S_hat are exchangeable, and their
scores are computed by the same floating-point operations from the same
inputs, so they come out bit-equal; their order is then decided by the
canonical_id tie-break alone. Exact ties among companies that have an edge
may differ in the last bits, because the capacitance solve pivots.

Scores are then min-max rescaled to [0,1] within the quarter ("absolute"
mode) and optionally divided by quarter-end market cap in USD billions
("normalized" mode — small companies with high news flow rank higher).
Ranks are dense 1..n with 1 = highest score; ties break lexicographically
by canonical_id so results never depend on iteration order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .corpus import MarketCapTable
from .errors import ConditioningError
from .networks import SmoothedNetwork
from .quarters import Quarter

log = logging.getLogger(__name__)

ABSOLUTE = "absolute"
NORMALIZED = "normalized"

#: Reject networks whose 1-norm condition number exceeds this.
CONDITION_CAP = 1e12


@dataclass(frozen=True)
class CentralityTable:
    """Scores and ranks for one (quarter, polarity, mode)."""

    quarter: Quarter
    polarity: str
    mode: str
    scores: Mapping[str, float]
    ranks: Mapping[str, int]


def information_centrality(network: SmoothedNetwork) -> dict[str, float]:
    """Centrality per node of a smoothed complete network.

    Raises ConditioningError, naming the quarter and polarity, when the
    matrix is singular, its condition number exceeds the cap, or a
    denominator is not positive.
    """
    nodes = network.nodes
    n = len(nodes)
    context = f"{network.quarter.label}/{network.polarity}"
    if n == 0:
        return {}
    if n == 1:
        log.warning("single-node network %s: centrality undefined, scoring 0", context)
        return {nodes[0]: 0.0}

    edges, counts = network.edge_index, network.edge_counts
    w_max = network.alpha + (float(counts.max()) if len(counts) else 0.0)
    if w_max <= 0:
        raise ConditioningError(f"{context}: no positive pair weights")
    s_max = float(network.node_weights.max())
    s_hat = network.node_weights / s_max if s_max > 0 else np.zeros(n)
    a = network.alpha / w_max
    c0 = 1.0 - a
    inv_d = 1.0 / (s_hat + a)

    # Capacitance I + M G with G = U^T D^-1 U. Index 0 is the all-ones
    # direction and index slot[i] the edge-holding node i; column 0 of G is
    # g0 below, column slot[i] is inv_d[i] * (e_0 + e_slot[i]).
    has_edge = np.zeros(n, dtype=bool)
    has_edge[edges.ravel()] = True
    slot = np.cumsum(has_edge)
    inv_dk = inv_d[has_edge]
    k = len(inv_dk)
    m = np.zeros((k + 1, k + 1))
    m[0, 0] = c0
    i, j = slot[edges[:, 0]], slot[edges[:, 1]]
    m[i, j] = m[j, i] = -counts / w_max
    g0 = np.concatenate(([inv_d.sum()], inv_dk))
    cap = np.empty_like(m)
    cap[:, 0] = m @ g0
    np.multiply(m[:, 1:] + m[:, :1], inv_dk, out=cap[:, 1:])
    cap[np.diag_indices(k + 1)] += 1.0
    try:
        z = np.linalg.solve(cap, m)
    except np.linalg.LinAlgError:
        raise ConditioningError(f"{context}: centrality matrix is singular") from None

    # Row i of D^-1 U is inv_d[i] * (e_0 + e_slot[i]) on K, inv_d[i] * e_0 off it.
    diag = inv_d - z[0, 0] * inv_d * inv_d
    diag[has_edge] -= (z[0, 1:] + z[1:, 0] + np.diagonal(z)[1:]) * inv_dk * inv_dk
    v = z @ g0
    row_sums = inv_d * (1.0 - v[0])
    row_sums[has_edge] -= inv_dk * v[1:]

    condition = _norm1_b(network, s_hat, c0, w_max) * _norm1_c(inv_d, has_edge, z)
    if not np.isfinite(condition) or condition > CONDITION_CAP:
        raise ConditioningError(
            f"{context}: condition number {condition:.3e} exceeds cap {CONDITION_CAP:.0e}"
        )

    denom = n * diag + diag.sum() - 2.0 * row_sums
    if not np.all(np.isfinite(denom)) or np.any(denom <= 0):
        raise ConditioningError(f"{context}: non-positive centrality denominator")
    scores = n / denom
    return dict(zip(nodes, scores.tolist()))


def _norm1_b(network: SmoothedNetwork, s_hat: np.ndarray, c0: float, w_max: float) -> float:
    """||B||_1 in O(n + edges): column j holds 1 + S_hat(j), c0 - E(i,j)/w_max
    for each neighbour i and c0 for every other node."""
    n = len(s_hat)
    ends = network.edge_index.ravel()
    degree = np.bincount(ends, minlength=n)
    on_edges = np.repeat(np.abs(c0 - network.edge_counts / w_max), 2)
    columns = np.abs(1.0 + s_hat) + (n - 1 - degree) * abs(c0)
    return float((columns + np.bincount(ends, weights=on_edges, minlength=n)).max())


def _norm1_c(inv_d: np.ndarray, has_edge: np.ndarray, z: np.ndarray) -> float:
    """||C||_1 in O(n + k^2), with C = D^-1 - Y Z Y^T and Y = D^-1 U.

    Column j off K is (e_j - h) / d_j for the shared h = Y Z e_0. Column j
    on K is (e_j - Y w) / d_j with w = Z (e_0 + e_slot[j]): every node off K
    gets w_0 / d_i in it, so those entries sum through one scalar.
    """
    inv_dk = inv_d[has_edge]
    h = z[0, 0] * inv_d
    h[has_edge] += z[1:, 0] * inv_dk
    abs_h = np.abs(h)
    columns = (np.abs(1.0 - h) + (abs_h.sum() - abs_h)) * inv_d

    # t[q, p]: entry of on-K column p at on-K row q, minus 1 on the diagonal
    w0 = z[0, 0] + z[0, 1:]
    t = z[1:, 1:] + z[1:, :1]
    t += w0
    t *= inv_dk[:, None]
    t[np.diag_indices_from(t)] -= 1.0
    np.abs(t, out=t)
    columns[has_edge] = (np.abs(w0) * inv_d[~has_edge].sum() + t.sum(axis=0)) * inv_dk
    return float(columns.max())


def minmax_rescale(scores: Mapping[str, float]) -> dict[str, float]:
    """Linear rescale to [0,1]; identical inputs collapse to 0 with a warning."""
    if not scores:
        return {}
    values = scores.values()
    lo, hi = min(values), max(values)
    if hi == lo:
        log.warning("degenerate rescale: all %d scores identical (%g)", len(scores), lo)
        return {k: 0.0 for k in scores}
    span = hi - lo
    return {k: (v - lo) / span for k, v in scores.items()}


def normalized_scores(
    rescaled: Mapping[str, float], caps: MarketCapTable, quarter: Quarter
) -> dict[str, float]:
    """Rescaled score divided by quarter-end market cap (USD billions).

    Companies lacking a cap that quarter are excluded, not scored as zero.
    """
    out: dict[str, float] = {}
    missing = 0
    for cid, score in rescaled.items():
        cap = caps.get(cid, quarter)
        if cap is None:
            missing += 1
            continue
        out[cid] = score / cap
    if missing:
        log.info(
            "normalization %s: excluded %d companies without market cap",
            quarter.label,
            missing,
        )
    return out


def rank_scores(scores: Mapping[str, float]) -> dict[str, int]:
    """Ranks 1..n, 1 = highest score, ties by canonical_id order."""
    ordered = sorted(scores, key=lambda cid: (-scores[cid], cid))
    return {cid: rank for rank, cid in enumerate(ordered, start=1)}


def build_tables(
    quarter: Quarter,
    polarity: str,
    raw: Mapping[str, float],
    caps: MarketCapTable,
) -> tuple[CentralityTable, CentralityTable]:
    """Absolute and normalized tables from raw centrality scores."""
    rescaled = minmax_rescale(raw)
    absolute = CentralityTable(
        quarter=quarter,
        polarity=polarity,
        mode=ABSOLUTE,
        scores=rescaled,
        ranks=rank_scores(rescaled),
    )
    norm = normalized_scores(rescaled, caps, quarter)
    normalized = CentralityTable(
        quarter=quarter,
        polarity=polarity,
        mode=NORMALIZED,
        scores=norm,
        ranks=rank_scores(norm),
    )
    return absolute, normalized


@dataclass(frozen=True)
class RankEntry:
    canonical_id: str
    average_rank: float
    quarters_scored: int


def average_rank(tables: Iterable[CentralityTable], top_k: int) -> list[RankEntry]:
    """Companies ordered by mean per-quarter rank (over quarters scored),
    ascending, truncated to top_k. Ties break by canonical_id."""
    totals: dict[str, list[int]] = {}
    for table in tables:
        for cid, rank in table.ranks.items():
            totals.setdefault(cid, []).append(rank)
    entries = [
        RankEntry(cid, sum(ranks) / len(ranks), len(ranks))
        for cid, ranks in totals.items()
    ]
    entries.sort(key=lambda e: (e.average_rank, e.canonical_id))
    return entries[:top_k]

