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

Scores, tables and ranks are arrays aligned with the network's sorted
nodes, whose positions follow canonical_id order: a stable sort of the
scores breaks their ties by id, and the average rank over quarters is a
sum of integer ranks per id.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConditioningError
from .networks import SmoothedNetwork
from .quarters import Quarter

log = logging.getLogger(__name__)

ABSOLUTE = "absolute"
NORMALIZED = "normalized"

#: Reject networks whose 1-norm condition number exceeds this.
CONDITION_CAP = 1e12


@dataclass(frozen=True, eq=False)
class CentralityTable:
    """Scores and ranks for one (quarter, polarity, mode): `scores[i]` and
    `ranks[i]` are those of company `ids[i]`, ids in canonical_id order."""

    quarter: Quarter
    polarity: str
    mode: str
    ids: np.ndarray
    scores: np.ndarray
    ranks: np.ndarray


def information_centrality(network: SmoothedNetwork) -> np.ndarray:
    """Centrality of each node of a smoothed complete network, aligned with
    `network.nodes`.

    Raises ConditioningError, naming the quarter and polarity, when the
    matrix is singular, its condition number exceeds the cap, or a
    denominator is not positive.
    """
    n = len(network.nodes)
    context = f"{network.quarter.label}/{network.polarity}"
    if n <= 1:
        if n:
            log.warning("single-node network %s: centrality undefined, scoring 0", context)
        return np.zeros(n)

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
    return n / denom


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


def _ranks(scores: np.ndarray) -> np.ndarray:
    """Ranks 1..n, 1 = highest score. A stable sort keeps tied scores, and
    -0.0 against 0.0, in position order, which is canonical_id order."""
    ranks = np.empty(len(scores), dtype=np.int64)
    ranks[np.argsort(-scores, kind="stable")] = np.arange(1, len(scores) + 1)
    return ranks


def build_tables(
    network: SmoothedNetwork, raw: np.ndarray, caps: np.ndarray
) -> tuple[CentralityTable, CentralityTable]:
    """Absolute and normalized tables from the raw scores of `network`'s
    nodes; `caps[i]` is the quarter-end market cap of `nodes[i]` in USD
    billions, NaN when there is none.

    The absolute scores are min-max rescaled to [0,1]; identical inputs
    collapse to 0 with a warning. The normalized scores divide them by the
    cap, and companies lacking one are excluded, not scored as zero.
    """
    ids = np.array(network.nodes, dtype=object)
    lo, hi = (raw.min(), raw.max()) if len(raw) else (0.0, 1.0)  # an empty table scales nothing
    if hi == lo:
        log.warning("degenerate rescale: all %d scores identical (%g)", len(raw), lo)
        rescaled = np.zeros(len(raw))
    else:
        rescaled = (raw - lo) / (hi - lo)
    held = ~np.isnan(caps)
    if not held.all():
        log.info("normalization %s: excluded %d companies without market cap",
                 network.quarter.label, np.count_nonzero(~held))
    normalized = rescaled[held] / caps[held]
    quarter, polarity = network.quarter, network.polarity
    return (
        CentralityTable(quarter, polarity, ABSOLUTE, ids, rescaled, _ranks(rescaled)),
        CentralityTable(quarter, polarity, NORMALIZED, ids[held], normalized, _ranks(normalized)),
    )


@dataclass(frozen=True, slots=True)
class RankEntry:
    canonical_id: str
    average_rank: float
    quarters_scored: int


def average_rank(tables: Iterable[CentralityTable], top_k: int) -> list[RankEntry]:
    """Companies ordered by mean per-quarter rank (over quarters scored),
    ascending, truncated to top_k. Ties break by canonical_id."""
    tables = list(tables)
    if not tables:
        return []
    ids, codes = np.unique(np.concatenate([t.ids for t in tables]), return_inverse=True)
    counts = np.bincount(codes, minlength=len(ids))
    means = np.bincount(codes, np.concatenate([t.ranks for t in tables]), len(ids)) / counts
    # np.unique sorts the ids, so a stable sort breaks tied means by id
    order = np.argsort(means, kind="stable")[:top_k].tolist()
    return [RankEntry(ids[k], float(means[k]), int(counts[k])) for k in order]
