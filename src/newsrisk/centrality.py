"""Information centrality, market-cap normalization, and rankings.

Centrality follows the information-centrality (current-flow) construction:
build the dense matrix B with B(i,i) = 1 + S_hat(i) and B(i,j) = 1 - w_hat(i,j),
invert it, and score node i as

    I(i) = n / (n*C(i,i) + trace(C) - 2 * rowsum_i(C)),   C = B^-1.

Edge and node weights are rescaled to [0,1] first (w_hat = w'/max w',
S_hat = S/max S) so that off-diagonal entries stay in [0,1] no matter how
large raw co-mention counts get; without this B can become indefinite.

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

#: Reject inversions whose 1-norm condition estimate exceeds this.
CONDITION_CAP = 1e12


@dataclass(frozen=True)
class CentralityTable:
    """Scores and ranks for one (quarter, polarity, mode)."""

    quarter: Quarter
    polarity: str
    mode: str
    scores: Mapping[str, float]
    ranks: Mapping[str, int]


def information_centrality(
    network: SmoothedNetwork, condition_cap: float = CONDITION_CAP
) -> dict[str, float]:
    """Centrality per node of a smoothed complete network.

    Raises ConditioningError, naming the quarter and polarity, when the
    matrix is singular or its condition estimate exceeds the cap.
    """
    nodes = network.nodes
    n = len(nodes)
    context = f"{network.quarter.label}/{network.polarity}"
    if n == 0:
        return {}
    if n == 1:
        log.warning("single-node network %s: centrality undefined, scoring 0", context)
        return {nodes[0]: 0.0}

    weights = network.weights
    w_max = float(weights.max())
    if w_max <= 0:
        raise ConditioningError(f"{context}: no positive pair weights")
    w_hat = weights / w_max
    s_max = float(network.node_weights.max())
    s_hat = network.node_weights / s_max if s_max > 0 else np.zeros(n)

    b = 1.0 - w_hat
    np.fill_diagonal(b, 1.0 + s_hat)
    try:
        c = np.linalg.inv(b)
    except np.linalg.LinAlgError:
        raise ConditioningError(f"{context}: centrality matrix is singular") from None
    condition = np.linalg.norm(b, 1) * np.linalg.norm(c, 1)
    if not np.isfinite(condition) or condition > condition_cap:
        raise ConditioningError(
            f"{context}: condition estimate {condition:.3e} exceeds cap {condition_cap:.0e}"
        )

    diag = np.diag(c)
    trace = float(diag.sum())
    row_sums = c.sum(axis=1)
    denom = n * diag + trace - 2.0 * row_sums
    if not np.all(np.isfinite(denom)) or np.any(denom <= 0):
        raise ConditioningError(f"{context}: non-positive centrality denominator")
    scores = n / denom
    return {node: float(scores[i]) for i, node in enumerate(nodes)}


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

