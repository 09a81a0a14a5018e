"""Sentiment-weighted contagion risk scores over the quarterly mixed network.

For a company k, the quarter's unsmoothed mixed network induces a player set:
k itself, its one-hop neighbors D(k), and the two-hop nodes J(k) reachable
through D(k). Co-mention weights split a unit of influence into weights
phi that sum to exactly 1:

    phi_k = 1 - lambda
    J(k) empty:  phi_i = lambda * w(k,i)/W_k
    otherwise:   phi_i = lambda*(1-mu) * w(k,i)/W_k
                 phi_j = lambda*mu * rho_j / sum(rho),  where the path mass
                 rho_j = sum over i in D(k) of
                     (w(k,i)/W_k) * (w(i,j) / sum of w(i,j') over
                                     j' in J(k) intersect D(i))

Pairs of non-central players joined by a real edge interact with strength
I(i,j) = 2*theta*phi_i*phi_j. A player's risk input x in [0,1] is its
relative negative-news sentiment, the negative share of the articles that
name it: S(i) in the quarter's negative network over S(i) in its mixed
network, and 0 for a company no article names. The aggregate is

    rr_own      = phi_k * x_k
    rr_direct   = sum over p != k of (phi_p - 1/2 sum_q I(p,q)) * x_p
    rr_indirect = sum over edges {p,q} of I(p,q) * min(x_p, x_q)
    rr_total    = rr_own + rr_direct + rr_indirect

which is a two-additive Choquet aggregation with a normalized capacity, so
rr_total lands in [0,1] by construction — never by clipping.

The quarter's unsmoothed networks are thus all that this stage reads of the
news. Smoothed networks are deliberately not used here: smoothing exists
only to make the centrality matrices invertible, and contagion across
fictitious alpha-edges would be spurious.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from datetime import date
from typing import Mapping, Sequence

from .centrality import RankEntry
from .errors import ValidationError
from .networks import MIXED, NEGATIVE, QuarterNetwork
from .quarters import Quarter

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RiskCalibration:
    """Weight split of the influence unit.

    lam: share given to the network (0 = own sentiment only); must be < 1.
    mu: share of the network part given to two-hop players.
    theta: interaction strength between connected non-central players.
    """

    lam: float = 0.5
    mu: float = 0.5
    theta: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.lam < 1.0):
            raise ValidationError(f"lambda must be in [0, 1), got {self.lam}")
        if not (0.0 <= self.mu <= 1.0):
            raise ValidationError(f"mu must be in [0, 1], got {self.mu}")
        if not (0.0 <= self.theta <= 1.0):
            raise ValidationError(f"theta must be in [0, 1], got {self.theta}")


@dataclass(frozen=True, slots=True)
class PlayerSet:
    """Influence weights around one central company."""

    center: str
    players: tuple[str, ...]
    phi: Mapping[str, float]
    interactions: Mapping[tuple[str, str], float]


@dataclass(frozen=True, slots=True)
class RiskDatapoint:
    canonical_id: str
    quarter: Quarter
    x_own: float
    rr_own: float
    rr_direct: float
    rr_indirect: float
    rr_total: float
    #: Set by the backtest: the last trading day of the quarter and its close.
    measurement_date: date | None = None
    close: float | None = None


def select_universe(
    absolute_top: Sequence[RankEntry],
    normalized_top: Sequence[RankEntry],
    top_k: int,
) -> tuple[str, ...]:
    """Union of the two top-k average-rank lists, sorted by canonical_id."""
    for name, entries in (("absolute", absolute_top), ("normalized", normalized_top)):
        if len(entries) < top_k:
            log.warning(
                "%s ranking has only %d companies (requested top %d); using all",
                name,
                len(entries),
                top_k,
            )
    union = {e.canonical_id for e in absolute_top} | {
        e.canonical_id for e in normalized_top
    }
    return tuple(sorted(union))


def build_players(
    adjacency: Mapping[str, Mapping[str, int]],
    center: str,
    calibration: RiskCalibration,
) -> PlayerSet:
    """Player set, influence weights, and pair interactions around `center`,
    walking `adjacency`, the neighbor map of an unsmoothed mixed network."""
    lam, mu, theta = calibration.lam, calibration.mu, calibration.theta

    direct = adjacency.get(center, {})
    if not direct:
        return PlayerSet(center, (center,), {center: 1.0}, {})

    d_nodes = sorted(direct)
    w_total = sum(direct.values())
    d_set = set(d_nodes)

    two_hop: set[str] = set()
    for i in d_nodes:
        for j in adjacency.get(i, {}):
            if j != center and j not in d_set:
                two_hop.add(j)
    j_nodes = sorted(two_hop)

    phi: dict[str, float] = {center: 1.0 - lam}
    if not j_nodes:
        for i in d_nodes:
            phi[i] = lam * direct[i] / w_total
    else:
        for i in d_nodes:
            phi[i] = lam * (1.0 - mu) * direct[i] / w_total
        rho: dict[str, float] = {j: 0.0 for j in j_nodes}
        for i in d_nodes:
            reach = {j: w for j, w in adjacency.get(i, {}).items() if j in two_hop}
            if not reach:
                continue
            reach_total = sum(reach.values())
            gate = direct[i] / w_total
            for j, w in reach.items():
                rho[j] += gate * (w / reach_total)
        rho_total = math.fsum(rho.values())
        for j in j_nodes:
            phi[j] = lam * mu * rho[j] / rho_total

    players = (center, *d_nodes, *j_nodes)
    interactions: dict[tuple[str, str], float] = {}
    others = sorted(d_nodes + j_nodes)
    for a_idx in range(len(others)):
        for b_idx in range(a_idx + 1, len(others)):
            a, b = others[a_idx], others[b_idx]
            if adjacency.get(a, {}).get(b, 0) > 0:
                value = 2.0 * theta * phi[a] * phi[b]
                if value != 0.0:
                    interactions[(a, b)] = value
    return PlayerSet(center, players, phi, interactions)


def riskrank_node(
    players: PlayerSet, x: Mapping[str, float]
) -> tuple[float, float, float, float]:
    """(rr_own, rr_direct, rr_indirect, rr_total) for one player set.

    x maps every player to its risk input in [0,1]; missing players are an
    error so silent zero-filling cannot mask upstream bugs.
    """
    for p in players.players:
        if p not in x:
            raise ValidationError(f"missing risk input for player {p!r}")
        if not (0.0 <= x[p] <= 1.0):
            raise ValidationError(f"risk input for {p!r} outside [0,1]: {x[p]}")

    pair_sum: dict[str, float] = {p: 0.0 for p in players.players}
    for (a, b), value in players.interactions.items():
        pair_sum[a] += value
        pair_sum[b] += value

    center = players.center
    rr_own = players.phi[center] * x[center]
    rr_direct = math.fsum(
        (players.phi[p] - 0.5 * pair_sum[p]) * x[p]
        for p in players.players
        if p != center
    )
    rr_indirect = math.fsum(
        value * min(x[a], x[b]) for (a, b), value in players.interactions.items()
    )
    rr_total = math.fsum((rr_own, rr_direct, rr_indirect))
    return rr_own, rr_direct, rr_indirect, rr_total


def riskrank_quarter(
    networks: Mapping[str, QuarterNetwork],
    subset: Sequence[str],
    calibration: RiskCalibration,
) -> list[RiskDatapoint]:
    """One datapoint per subset company with news this quarter, over the
    quarter's networks by polarity, as `build_networks` returns them.

    Neighbors and two-hop players outside the subset still participate;
    players that had no news at all enter with x = 0.
    """
    mixed = networks[MIXED]
    quarter = mixed.quarter
    s_mixed = mixed.node_weights.tolist()
    s_negative = networks[NEGATIVE].node_weights.tolist()
    x = {cid: neg / s if s else 0.0 for cid, neg, s in zip(mixed.nodes, s_negative, s_mixed)}
    with_news = {cid for cid, s in zip(mixed.nodes, s_mixed) if s}
    adjacency = mixed.adjacency()

    datapoints: list[RiskDatapoint] = []
    for cid in sorted(subset):
        if cid not in with_news:
            continue
        players = build_players(adjacency, cid, calibration)
        rr_own, rr_direct, rr_indirect, rr_total = riskrank_node(players, x)
        datapoints.append(
            RiskDatapoint(
                canonical_id=cid,
                quarter=quarter,
                x_own=x[cid],
                rr_own=rr_own,
                rr_direct=rr_direct,
                rr_indirect=rr_indirect,
                rr_total=rr_total,
            )
        )
    log.info(
        "risk quarter=%s subset=%d datapoints=%d",
        quarter.label,
        len(subset),
        len(datapoints),
    )
    return datapoints
