"""Quarterly company co-occurrence networks from sentiment-labeled news,
information-centrality rankings, Choquet-style sentiment risk scores, and a
price-decline backtest."""

from .backtest import (
    AGGREGATED,
    INDIVIDUAL,
    EventStudy,
    build_comparison_report,
    compute_events,
    risk_histogram,
)
from .centrality import (
    ABSOLUTE,
    NORMALIZED,
    CentralityTable,
    average_rank,
    build_tables,
    information_centrality,
)
from .corpus import (
    Article,
    EntityUniverse,
    MarketCapTable,
    load_articles,
    load_marketcaps,
    load_universe,
)
from .entities import MatcherSet, OccurrenceSet, parse_corpus
from .errors import (
    ConditioningError,
    DependencyError,
    MatcherCollisionError,
    NewsriskError,
    ValidationError,
)
from .networks import MIXED, NEGATIVE, POSITIVE, QuarterNetwork, build_networks, smooth
from .pipeline import RunConfig, StudyResult, config_from_file, run_all, run_study
from .pricerows import PriceTable, load_prices
from .quarters import Quarter, parse_quarter, quarter_of, quarter_range
from .riskrank import (
    RiskCalibration,
    RiskDatapoint,
    build_players,
    riskrank_node,
    riskrank_quarter,
    select_universe,
)

__version__ = "0.1.0"
