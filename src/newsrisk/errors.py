"""Exception types shared across the pipeline."""


class NewsriskError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(NewsriskError):
    """Bad input data or out-of-range configuration (CLI exit code 1)."""


class DependencyError(NewsriskError):
    """A stage's upstream artifacts are missing, stale or inconsistent with
    its config, and the stage that writes them must run (exit code 2)."""


class MatcherCollisionError(ValidationError):
    """One literal string would resolve to two different companies."""


class ConditioningError(NewsriskError):
    """A centrality matrix is numerically singular or too ill-conditioned to trust."""
