"""Exception types shared across the engine."""


class MarketClearError(Exception):
    """Base class for all engine errors."""


class ValidationError(MarketClearError):
    """Malformed input: bad shapes, unknown keys, inconsistent weights."""


class UnsupportedModelError(MarketClearError):
    """Model is well-formed but outside the solvable class of this engine."""


class AssumptionViolationError(MarketClearError):
    """A standing assumption fails; ``report`` is the failing checks' report, or None."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class BudgetError(MarketClearError):
    """A size budget (node count, atom count, agent count) would be exceeded."""


class SolverError(MarketClearError):
    """Direct solve hit a singular system or an iteration failed to converge."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics
