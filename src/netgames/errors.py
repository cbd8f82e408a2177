"""Exception hierarchy shared across the package."""


class NetgamesError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(NetgamesError):
    """Raised when vector or matrix shapes are inconsistent with the game."""


class SingularSystem(NetgamesError):
    """Raised when a linear system is singular beyond tolerance."""


class NoConvergence(NetgamesError):
    """Raised when a solver stops short of a solution; the two classes below refine it."""


class MaxItersExceeded(NoConvergence):
    """Raised when an iterative solver hits its iteration cap.

    Carries the iterate it stopped at (``best_x``) and its residual
    diagnostics so callers can inspect how close the run got.
    """

    def __init__(self, msg, best_x=None, stationarity_residual=None,
                 complementarity_residual=None, iterations=None):
        super().__init__(msg)
        self.best_x = best_x
        self.stationarity_residual = stationarity_residual
        self.complementarity_residual = complementarity_residual
        self.iterations = iterations


class StepSelectionFailed(NoConvergence):
    """Raised when pivoting cannot proceed: a basis recurs or a free block is singular."""


class InfeasibleDesign(NetgamesError):
    """Raised when a design construction has no admissible degrees of freedom."""


class NoSolutionFound(NetgamesError):
    """Raised when a multi-start search produces no acceptable solution.

    ``best_residual`` is the smallest residual reached by any start;
    ``rejected_negative`` counts converged solutions discarded for violating
    the nonnegativity constraint on actions.
    """

    def __init__(self, msg, best_residual=float("inf"), rejected_negative=0):
        super().__init__(msg)
        self.best_residual = best_residual
        self.rejected_negative = rejected_negative


class NotAnEquilibrium(NetgamesError):
    """Raised when a result passed as an equilibrium fails its residual check."""


class InsufficientData(NetgamesError):
    """Raised when a report has too few usable rows for the requested statistic."""


class GameFileError(NetgamesError):
    """Raised on malformed game or problem files; carries a field diagnostic."""

    def __init__(self, msg, field=None):
        super().__init__(msg)
        self.field = field
