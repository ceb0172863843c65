"""Exception types raised by the splitcast package."""


class SplitcastError(Exception):
    """Base class for all package specific errors."""


# ---------------------------------------------------------------- panel layer

class PanelError(SplitcastError):
    """Base class for data panel problems."""


class MissingColumnError(PanelError):
    """A required column is absent from the input file."""


class UnparseableTimestampError(PanelError):
    """A date or hour field could not be parsed."""


class NonHourlyResolutionError(PanelError):
    """The input rows do not form an hourly grid (hours outside 1..24, or
    a cell repeated more than twice)."""


class GapAtBoundaryError(PanelError):
    """A missing cell at the very start or end of the panel cannot be filled
    from both sides."""


class NegativeGenerationError(PanelError):
    """Load or generation values below zero in the input data."""


class PanelIntegrityError(PanelError):
    """The panel violates a structural invariant or a value rule (non
    consecutive dates, a non finite reading, a composite off its parts, ...)."""


class InvalidDGPError(PanelError):
    """Synthetic generator configuration is unusable (e.g. |phi| >= 1)."""


# ------------------------------------------------------------- feature layer

class InsufficientHistoryError(SplitcastError):
    """A regressor row was requested for a day without the 7 preceding days."""


# ---------------------------------------------------------------- model layer

class TooFewRowsError(SplitcastError):
    """Fewer than two rows per regressor in a fit."""


class DegenerateDesignError(SplitcastError):
    """Design matrix unusable: all zero column or numerically singular."""


class ShapeMismatchError(SplitcastError):
    """Coefficient vector and regressor row have different lengths."""


class SolverFailureError(SplitcastError):
    """Iterative solver hit its iteration cap before reaching tolerance."""


# ------------------------------------------------------------- ensemble layer

class EmptyEnsembleError(SplitcastError):
    """Ensemble has too few members for the requested operation."""


# ----------------------------------------------------------- evaluation layer

class MisalignedError(SplitcastError):
    """Forecast and realization arrays have incompatible shapes."""


class ConfigError(SplitcastError):
    """Experiment configuration file or flags are invalid."""
