"""Exception types shared across the package."""


class DelayGranularityError(ValueError):
    """Actuation delay is not an integer multiple of the sample period."""


class HistoryDepthError(ValueError):
    """Input-history buffer length does not match the delay window."""


class ChannelError(ValueError):
    """A required predecessor (V2V) channel is missing."""


class DegreeError(ValueError):
    """Unsupported relative degree for the requested controller."""


class RefinementError(RuntimeError):
    """Root search certificate failed (winding count mismatch or no convergence)."""


class ScenarioError(ValueError):
    """Scenario file is malformed or semantically invalid."""
