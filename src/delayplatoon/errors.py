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
    """Root search certificate failed: no seed converged, p is not finite or 0
    on the counting contour, the root count reached its evaluation cap, or it
    does not match the roots found."""


class ScenarioError(ValueError):
    """Scenario file is malformed or semantically invalid."""
