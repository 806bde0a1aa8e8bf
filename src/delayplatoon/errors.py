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
    """A certificate failed.  Root search: the Lambert-W listing overflowed
    or ran past its branch cap, p is not finite or 0 on the counting
    contour, the root count reached its evaluation cap, no multiplicity of a
    root was certified, or the count does not match the roots found.
    String stability: the peak was not certified within its point budget."""


class ScenarioError(ValueError):
    """Scenario file is malformed or semantically invalid."""
