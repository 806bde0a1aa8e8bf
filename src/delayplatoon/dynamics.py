"""Third-order longitudinal vehicle model with input delay.

State is (q, v, a): position, velocity, acceleration.  The engine lag tau
drives a via a first-order response to the commanded input, which acts with
an actuation delay phi.  Because the control input is held between samples
(zero-order hold), the sampled dynamics admit an exact discretization, which
is what this module provides in closed form: ``zoh_coefficients`` gives the
entries of Phi and Gamma as Python floats, and ``discretize`` puts those
same floats into arrays.  ``step`` takes one sample step of one vehicle; the
simulator steps a platoon with the floats of ``zoh_coefficients``, and the
open-loop step response is a one-vehicle ``simulator.run``.
``InputHistory`` is the inputs buffered over the delay window, oldest
first, and their sample period; its depth is their number.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._record import Record
from .errors import DelayGranularityError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "VehicleParams",
    "VehicleState",
    "InputHistory",
    "DiscreteModel",
    "matrix_exponential_closed_form",
    "zoh_coefficients",
    "discretize",
    "delay_steps",
    "step",
    "MAX_SAMPLES",
    "check_sample_count",
]

MAX_SAMPLES = 10**6  # samples of a run (which keeps its whole log) and of a delay window


def check_sample_count(name: str, count: int) -> None:
    """ValueError unless 2 <= count <= MAX_SAMPLES: the length of a
    requested array (the CLI's --points, the region boundary's and sweep
    grid's point counts), checked before it is allocated."""
    if not 2 <= count <= MAX_SAMPLES:
        raise ValueError(f"{name} must be between 2 and MAX_SAMPLES = {MAX_SAMPLES}, got {count}")


class VehicleParams(Record):
    """Engine time constant tau [s] and actuation delay phi [s]."""

    tau: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        if not (math.isfinite(self.phi) and self.phi >= 0.0):
            raise ValueError(f"phi must be finite and >= 0, got {self.phi}")


class VehicleState(Record):
    """Longitudinal position [m], velocity [m/s] and acceleration [m/s^2]."""

    q: float = 0.0
    v: float = 0.0
    a: float = 0.0

    def __post_init__(self):
        for name in ("q", "v", "a"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.q, self.v, self.a])

    @classmethod
    def from_array(cls, x) -> "VehicleState":
        return cls(float(x[0]), float(x[1]), float(x[2]))


class InputHistory(Record):
    """Buffered past inputs covering the delay window [t - phi, t).

    ``samples`` is chronological: ``samples[0]`` is the oldest value
    u(t - depth*Ts), applied during the next step, and ``samples[-1]`` the
    most recent u(t - Ts), to which index j = 1 of the d-step predictor sum
    maps; the depth is the number of samples.
    """

    samples: tuple[float, ...]
    sample_period: float

    def __post_init__(self):
        if not (math.isfinite(self.sample_period) and self.sample_period > 0.0):
            raise ValueError(f"sample_period must be finite and > 0, got {self.sample_period}")
        if not all(map(math.isfinite, self.samples)):
            raise ValueError("history samples must be finite")

    @property
    def depth(self) -> int:
        return len(self.samples)

    @classmethod
    def constant(cls, value: float, depth: int, sample_period: float) -> "InputHistory":
        if not (math.isfinite(value) and depth >= 0):  # depth 0 keeps no sample to check
            raise ValueError(f"need a finite value and depth >= 0, got {value} and {depth}")
        return cls((float(value),) * depth, sample_period)


class DiscreteModel(Record):
    """Exact ZOH discretization: x(k+1) = Phi x(k) + Gamma u(k - d)."""

    Phi: np.ndarray
    Gamma: np.ndarray
    Ts: float

    def __post_init__(self):
        import numpy as np

        if np.shape(self.Phi) != (3, 3) or np.shape(self.Gamma) != (3,):
            raise ValueError("Phi must be 3x3 and Gamma of length 3")
        if not (np.all(np.isfinite(self.Phi)) and np.all(np.isfinite(self.Gamma))):
            raise ValueError("Phi and Gamma must be finite")
        if not (math.isfinite(self.Ts) and self.Ts > 0.0):
            raise ValueError(f"Ts must be finite and > 0, got {self.Ts}")


def _zoh_terms(tau: float, t: float) -> tuple[float, float, float, float]:
    """(em, Phi[0,2], Gamma[0], Gamma[1]) over a step t, em = 1 - e^{-x}, x = t/tau.

    The closed forms tau t - tau^2 em, t^2/2 - tau t + tau^2 em and t - tau em
    cancel as x -> 0, and tau^2 overflows for huge tau.  Below x = 0.01 they
    are t^2 c2, t^2 x c3 and t x c2 instead, with c_m = sum_k (-x)^k / (k+m)!
    summed to 1/10! by Horner, far below rounding there.
    """
    x = t / tau
    em = -math.expm1(-x)  # accurate for small x
    if x >= 0.01:
        return em, tau * t - tau * tau * em, 0.5 * t * t - tau * t + tau * tau * em, t - tau * em
    c3 = 0.0
    for k in range(10, 2, -1):
        c3 = c3 * -x + 1.0 / math.factorial(k)
    c2 = 0.5 - x * c3
    return em, t * t * c2, t * t * x * c3, t * x * c2


def zoh_coefficients(params: VehicleParams, t: float) -> tuple[float, ...]:
    """(p01, p02, p12, p22, g0, g1, g2): the entries of Phi = e^{A t} off its
    exact zeros and ones (Phi[0, 0] = Phi[1, 1] = 1, zeros below the
    diagonal) and Gamma's, in closed form on Python floats.  The one source
    of both: ``discretize`` and ``matrix_exponential_closed_form`` put these
    floats into arrays, and ``simulator`` steps with them as they are."""
    tau = params.tau
    em, p02, g0, g1 = _zoh_terms(tau, t)
    return t, p02, tau * em, 1.0 - em, g0, g1, em


def matrix_exponential_closed_form(params: VehicleParams, t: float) -> np.ndarray:
    """e^{A t} for the triangular third-order model, in closed form."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    import numpy as np

    p01, p02, p12, p22 = zoh_coefficients(params, t)[:4]
    return np.array([[1.0, p01, p02], [0.0, 1.0, p12], [0.0, 0.0, p22]])


def delay_steps(params: VehicleParams, Ts: float) -> int:
    """phi / Ts as an integer; DelayGranularityError if it is not one, and
    ValueError if it exceeds MAX_SAMPLES."""
    if Ts <= 0.0 or not math.isfinite(Ts):
        raise ValueError(f"Ts must be finite and > 0, got {Ts}")
    ratio = params.phi / Ts
    if ratio > MAX_SAMPLES:
        raise ValueError(f"phi / Ts = {ratio:.6g} exceeds {MAX_SAMPLES} samples")
    d = int(round(ratio))
    if abs(ratio - d) > 1e-9 * max(1.0, abs(ratio)):
        raise DelayGranularityError(
            f"phi = {params.phi} is not an integer multiple of Ts = {Ts}"
        )
    return d


def discretize(params: VehicleParams, Ts: float) -> DiscreteModel:
    """Exact ZOH discretization over one sample period.

    Gamma is the closed form of int_0^Ts e^{A s} ds B; the three scalar
    integrals follow from the triangular structure of A.
    """
    delay_steps(params, Ts)  # validates Ts and the phi/Ts ratio
    import numpy as np

    p01, p02, p12, p22, g0, g1, g2 = zoh_coefficients(params, Ts)
    Phi = np.array([[1.0, p01, p02], [0.0, 1.0, p12], [0.0, 0.0, p22]])
    return DiscreteModel(Phi, np.array([g0, g1, g2]), Ts)


def step(model: DiscreteModel, x: VehicleState, u_delayed: float) -> VehicleState:
    """One exact sample step with the delayed, held input."""
    if not math.isfinite(u_delayed):
        raise ValueError("u_delayed must be finite")
    xn = model.Phi @ x.as_array() + model.Gamma * u_delayed
    return VehicleState.from_array(xn)
