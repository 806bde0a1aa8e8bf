"""Delayed spacing policies, spacing errors, and the closed-form predicates.

Three policies are supported, each a function of current and predicted ego
states, Delta_ref = H x(t) + H_bar x(t + phi):

  constant ("constant"):          Delta_ref = q(t+phi) - q(t)
  constant headway ("dch"):       Delta_ref = h_v v(t+phi)
  extended headway ("ext"):       Delta_ref = h_v v(t) + h_a a(t+phi)

Properness (bounded spacing, matched steady-state velocities under perfect
tracking) and string stability are decided by the closed-form
characterizations; the extended string-stability predicate falls back to the
frequency sweep when its sufficient condition is inconclusive.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import VehicleParams, VehicleState

__all__ = [
    "PolicyKind",
    "SpacingPolicy",
    "PolicyRows",
    "SpacingError",
    "StabilityVerdict",
    "SolvabilityResult",
    "policy_rows",
    "relative_degrees",
    "solvability_check",
    "spacing_error",
    "spacing_error_from_rows",
    "is_proper",
    "is_string_stable",
]


class PolicyKind(enum.Enum):
    DELAYED_CONSTANT = "constant"
    DELAYED_CONSTANT_HEADWAY = "dch"
    DELAYED_EXTENDED_HEADWAY = "ext"

    @classmethod
    def parse(cls, token: str) -> "PolicyKind":
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown policy kind {token!r}; expected one of "
                f"{[k.value for k in cls]}"
            ) from None


@dataclass(frozen=True)
class SpacingPolicy:
    """Policy kind with velocity headway h_v [s], acceleration headway
    h_a [s^2] and a standstill offset [m] (display only, removed before
    error math)."""

    kind: PolicyKind
    h_v: float = 0.0
    h_a: float = 0.0
    standstill: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.h_v, self.h_a, self.standstill))):
            raise ValueError("h_v, h_a and standstill must be finite")
        if self.standstill < 0.0:
            raise ValueError("standstill must be >= 0")
        if self.kind is PolicyKind.DELAYED_CONSTANT:
            if self.h_v != 0.0 or self.h_a != 0.0:
                raise ValueError("constant policy takes no headway parameters")
        elif self.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
            if self.h_v <= 0.0:
                raise ValueError("h_v must be > 0 for the constant headway policy")
            if self.h_a != 0.0:
                raise ValueError("h_a must be 0 for the constant headway policy")
        else:
            if self.h_v <= 0.0 or self.h_a <= 0.0:
                raise ValueError("h_v and h_a must be > 0 for the extended policy")


@dataclass(frozen=True)
class PolicyRows:
    """Row vectors of Delta_ref = H x(t) + H_bar x(t + phi)."""

    H: tuple[float, float, float]
    H_bar: tuple[float, float, float]


@dataclass(frozen=True)
class SpacingError:
    """Spacing error and the derivatives the active controller consumes.

    e_dot / e_ddot are None when the inputs needed for them were not
    supplied (they are only populated where a controller uses them).
    """

    e: float
    e_dot: float | None = None
    e_ddot: float | None = None


@dataclass(frozen=True)
class SolvabilityResult:
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a properness / string-stability check with its certificate.

    method is one of "closed-form", "sweep", "root-search".  Depending on the
    method, the certificate is a rightmost root, a peak (omega, |T|) pair, a
    witnessing frequency, or inequality margins (positive = satisfied).
    """

    stable: bool
    method: str
    rightmost_root: complex | None = None
    peak_omega: float | None = None
    peak_magnitude: float | None = None
    witness_omega: float | None = None
    margins: tuple[float, ...] = field(default=())
    detail: str = ""


def policy_rows(policy: SpacingPolicy) -> PolicyRows:
    """(H, H_bar) representation of the policy."""
    if policy.kind is PolicyKind.DELAYED_CONSTANT:
        return PolicyRows((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    if policy.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
        return PolicyRows((0.0, 0.0, 0.0), (0.0, policy.h_v, 0.0))
    return PolicyRows((0.0, policy.h_v, 0.0), (0.0, 0.0, policy.h_a))


def _markov_parameters(row, params: VehicleParams) -> tuple[float, float, float]:
    """(H B, H A B, H A^2 B) evaluated literally.

    Zero row entries are exact zeros, so structural zeros of the products
    come out as exact 0.0 and are compared against zero without a tolerance.
    """
    tau = params.tau
    h0, h1, h2 = row
    return (
        h2 / tau,
        h1 / tau - h2 / tau**2,
        h0 / tau - h1 / tau**2 + h2 / tau**3,
    )


def _relative_degree(row, params: VehicleParams) -> float:
    for k, value in enumerate(_markov_parameters(row, params), start=1):
        if value != 0.0:
            return k
    return math.inf


def relative_degrees(rows: PolicyRows, params: VehicleParams) -> tuple[float, float]:
    """(rho, rho_bar): smallest k with H A^{k-1} B != 0 (resp. H_bar), inf if none."""
    return _relative_degree(rows.H, params), _relative_degree(rows.H_bar, params)


def solvability_check(rows: PolicyRows, params: VehicleParams) -> SolvabilityResult:
    """Whether a decentralized tracking controller exists for these rows.

    True iff rho_bar < rho, or rho_bar == 3 with H x = -q (H = [-1, 0, 0]).
    """
    rho, rho_bar = relative_degrees(rows, params)
    if rho_bar < rho:
        return SolvabilityResult(True, f"rho_bar = {rho_bar} < rho = {rho}")
    if rho_bar == 3 and rows.H == (-1.0, 0.0, 0.0):
        return SolvabilityResult(True, "rho_bar = 3 and H x = -q")
    return SolvabilityResult(
        False, f"rho_bar = {rho_bar} not < rho = {rho} and H x != -q"
    )


def spacing_error_from_rows(
    rows: PolicyRows, delta: float, x: np.ndarray, x_pred: np.ndarray
) -> float:
    """e = Delta - H x - H_bar x(t+phi); delta is standstill-adjusted."""
    h = np.asarray(rows.H)
    hb = np.asarray(rows.H_bar)
    return float(delta - h @ x - hb @ x_pred)


def dc_errors(delta, delta_dot, q, v, q_hat, v_hat, a_hat, predecessor_a):
    """(e, e_dot, e_ddot) for the delayed constant spacing policy."""
    e = delta + q - q_hat
    e_dot = delta_dot + v - v_hat
    e_ddot = predecessor_a - a_hat
    return e, e_dot, e_ddot


def dch_errors(h_v, delta, delta_dot, v_hat, a_hat):
    """(e, e_dot) for the delayed constant headway policy."""
    return delta - h_v * v_hat, delta_dot - h_v * a_hat


def ext_error(h_v, h_a, delta, v, a_hat):
    """e for the delayed extended headway policy."""
    return delta - h_v * v - h_a * a_hat


def spacing_error(
    policy: SpacingPolicy,
    delta: float,
    delta_dot: float,
    state_i: VehicleState,
    predicted_i: VehicleState,
    predecessor_a: float | None = None,
    predicted_a_dot_i: float | None = None,
) -> SpacingError:
    """Spacing error and its analytic derivatives for the policy.

    delta must already be standstill-adjusted.  delta_dot is the radar range
    rate v_{i-1} - v_i.  Derivatives of predicted terms use the model
    dynamics (d/dt v(t+phi) = a(t+phi); d/dt a(t+phi) needs the current
    input and is passed in as predicted_a_dot_i by callers that have it).
    Derivatives whose inputs are missing are left as None.
    """
    if policy.kind is PolicyKind.DELAYED_CONSTANT:
        e, e_dot, e_ddot = dc_errors(
            delta, delta_dot, state_i.q, state_i.v, predicted_i.q, predicted_i.v,
            predicted_i.a, 0.0 if predecessor_a is None else predecessor_a,
        )
        return SpacingError(e, e_dot, None if predecessor_a is None else e_ddot)
    if policy.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
        e, e_dot = dch_errors(policy.h_v, delta, delta_dot, predicted_i.v, predicted_i.a)
        e_ddot = None
        if predecessor_a is not None and predicted_a_dot_i is not None:
            e_ddot = (predecessor_a - state_i.a) - policy.h_v * predicted_a_dot_i
        return SpacingError(e, e_dot, e_ddot)
    e = ext_error(policy.h_v, policy.h_a, delta, state_i.v, predicted_i.a)
    e_dot = None
    if predicted_a_dot_i is not None:
        e_dot = delta_dot - policy.h_v * state_i.a - policy.h_a * predicted_a_dot_i
    return SpacingError(e, e_dot, None)


def _extended_properness_margin(policy: SpacingPolicy, params: VehicleParams):
    """Clearance below the properness boundary curve at the policy's abscissa.

    In the (h_v/h_a, 1/h_a) plane the boundary is the curve
    (w sin(w phi), w^2 cos(w phi)); since its abscissa is strictly
    increasing, properness is decided pointwise below the curve: solve
    omega sin(omega) = phi h_v / h_a for the unique omega in (0, pi/2) and
    require phi^2 / h_a < omega^2 cos(omega).  (The curve is the locus of
    imaginary-axis characteristic roots, so satisfying both inequalities at
    some unrelated larger omega is not sufficient.)
    """
    phi = params.phi
    s = phi * policy.h_v / policy.h_a
    y = phi * phi / policy.h_a
    scale = max(1.0, s, y)
    if s >= 0.5 * math.pi:
        return None, s - 0.5 * math.pi, scale  # no admissible frequency at all
    # w sin w - s is strictly increasing on (0, pi/2): bisect its sign change
    lo, hi = 0.0, 0.5 * math.pi
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if mid * math.sin(mid) < s:
            lo = mid
        else:
            hi = mid
    w_star = 0.5 * (lo + hi)
    return w_star, w_star * w_star * math.cos(w_star) - y, scale


def is_proper(policy: SpacingPolicy, params: VehicleParams) -> StabilityVerdict:
    """Properness via the closed-form characterizations.

    Constant: always proper.  Constant headway: proper iff 2 phi < h_v pi
    (strict).  Extended: proper iff the headway point lies strictly below
    the boundary curve of the stability region (see
    _extended_properness_margin); the verdict carries the frequency at the
    policy's abscissa and the clearance margins.
    """
    phi = params.phi
    if policy.kind is PolicyKind.DELAYED_CONSTANT:
        return StabilityVerdict(True, "closed-form", detail="constant policy is always proper")
    if policy.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
        margin = policy.h_v * math.pi - 2.0 * phi
        return StabilityVerdict(
            bool(2.0 * phi < policy.h_v * math.pi),
            "closed-form",
            margins=(float(margin),),
            detail="proper iff 2 phi < h_v pi",
        )
    if phi == 0.0:
        return StabilityVerdict(
            True, "closed-form", detail="no delay: extended policy is always proper"
        )
    w_star, m_star, scale = _extended_properness_margin(policy, params)
    if w_star is None:
        return StabilityVerdict(
            False,
            "closed-form",
            margins=(m_star,),
            detail="abscissa phi h_v / h_a beyond the boundary curve range",
        )
    # strictly-inside test; the 1e-12 guard keeps points exactly on the
    # boundary curve (margin 0 up to rounding) classified as not proper
    return StabilityVerdict(
        bool(m_star > 1e-12 * scale),
        "closed-form",
        witness_omega=float(w_star),
        margins=(float(0.5 * math.pi - phi * policy.h_v / policy.h_a), float(m_star)),
        detail="clearance below the properness boundary curve",
    )


def is_string_stable(policy: SpacingPolicy, params: VehicleParams) -> StabilityVerdict:
    """String stability of the closed loop under perfect tracking.

    Constant: unconditionally stable.  Constant headway: stable iff
    h_v >= 2 phi (boundary included).  Extended: the closed-form sufficient
    pair (h_a >= 2 h_v phi, h_v^2 >= 2 h_a) decides when it holds; otherwise
    the frequency sweep decides, so an inconclusive closed form is never
    reported as a failure.
    """
    phi = params.phi
    if policy.kind is PolicyKind.DELAYED_CONSTANT:
        return StabilityVerdict(
            True, "closed-form", peak_magnitude=1.0,
            detail="|T(i omega)| = 1 at all frequencies",
        )
    if policy.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
        return StabilityVerdict(
            bool(policy.h_v >= 2.0 * phi),
            "closed-form",
            margins=(float(policy.h_v - 2.0 * phi),),
            detail="stable iff h_v >= 2 phi",
        )
    m1 = float(policy.h_a - 2.0 * policy.h_v * phi)
    m2 = float(policy.h_v * policy.h_v - 2.0 * policy.h_a)
    if m1 >= 0.0 and m2 >= 0.0:
        return StabilityVerdict(
            True, "closed-form", margins=(m1, m2),
            detail="sufficient pair h_a >= 2 h_v phi, h_v^2 >= 2 h_a",
        )
    from . import analysis  # deferred: analysis imports this module's types

    verdict = analysis.string_stability_sweep(policy, params)
    return StabilityVerdict(
        bool(verdict.stable),
        "sweep",
        peak_omega=verdict.peak_omega,
        peak_magnitude=verdict.peak_magnitude,
        margins=(m1, m2),
        detail="closed form inconclusive; decided by frequency sweep",
    )
