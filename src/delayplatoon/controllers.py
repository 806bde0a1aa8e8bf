"""Decentralized tracking controllers for the delayed spacing policies.

One law per policy, each an exact input-output linearization: with it the
spacing error obeys a linear ODE of order rho_bar driven only by its own
state.  ``track`` writes the three laws out, each with its spacing errors
and reference spacing, on plain floats; the simulator calls it every step
and ``control`` calls it on one set of measurements.  The generic form
indexed by the relative degrees of the (H, H_bar) rows lives in
``tests/oracles.py`` as the reference the laws are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .dynamics import VehicleParams, VehicleState
from .errors import ChannelError, DegreeError
from .spacing import PolicyKind, SpacingPolicy, policy_rows, relative_degrees

__all__ = [
    "ControllerGains",
    "ControlInputs",
    "ControllerSpec",
    "TrackingLaw",
    "validate_gains",
    "track",
    "control",
]


@dataclass(frozen=True)
class ControllerGains:
    """Feedback gains on e, e_dot, e_ddot (the latter two where used)."""

    k_p: float
    k_d: float = 0.0
    k_dd: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.k_p, self.k_d, self.k_dd))):
            raise ValueError("gains must be finite")


@dataclass(frozen=True)
class ControlInputs:
    """Measurements a follower consumes at one control instant.

    delta is the radar range already adjusted for the standstill offset;
    delta_dot the radar range rate.  Predecessor fields come over V2V and
    may be None when the active controller does not use them.
    """

    ego_state: VehicleState
    ego_predicted: VehicleState
    delta: float
    delta_dot: float
    predecessor_a: float | None = None
    predecessor_u_delayed: float | None = None

    def __post_init__(self):
        channels = (self.predecessor_a, self.predecessor_u_delayed)
        values = (self.delta, self.delta_dot, *(c for c in channels if c is not None))
        if not all(map(math.isfinite, values)):
            raise ValueError("delta, delta_dot and the predecessor channels must be finite")


def validate_gains(rho_bar: int, gains: ControllerGains) -> list[str]:
    """Violations of the stabilizing-gain conditions; empty list when valid."""
    violations = []
    if rho_bar not in (1, 2, 3):
        raise DegreeError(f"unsupported relative degree {rho_bar}")
    if not (gains.k_p > 0.0):
        violations.append(f"k_p = {gains.k_p} must be > 0")
    if rho_bar >= 2 and not (gains.k_d > 0.0):
        violations.append(f"k_d = {gains.k_d} must be > 0")
    if rho_bar == 3:
        if not (gains.k_dd > 0.0):
            violations.append(f"k_dd = {gains.k_dd} must be > 0")
        if not (gains.k_p * gains.k_d - gains.k_dd > 0.0):
            violations.append(
                f"k_p*k_d - k_dd = {gains.k_p * gains.k_d - gains.k_dd} must be > 0"
            )
    return violations


@dataclass(frozen=True)
class ControllerSpec:
    """Policy-matched control law; gains are validated at construction.

    predecessor params are required only by the delayed-constant law, which
    feeds the predecessor's delayed input through tau_{i-1}.
    """

    policy: SpacingPolicy
    gains: ControllerGains
    ego: VehicleParams
    predecessor: VehicleParams | None = None

    def __post_init__(self):
        rho_bar = relative_degrees(policy_rows(self.policy))[1]
        violations = validate_gains(rho_bar, self.gains)
        if violations:
            raise ValueError("invalid gains: " + "; ".join(violations))
        if self.policy.kind is PolicyKind.DELAYED_CONSTANT and self.predecessor is None:
            raise ValueError(
                "the delayed-constant controller needs the predecessor's parameters"
            )


class TrackingLaw(NamedTuple):
    """The floats of one follower's tracking law, unpacked once from its spec.
    tau_pred is nan without predecessor parameters; only the constant law reads it."""

    kind: PolicyKind
    h_v: float
    h_a: float
    k_p: float
    k_d: float
    k_dd: float
    tau: float
    tau_pred: float

    @classmethod
    def of(cls, spec: ControllerSpec) -> "TrackingLaw":
        pred = spec.predecessor
        return cls(
            spec.policy.kind, spec.policy.h_v, spec.policy.h_a,
            spec.gains.k_p, spec.gains.k_d, spec.gains.k_dd,
            spec.ego.tau, math.nan if pred is None else pred.tau,
        )


def track(law: TrackingLaw, q, v, a, qh, vh, ah, delta, delta_dot, pred_a, pred_u):
    """(u, e, H x + H_bar x_hat) of one follower: the policy's spacing errors and
    law on the ego state now (q, v, a), the one predicted at t + phi (qh, vh, ah),
    the standstill-adjusted range delta, its rate, and the predecessor's
    acceleration and delayed input where the law reads them."""
    kind, h_v, h_a, k_p, k_d, k_dd, tau, tau_pred = law
    if kind is PolicyKind.DELAYED_CONSTANT:
        # Delta_ref = q(t+phi) - q(t); e''' = -k_dd e'' - k_d e' - k_p e, with the
        # predecessor's delayed input fed forward through its engine lag
        e = delta + q - qh
        edot = delta_dot + v - vh
        eddot = pred_a - ah
        u = (tau / tau_pred) * (pred_u - pred_a) + ah + tau * (k_p * e + k_d * edot + k_dd * eddot)
        return u, e, qh - q
    if kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
        # Delta_ref = h_v v(t+phi); e'' = -k_d e' - k_p e
        e = delta - h_v * vh
        edot = delta_dot - h_v * ah
        return ah + (tau / h_v) * (pred_a - a + k_p * e + k_d * edot), e, h_v * vh
    # Delta_ref = h_v v(t) + h_a a(t+phi); e' = -k_p e from onboard measurements
    e = delta - h_v * v - h_a * ah
    return ah + (tau / h_a) * (delta_dot - h_v * a + k_p * e), e, h_v * v + h_a * ah


def control(spec: ControllerSpec, inputs: ControlInputs) -> float:
    """The policy's tracking law (``track``) on one set of measurements;
    ChannelError when a predecessor channel the law reads is None."""
    kind = spec.policy.kind
    if kind is not PolicyKind.DELAYED_EXTENDED_HEADWAY and inputs.predecessor_a is None:
        raise ChannelError(f"{kind.value} control needs the predecessor acceleration")
    if kind is PolicyKind.DELAYED_CONSTANT and inputs.predecessor_u_delayed is None:
        raise ChannelError("constant control needs the predecessor's delayed input")
    x, xh = inputs.ego_state, inputs.ego_predicted
    u, _, _ = track(
        TrackingLaw.of(spec), x.q, x.v, x.a, xh.q, xh.v, xh.a, inputs.delta,
        inputs.delta_dot, inputs.predecessor_a, inputs.predecessor_u_delayed,
    )
    return float(u)
