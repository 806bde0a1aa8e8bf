"""Decentralized tracking controllers for the delayed spacing policies.

One specialized law per policy (all three are exact input-output
linearizations: with them the spacing error obeys a linear ODE of order
rho_bar driven only by its own state).  ``track`` is the one dispatch from
the policy kind to its spacing errors and law, on plain floats; the
simulator calls it every step and ``control`` calls it on one set of
measurements.  The generic relative-degree indexed form, evaluated from
the (H, H_bar) rows, reproduces the specialized laws to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import VehicleParams, VehicleState
from .errors import ChannelError, DegreeError
from .spacing import (
    PolicyKind,
    PolicyRows,
    SpacingPolicy,
    dc_errors,
    dch_errors,
    ext_error,
    policy_rows,
    relative_degrees,
    spacing_error_from_rows,
)

__all__ = [
    "ControllerGains",
    "ControlInputs",
    "ControllerSpec",
    "TrackingLaw",
    "validate_gains",
    "track",
    "control",
    "generic_rho_controller",
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
    predecessor_v: float | None = None
    predecessor_a: float | None = None
    predecessor_u_delayed: float | None = None


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
        rho_bar = relative_degrees(policy_rows(self.policy), self.ego)[1]
        violations = validate_gains(rho_bar, self.gains)
        if violations:
            raise ValueError("invalid gains: " + "; ".join(violations))
        if self.policy.kind is PolicyKind.DELAYED_CONSTANT and self.predecessor is None:
            raise ValueError(
                "the delayed-constant controller needs the predecessor's parameters"
            )


def dc_control(tau_i, tau_prev, k_p, k_d, k_dd, e, edot, eddot, a_prev, a_hat, u_prev_delayed):
    """Delayed-constant tracking law (feedforward of the predecessor input)."""
    return (
        (tau_i / tau_prev) * (u_prev_delayed - a_prev)
        + a_hat
        + tau_i * (k_p * e + k_d * edot + k_dd * eddot)
    )


def dch_control(tau_i, h_v, k_p, k_d, e, edot, a_prev, a_i, a_hat):
    """Delayed constant headway tracking law (needs V2V predecessor acceleration)."""
    return a_hat + (tau_i / h_v) * (a_prev - a_i + k_p * e + k_d * edot)


def ext_control(tau_i, h_v, h_a, k_p, e, dv, a_i, a_hat):
    """Delayed extended headway tracking law (onboard measurements only)."""
    return a_hat + (tau_i / h_a) * (dv - h_v * a_i + k_p * e)


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
        e, edot, eddot = dc_errors(delta, delta_dot, q, v, qh, vh, ah, pred_a)
        u = dc_control(tau, tau_pred, k_p, k_d, k_dd, e, edot, eddot, pred_a, ah, pred_u)
        return u, e, qh - q
    if kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
        e, edot = dch_errors(h_v, delta, delta_dot, vh, ah)
        return dch_control(tau, h_v, k_p, k_d, e, edot, pred_a, a, ah), e, h_v * vh
    e = ext_error(h_v, h_a, delta, v, ah)
    return ext_control(tau, h_v, h_a, k_p, e, delta_dot, a, ah), e, h_v * v + h_a * ah


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


def generic_rho_controller(
    rows: PolicyRows,
    rho_bar: int,
    gains: ControllerGains,
    inputs: ControlInputs,
    params: VehicleParams,
    predecessor: VehicleParams | None = None,
) -> float:
    """Relative-degree indexed controller evaluated from the policy rows.

    Assumes the solvability condition holds (rho_bar < rho, or rho_bar = 3
    with H x = -q), under which the delayed own-input terms drop out.
    Reproduces the specialized laws to rounding when given their rows.
    """
    a_mat, b_vec = params.system_matrices()
    h = np.asarray(rows.H)
    hb = np.asarray(rows.H_bar)
    x = inputs.ego_state.as_array()
    xp = inputs.ego_predicted.as_array()

    e = spacing_error_from_rows(rows, inputs.delta, x, xp)
    if rho_bar == 1:
        hb_b = hb @ b_vec
        num = inputs.delta_dot - h @ a_mat @ x - hb @ a_mat @ xp + gains.k_p * e
        return float(num / hb_b)
    if rho_bar == 2:
        if inputs.predecessor_a is None:
            raise ChannelError("rho_bar = 2 control needs the predecessor acceleration")
        a2 = a_mat @ a_mat
        e_dot = inputs.delta_dot - h @ a_mat @ x - hb @ a_mat @ xp
        num = (
            inputs.predecessor_a
            - inputs.ego_state.a
            - h @ a2 @ x
            - hb @ a2 @ xp
            + gains.k_p * e
            + gains.k_d * e_dot
        )
        return float(num / (hb @ a_mat @ b_vec))
    if rho_bar == 3:
        if inputs.predecessor_a is None or inputs.predecessor_u_delayed is None:
            raise ChannelError(
                "rho_bar = 3 control needs predecessor acceleration and delayed input"
            )
        if predecessor is None:
            raise ChannelError("rho_bar = 3 control needs the predecessor parameters")
        a2 = a_mat @ a_mat
        a3 = a2 @ a_mat
        e_dot = inputs.delta_dot - h @ a_mat @ x - hb @ a_mat @ xp
        e_ddot = (
            inputs.predecessor_a - inputs.ego_state.a - h @ a2 @ x - hb @ a2 @ xp
        )
        num = (
            (inputs.predecessor_u_delayed - inputs.predecessor_a) / predecessor.tau
            - hb @ a3 @ xp
            + gains.k_p * e
            + gains.k_d * e_dot
            + gains.k_dd * e_ddot
        )
        return float(num / (hb @ a2 @ b_vec))
    raise DegreeError(f"unsupported relative degree {rho_bar}")
