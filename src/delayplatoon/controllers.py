"""Decentralized tracking controllers for the delayed spacing policies.

One specialized law per policy (all three are exact input-output
linearizations: with them the spacing error obeys a linear ODE of order
rho_bar driven only by its own state), plus the generic relative-degree
indexed form evaluated from the (H, H_bar) rows, which reproduces the
specialized laws bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import VehicleParams, VehicleState
from .errors import ChannelError, DegreeError
from .spacing import (
    PolicyKind,
    PolicyRows,
    SpacingPolicy,
    spacing_error,
    spacing_error_from_rows,
)

__all__ = [
    "ControllerGains",
    "ControlInputs",
    "ControllerSpec",
    "rho_bar_for",
    "validate_gains",
    "control",
    "control_delayed_constant",
    "control_delayed_constant_headway",
    "control_delayed_extended",
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


def rho_bar_for(policy: SpacingPolicy) -> int:
    """Relative degree rho_bar implied by the policy kind."""
    return {
        PolicyKind.DELAYED_CONSTANT: 3,
        PolicyKind.DELAYED_CONSTANT_HEADWAY: 2,
        PolicyKind.DELAYED_EXTENDED_HEADWAY: 1,
    }[policy.kind]


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
        violations = validate_gains(rho_bar_for(self.policy), self.gains)
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


def control_delayed_constant(spec: ControllerSpec, inputs: ControlInputs) -> float:
    """Tracking law for the delayed constant spacing policy (rho_bar = 3)."""
    if spec.policy.kind is not PolicyKind.DELAYED_CONSTANT:
        raise ValueError("spec is not for the delayed constant policy")
    if inputs.predecessor_a is None or inputs.predecessor_u_delayed is None:
        raise ChannelError(
            "delayed-constant control needs predecessor acceleration and delayed input"
        )
    err = spacing_error(
        spec.policy,
        inputs.delta,
        inputs.delta_dot,
        inputs.ego_state,
        inputs.ego_predicted,
        predecessor_a=inputs.predecessor_a,
    )
    return float(
        dc_control(
            spec.ego.tau,
            spec.predecessor.tau,
            spec.gains.k_p,
            spec.gains.k_d,
            spec.gains.k_dd,
            err.e,
            err.e_dot,
            err.e_ddot,
            inputs.predecessor_a,
            inputs.ego_predicted.a,
            inputs.predecessor_u_delayed,
        )
    )


def control_delayed_constant_headway(spec: ControllerSpec, inputs: ControlInputs) -> float:
    """Tracking law for the delayed constant headway policy (rho_bar = 2)."""
    if spec.policy.kind is not PolicyKind.DELAYED_CONSTANT_HEADWAY:
        raise ValueError("spec is not for the delayed constant headway policy")
    if inputs.predecessor_a is None:
        raise ChannelError("constant-headway control needs the predecessor acceleration")
    err = spacing_error(
        spec.policy,
        inputs.delta,
        inputs.delta_dot,
        inputs.ego_state,
        inputs.ego_predicted,
    )
    return float(
        dch_control(
            spec.ego.tau,
            spec.policy.h_v,
            spec.gains.k_p,
            spec.gains.k_d,
            err.e,
            err.e_dot,
            inputs.predecessor_a,
            inputs.ego_state.a,
            inputs.ego_predicted.a,
        )
    )


def control_delayed_extended(spec: ControllerSpec, inputs: ControlInputs) -> float:
    """Tracking law for the delayed extended policy (rho_bar = 1, radar only)."""
    if spec.policy.kind is not PolicyKind.DELAYED_EXTENDED_HEADWAY:
        raise ValueError("spec is not for the delayed extended policy")
    err = spacing_error(
        spec.policy,
        inputs.delta,
        inputs.delta_dot,
        inputs.ego_state,
        inputs.ego_predicted,
    )
    return float(
        ext_control(
            spec.ego.tau,
            spec.policy.h_v,
            spec.policy.h_a,
            spec.gains.k_p,
            err.e,
            inputs.delta_dot,
            inputs.ego_state.a,
            inputs.ego_predicted.a,
        )
    )


_DISPATCH = {
    PolicyKind.DELAYED_CONSTANT: control_delayed_constant,
    PolicyKind.DELAYED_CONSTANT_HEADWAY: control_delayed_constant_headway,
    PolicyKind.DELAYED_EXTENDED_HEADWAY: control_delayed_extended,
}


def control(spec: ControllerSpec, inputs: ControlInputs) -> float:
    """Dispatch to the policy's specialized law."""
    return _DISPATCH[spec.policy.kind](spec, inputs)


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
