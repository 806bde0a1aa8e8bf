"""Discrete-time closed-loop simulation of an N+1 vehicle platoon.

Controllers are the continuous-time laws evaluated at the 100 Hz-class
sample instants with a zero-order hold; vehicle propagation between samples
is exact.  Within a step the leader input is computed first and the
followers run front to back, each using predecessor values from the same
sample instant (ideal channels); optional sample-and-hold flags emulate the
coarser radar and V2V rates, both off by default.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .controllers import ControllerSpec, dc_control, dch_control, ext_control
from .dynamics import (
    InputHistory,
    VehicleParams,
    VehicleState,
    delay_steps,
    discretize,
)
from .errors import HistoryDepthError
from .predictor import prediction_weights
from .spacing import PolicyKind, SpacingPolicy, dc_errors, dch_errors, ext_error

__all__ = [
    "SegmentKind",
    "LeaderSegment",
    "LeaderProfile",
    "leader_input",
    "MeasurementOptions",
    "MeasurementModel",
    "VehicleSetup",
    "PlatoonConfig",
    "TrajectoryLog",
    "run",
]


class SegmentKind(enum.Enum):
    CRUISE = "cruise"
    PULSE = "pulse"


@dataclass(frozen=True)
class LeaderSegment:
    """One leader-profile segment: closed-loop cruise or open-loop pulse."""

    kind: SegmentKind
    duration: float
    v_ref: float = 0.0
    gain: float = 0.0
    amplitude: float = 0.0

    def __post_init__(self):
        if not (self.duration > 0.0 and math.isfinite(self.duration)):
            raise ValueError("segment duration must be finite and > 0")
        if not all(map(math.isfinite, (self.v_ref, self.gain, self.amplitude))):
            raise ValueError("segment v_ref, gain and amplitude must be finite")
        if self.kind is SegmentKind.CRUISE and self.gain <= 0.0:
            raise ValueError("cruise gain must be > 0")

    @classmethod
    def cruise(cls, duration: float, v_ref: float, gain: float) -> "LeaderSegment":
        return cls(SegmentKind.CRUISE, duration, v_ref=v_ref, gain=gain)

    @classmethod
    def pulse(cls, duration: float, amplitude: float) -> "LeaderSegment":
        return cls(SegmentKind.PULSE, duration, amplitude=amplitude)


@dataclass(frozen=True)
class LeaderProfile:
    """Contiguous leader segments; the input is 0 past the last segment."""

    segments: tuple[LeaderSegment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("leader profile needs at least one segment")

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)


def leader_input(profile: LeaderProfile, t: float, v_leader: float) -> float:
    """Leader input at time t: gain*(v_ref - v) in cruise, the amplitude in
    a pulse, 0 past the profile end."""
    end = 0.0
    for seg in profile.segments:
        end += seg.duration
        if t < end:
            if seg.kind is SegmentKind.CRUISE:
                return seg.gain * (seg.v_ref - v_leader)
            return seg.amplitude
    return 0.0


@dataclass(frozen=True)
class MeasurementOptions:
    """Sample-and-hold emulation of the real sensor rates (both off by default
    so the theory-level tests see exact values)."""

    radar_hold: bool = False
    radar_rate_hz: float = 16.7
    v2v_hold: bool = False
    v2v_rate_hz: float = 25.0

    def __post_init__(self):
        for rate in (self.radar_rate_hz, self.v2v_rate_hz):
            if not (math.isfinite(rate) and rate > 0.0):
                raise ValueError("hold rates must be finite and > 0")


class MeasurementModel:
    """Stateful sample-and-hold of the radar and V2V channels.

    ``sample`` maps exact measurement values at time t to what the controller
    sees: unchanged when the holds are off, otherwise the values captured at
    the most recent refresh instant of each channel.
    """

    def __init__(self, options: MeasurementOptions):
        self.options = options
        self._next_radar = 0.0
        self._next_v2v = 0.0
        self._radar: tuple[float, float] | None = None
        self._v2v: tuple[float, float, float] | None = None

    def sample(
        self,
        t: float,
        delta: float,
        delta_dot: float,
        predecessor_v: float,
        predecessor_a: float,
        predecessor_u_delayed: float,
    ) -> tuple[float, float, float, float, float]:
        if self.options.radar_hold:
            if t >= self._next_radar:
                self._radar = (delta, delta_dot)
                self._next_radar += 1.0 / self.options.radar_rate_hz
            delta, delta_dot = self._radar
        if self.options.v2v_hold:
            if t >= self._next_v2v:
                self._v2v = (predecessor_v, predecessor_a, predecessor_u_delayed)
                self._next_v2v += 1.0 / self.options.v2v_rate_hz
            predecessor_v, predecessor_a, predecessor_u_delayed = self._v2v
        return delta, delta_dot, predecessor_v, predecessor_a, predecessor_u_delayed


@dataclass(frozen=True)
class VehicleSetup:
    """Initial condition of one vehicle; history defaults to all zeros."""

    params: VehicleParams
    state: VehicleState = field(default_factory=VehicleState)
    history: InputHistory | None = None


@dataclass(frozen=True)
class PlatoonConfig:
    """Vehicles (index 0 the leader), per-follower policies and controllers,
    sample period and horizon.  Every phi must be an integer multiple of Ts."""

    vehicles: tuple[VehicleSetup, ...]
    policies: tuple[SpacingPolicy, ...]
    controllers: tuple[ControllerSpec, ...]
    ts: float
    horizon: float
    measurement: MeasurementOptions = field(default_factory=MeasurementOptions)
    clamp_reverse: bool = False

    def __post_init__(self):
        if len(self.vehicles) < 1:
            raise ValueError("need at least the leader vehicle")
        nf = len(self.vehicles) - 1
        if len(self.policies) != nf or len(self.controllers) != nf:
            raise ValueError(
                f"{nf} followers need {nf} policies and controllers, got "
                f"{len(self.policies)} / {len(self.controllers)}"
            )
        if not all(math.isfinite(x) and x > 0.0 for x in (self.ts, self.horizon)):
            raise ValueError("ts and horizon must be finite and > 0")
        for setup in self.vehicles:
            d = delay_steps(setup.params, self.ts)  # raises DelayGranularityError
            if setup.history is not None and setup.history.depth != d:
                raise HistoryDepthError(
                    f"history depth {setup.history.depth} != phi/Ts = {d}"
                )
        for f, (policy, spec) in enumerate(zip(self.policies, self.controllers)):
            if spec.policy != policy:
                raise ValueError(f"controller {f + 1} is for a different policy")
            if spec.ego != self.vehicles[f + 1].params:
                raise ValueError(f"controller {f + 1} ego params mismatch")
            if (
                spec.predecessor is not None
                and spec.predecessor != self.vehicles[f].params
            ):
                raise ValueError(f"controller {f + 1} predecessor params mismatch")


@dataclass(frozen=True)
class TrajectoryLog:
    """Uniformly sampled trajectories: per-vehicle q, v, a, u as
    (n_samples, n_vehicles) columns and per-follower e, delta, delta_ref."""

    t: np.ndarray
    q: np.ndarray
    v: np.ndarray
    a: np.ndarray
    u: np.ndarray
    e: np.ndarray
    delta: np.ndarray
    delta_ref: np.ndarray
    ts: float

    @property
    def n_vehicles(self) -> int:
        return self.q.shape[1]

    @property
    def n_followers(self) -> int:
        return self.e.shape[1]


def _vehicle_model(setup: VehicleSetup, ts: float):
    """(Phi, Gamma, Phi^d, prediction weights most recent first, input
    history) of one vehicle as Python floats, for the scalar stepper."""
    model = discretize(setup.params, ts)
    d = delay_steps(setup.params, ts)
    phi_d, w_oldest_first = prediction_weights(model, d)
    history = setup.history or InputHistory.zeros(d, ts)
    return (
        model.Phi.tolist(),
        model.Gamma.tolist(),
        phi_d.tolist(),
        list(zip(*w_oldest_first[:, ::-1].tolist())),
        deque(history.samples, maxlen=d),
    )


def run(config: PlatoonConfig, leader: LeaderProfile) -> TrajectoryLog:
    """Simulate the platoon over the horizon; deterministic in its inputs."""
    ts = config.ts
    n_steps = int(round(config.horizon / ts))
    nv = len(config.vehicles)
    phis, gammas, phi_ds, weights, hists = zip(
        *(_vehicle_model(setup, ts) for setup in config.vehicles)
    )
    tau = [setup.params.tau for setup in config.vehicles]
    x = [setup.state.as_array().tolist() for setup in config.vehicles]
    opts = config.measurement
    holds = None
    if opts.radar_hold or opts.v2v_hold:
        holds = [MeasurementModel(opts) for _ in config.policies]

    t_log, x_log, u_log, e_log, delta_log, dref_log = [], [], [], [], [], []
    u_cmd = [0.0] * nv
    for k in range(n_steps + 1):
        t = k * ts
        u_cmd[0] = leader_input(leader, t, x[0][1])
        e_row, delta_row, dref_row = [], [], []
        # followers front to back, all using predecessor values at time t
        for i in range(1, nv):
            f = i - 1
            q, v, a = x[i]
            delta = x[f][0] - q
            delta_dot = x[f][1] - v
            pred_a = x[f][2]
            pred_u = hists[f][0] if hists[f].maxlen else u_cmd[f]
            delta_m, delta_dot_m = delta, delta_dot
            if holds is not None:
                delta_m, delta_dot_m, _, pred_a, pred_u = holds[f].sample(
                    t, delta, delta_dot, x[f][1], pred_a, pred_u
                )

            # exact d-step prediction of the ego state
            p0, p1, p2 = phi_ds[i]
            qh = p0[0] * q + p0[1] * v + p0[2] * a
            vh = p1[0] * q + p1[1] * v + p1[2] * a
            ah = p2[0] * q + p2[1] * v + p2[2] * a
            for (wq, wv, wa), um in zip(weights[i], reversed(hists[i])):
                qh += wq * um
                vh += wv * um
                ah += wa * um

            policy = config.policies[f]
            gains = config.controllers[f].gains
            delta_adj = delta_m - policy.standstill
            if policy.kind is PolicyKind.DELAYED_CONSTANT:
                e, edot, eddot = dc_errors(delta_adj, delta_dot_m, q, v, qh, vh, ah, pred_a)
                u = dc_control(
                    tau[i], tau[f], gains.k_p, gains.k_d, gains.k_dd,
                    e, edot, eddot, pred_a, ah, pred_u,
                )
                dref = (qh - q) + policy.standstill
            elif policy.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
                e, edot = dch_errors(policy.h_v, delta_adj, delta_dot_m, vh, ah)
                u = dch_control(tau[i], policy.h_v, gains.k_p, gains.k_d, e, edot, pred_a, a, ah)
                dref = policy.h_v * vh + policy.standstill
            else:
                e = ext_error(policy.h_v, policy.h_a, delta_adj, v, ah)
                u = ext_control(tau[i], policy.h_v, policy.h_a, gains.k_p, e, delta_dot_m, a, ah)
                dref = policy.h_v * v + policy.h_a * ah + policy.standstill
            u_cmd[i] = u
            e_row.append(e)
            delta_row.append(delta)
            dref_row.append(dref)

        t_log.append(t)
        x_log.append(x[:])  # rows of x are replaced, never mutated
        u_log.append(u_cmd[:])
        e_log.append(e_row)
        delta_log.append(delta_row)
        dref_log.append(dref_row)
        if k == n_steps:
            break

        # advance every vehicle one exact ZOH step with its delayed input
        for i in range(nv):
            p0, p1, p2 = phis[i]
            g = gammas[i]
            hist = hists[i]
            ud = hist[0] if hist.maxlen else u_cmd[i]
            q, v, a = x[i]
            qn = p0[0] * q + p0[1] * v + p0[2] * a + g[0] * ud
            vn = p1[0] * q + p1[1] * v + p1[2] * a + g[1] * ud
            an = p2[0] * q + p2[1] * v + p2[2] * a + g[2] * ud
            if config.clamp_reverse and vn < 0.0:
                vn = 0.0
                if an < 0.0:
                    an = 0.0
            x[i] = [qn, vn, an]
            hist.append(u_cmd[i])  # a zero-length deque drops it

    states = np.array(x_log).reshape(n_steps + 1, nv, 3)
    nf = nv - 1
    return TrajectoryLog(
        np.array(t_log),
        states[:, :, 0].copy(),
        states[:, :, 1].copy(),
        states[:, :, 2].copy(),
        np.array(u_log),
        np.array(e_log).reshape(n_steps + 1, nf),
        np.array(delta_log).reshape(n_steps + 1, nf),
        np.array(dref_log).reshape(n_steps + 1, nf),
        ts,
    )
