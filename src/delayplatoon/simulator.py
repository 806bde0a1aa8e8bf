"""Discrete-time closed-loop simulation of an N+1 vehicle platoon.

Controllers are the continuous-time laws evaluated at the 100 Hz-class
sample instants with a zero-order hold; vehicle propagation between samples
is exact.  Within a step the leader input is computed first and the
followers run front to back, each using predecessor values from the same
sample instant (ideal channels); optional sample-and-hold flags emulate the
coarser radar and V2V rates, both off by default.  A leader segment applies
u = amplitude + gain (v_ref - v), a cruise with amplitude 0, a pulse gain 0.

``run`` is one loop over Python floats.  Everything a run does not change
(the ZOH and prediction coefficients, each follower's ``TrackingLaw``) is
unpacked before the loop.  Each follower's spacing errors and law come from
``controllers.track``, the same function ``controllers.control`` calls.  The
hold decides once per step whether each channel refreshes, for every
follower at once.  ``open_loop_step_response`` is a one-vehicle ``run``, so
``run`` and ``dynamics.step`` contain the only ZOH steps of the package.
``tests/oracles.py`` keeps the scalar loop this replaced as
``run_reference``, with its own copy of the three laws, of the leader law
(in two branches) and of the hold (one per follower); it computes every
value by the same operations in the same order, so the logs are identical.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .controllers import ControllerSpec, TrackingLaw, track
from .dynamics import (
    MAX_SAMPLES,
    InputHistory,
    VehicleParams,
    VehicleState,
    delay_steps,
    discretize,
)
from .errors import HistoryDepthError
from .predictor import prediction_weights
from .spacing import PolicyKind, SpacingPolicy

__all__ = [
    "LeaderSegment",
    "LeaderProfile",
    "leader_input",
    "MeasurementOptions",
    "VehicleSetup",
    "PlatoonConfig",
    "TrajectoryLog",
    "run",
    "MAX_SAMPLES",
    "StepResponse",
    "open_loop_step_response",
]

MAX_LOG_VALUES = 11 * MAX_SAMPLES  # logged values of a run: MAX_SAMPLES two-vehicle samples


@dataclass(frozen=True)
class LeaderSegment:
    """One leader-profile segment with the input u = amplitude + gain (v_ref - v):
    a closed-loop cruise has amplitude 0, an open-loop pulse gain 0."""

    duration: float
    v_ref: float = 0.0
    gain: float = 0.0
    amplitude: float = 0.0

    def __post_init__(self):
        if not (self.duration > 0.0 and math.isfinite(self.duration)):
            raise ValueError("segment duration must be finite and > 0")
        if not (all(map(math.isfinite, (self.v_ref, self.gain, self.amplitude))) and self.gain >= 0.0):
            raise ValueError("segment v_ref, gain and amplitude must be finite, and gain >= 0")

    @classmethod
    def cruise(cls, duration: float, v_ref: float, gain: float) -> "LeaderSegment":
        if gain <= 0.0:
            raise ValueError("cruise gain must be > 0")
        return cls(duration, v_ref=v_ref, gain=gain)

    @classmethod
    def pulse(cls, duration: float, amplitude: float) -> "LeaderSegment":
        return cls(duration, amplitude=amplitude)


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
    """Leader input at time t: the law of the segment holding t, 0 past the
    profile end."""
    end = 0.0
    for seg in profile.segments:
        end += seg.duration
        if t < end:
            return seg.amplitude + seg.gain * (seg.v_ref - v_leader)
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
        if not self.horizon / self.ts < MAX_SAMPLES - 0.5:  # round(horizon/ts) + 1 samples
            raise ValueError(
                f"horizon / ts = {self.horizon / self.ts:.6g} gives more than "
                f"{MAX_SAMPLES} samples"
            )
        # the log keeps q, v, a, u per vehicle and e, delta, delta_ref per follower
        n_samples = round(self.horizon / self.ts) + 1
        columns = 4 * len(self.vehicles) + 3 * nf
        if n_samples * columns > MAX_LOG_VALUES:
            raise ValueError(
                f"{n_samples} samples of {columns} logged columns exceed "
                f"{MAX_LOG_VALUES} values"
            )
        for setup in self.vehicles:
            d = delay_steps(setup.params, self.ts)  # raises DelayGranularityError
            if setup.history is None:
                continue
            if setup.history.depth != d:
                raise HistoryDepthError(
                    f"history depth {setup.history.depth} != phi/Ts = {d}"
                )
            if not math.isclose(setup.history.sample_period, self.ts, rel_tol=1e-12):
                raise HistoryDepthError(
                    f"history sample period {setup.history.sample_period} != ts {self.ts}"
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


def run(config: PlatoonConfig, leader: LeaderProfile) -> TrajectoryLog:
    """Simulate the platoon over the horizon; deterministic in its inputs.

    A step computes the leader input, then runs the followers front to
    back: each predicts its state at t + phi from its buffered inputs and
    calls ``track`` on the standstill-adjusted range; the standstill is
    added back to the reference spacing it returns.  Then every vehicle
    takes one exact ZOH step with its delayed input.
    """
    ts = config.ts
    n = int(round(config.horizon / ts)) + 1
    nv, nf = len(config.vehicles), len(config.vehicles) - 1
    models = [discretize(setup.params, ts) for setup in config.vehicles]
    depths = [delay_steps(setup.params, ts) for setup in config.vehicles]
    # buffered inputs most recent first, the order of the prediction sum;
    # a d = 0 vehicle applies its input of the same step
    hists = [
        deque(reversed(setup.history.samples) if setup.history else [0.0] * d, maxlen=d)
        for setup, d in zip(config.vehicles, depths)
    ]
    steps = [
        (model.Phi.ravel().tolist() + model.Gamma.tolist(), hist)
        for model, hist in zip(models, hists)
    ]
    followers = []
    for f, (policy, spec) in enumerate(zip(config.policies, config.controllers)):
        phi_d, w = prediction_weights(models[f + 1], depths[f + 1])
        # (q, v, a) weights, most recent input first, cut to the predicted
        # components the law reads: DCH reads v and a, the extended policy a
        weights = w[:, ::-1].T.tolist()
        if policy.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
            weights = [(wv, wa) for _, wv, wa in weights]
        elif policy.kind is PolicyKind.DELAYED_EXTENDED_HEADWAY:
            weights = [wa for _, _, wa in weights]
        followers.append((
            f + 1, TrackingLaw.of(spec), policy.standstill, phi_d.ravel().tolist(),
            weights, hists[f + 1], hists[f],
        ))
    # sample-and-hold: each channel refreshes at t >= its next instant, the
    # same instants for every follower; without a hold the period is 0 and
    # every step refreshes.  radar holds (delta, delta_dot) per follower,
    # v2v the predecessor's (a, delayed u).
    opts = config.measurement
    radar_dt = 1.0 / opts.radar_rate_hz if opts.radar_hold else 0.0
    v2v_dt = 1.0 / opts.v2v_rate_hz if opts.v2v_hold else 0.0
    radar_next = v2v_next = 0.0
    radar, v2v = [None] * nf, [None] * nf

    q, v, a = map(list, zip(*(setup.state.as_array().tolist() for setup in config.vehicles)))
    u = [0.0] * nv
    e_row, delta_row, dref_row = [0.0] * nf, [0.0] * nf, [0.0] * nf
    clamp = config.clamp_reverse
    out = []  # per step: q, v, a, u of every vehicle, e, delta, delta_ref of every follower
    for k in range(n):
        t = k * ts
        new_radar, new_v2v = t >= radar_next, t >= v2v_next
        if new_radar:
            radar_next += radar_dt
        if new_v2v:
            v2v_next += v2v_dt
        u[0] = leader_input(leader, t, v[0])
        for f, (i, law, standstill, pd, weights, hist, hist_pred) in enumerate(followers):
            qi, vi, ai = q[i], v[i], a[i]
            delta = q[f] - qi
            if new_radar:
                radar[f] = delta, v[f] - vi
            if new_v2v:
                v2v[f] = a[f], hist_pred[-1] if hist_pred.maxlen else u[f]
            delta_m, delta_dot_m = radar[f]
            pred_a, pred_u = v2v[f]
            # exact d-step prediction of the ego state, the components the law reads
            d00, d01, d02, d10, d11, d12, d20, d21, d22 = pd
            ah = d20 * qi + d21 * vi + d22 * ai
            qh = vh = 0.0
            if law.kind is PolicyKind.DELAYED_CONSTANT:
                qh = d00 * qi + d01 * vi + d02 * ai
                vh = d10 * qi + d11 * vi + d12 * ai
                for (wq, wv, wa), um in zip(weights, hist):
                    qh += wq * um
                    vh += wv * um
                    ah += wa * um
            elif law.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
                vh = d10 * qi + d11 * vi + d12 * ai
                for (wv, wa), um in zip(weights, hist):
                    vh += wv * um
                    ah += wa * um
            else:
                for wa, um in zip(weights, hist):
                    ah += wa * um
            u[i], e_row[f], dref = track(
                law, qi, vi, ai, qh, vh, ah, delta_m - standstill, delta_dot_m, pred_a, pred_u
            )
            dref_row[f] = dref + standstill
            delta_row[f] = delta
        out += q
        out += v
        out += a
        out += u
        out += e_row
        out += delta_row
        out += dref_row
        if k == n - 1:
            break
        # advance every vehicle one exact ZOH step with its delayed input
        for i, (c, hist) in enumerate(steps):
            p00, p01, p02, p10, p11, p12, p20, p21, p22, g0, g1, g2 = c
            ud = hist[-1] if hist.maxlen else u[i]
            qi, vi, ai = q[i], v[i], a[i]
            q[i] = p00 * qi + p01 * vi + p02 * ai + g0 * ud
            vn = p10 * qi + p11 * vi + p12 * ai + g1 * ud
            an = p20 * qi + p21 * vi + p22 * ai + g2 * ud
            if clamp and vn < 0.0:
                vn = 0.0
                if an < 0.0:
                    an = 0.0
            v[i], a[i] = vn, an
            hist.appendleft(u[i])  # a zero-length deque drops it

    table = np.fromiter(out, float, len(out)).reshape(n, 4 * nv + 3 * nf)
    ends = np.cumsum([0] + [nv] * 4 + [nf] * 3)
    return TrajectoryLog(
        np.arange(n) * ts,
        *(table[:, lo:hi].copy() for lo, hi in zip(ends[:-1], ends[1:])),
        ts,
    )


class StepResponse(NamedTuple):
    t: np.ndarray
    q: np.ndarray
    v: np.ndarray
    a: np.ndarray


def open_loop_step_response(
    params: VehicleParams, u_amplitude: float, horizon: float, Ts: float
) -> StepResponse:
    """Response from rest (zero state, zero history) to a constant input: a
    one-vehicle ``run`` whose leader input is one pulse over the horizon.

    The acceleration column equals u*(1 - e^{-(t-phi)/tau}) for t >= phi and
    0 before, up to rounding, since the discretization is exact.
    """
    config = PlatoonConfig((VehicleSetup(params),), (), (), Ts, horizon)
    log = run(config, LeaderProfile((LeaderSegment.pulse(horizon + Ts, u_amplitude),)))
    return StepResponse(log.t, log.q[:, 0], log.v[:, 0], log.a[:, 0])
