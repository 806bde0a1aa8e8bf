"""Discrete-time closed-loop simulation of an N+1 vehicle platoon.

Controllers are the continuous-time laws evaluated at the 100 Hz-class
sample instants with a zero-order hold; vehicle propagation between samples
is exact.  At each sample the leader input is computed first, then the
followers' inputs front to back, each from predecessor values of the same
sample instant (ideal channels); optional sample-and-hold flags emulate the
coarser radar and V2V rates, both off by default.  A leader segment applies
u = amplitude + gain (v_ref - v), a cruise with amplitude 0, a pulse gain 0.

The float core steps the platoon one vehicle at a time, in Python floats:
the leader over every sample, then each follower over every sample.  That is
exact because the control is decentralized: follower i at sample k reads its
own state and input history and its predecessor's q, v, a and applied input
at k, nothing of vehicle i+1 and nothing of vehicle i-1 later than k.  So the
predecessor's finished columns hold every value the follower needs.
Everything a run does not change is bound before a vehicle's loop: the ZOH
coefficients, which ``dynamics.zoh_coefficients`` gives as the floats that
``discretize`` puts into its arrays, the prediction coefficients, and the
law that ``controllers.tracking_law`` returns, the function
``controllers.control`` calls too.  Phi and Phi^d are upper triangular with
exact ones at [0, 0] and [1, 1], so the step is q + p01 v + p02 a + g0 ud,
v + p12 a + g1 ud, p22 a + g2 ud and the free response q + d01 v + d02 a,
v + d12 a, d22 a: the products by an exact 0 or 1 are left out and the
rest keep their order, so every finite value is that of the full products,
bit for bit, and a diverged inf is not turned into nan by 0 inf.  The hold decides
once per run at which samples each channel refreshes, for every follower at
once.  The core yields each vehicle's columns as soon as its loop ends:
``run`` copies them into the preallocated arrays of its ``TrajectoryLog``,
so only the predecessor's trajectory stays in Python floats, and
``run_columns`` keeps them as ``array('d')`` columns, the trajectory CSV's
source.  This module imports no numpy: ``run`` imports it for the log, and a
constant-policy follower through ``discretize`` and ``prediction_weights``;
a platoon without one runs through ``run_columns`` on the standard library
alone.  ``open_loop_step_response`` is a one-vehicle ``run``, so the core and
``dynamics.step`` contain the only ZOH steps of the package.

The prediction x(k + d) = Phi^d x(k) + s_k adds to the free response the
forced one, s_k = sum_{j=1..d} Phi^{j-1} Gamma u(k - j), the inputs still
in the delay window.  A constant-policy follower sums it over the window at
every sample (O(d) per step).  A headway follower carries it instead:

    s_{k+1} = Phi s_k + Gamma u_k - Phi^d Gamma u_{k-d}

is exact, since the window gains u_k and loses u_{k-d}, and s holds inputs
only, so the reverse clamp, which acts on the state, never enters it
(Manitius & Olbrot, IEEE TAC 24, 1979).  Phi is upper triangular with exact
zeros and its v row is (0, 1, Phi[1, 2]), so the v and a rows that the DCH
and extended laws read update from each other alone, O(1) per step.  Every
constant they read comes from d steps of the same recursion, with no matrix
product: the v and a rows of Phi^d from s = e_a and no input, those of c =
Phi^d Gamma from them, and s_0 from s = 0 fed the initial history
(``_headway_constants``).  The constant policy keeps the window sum, with the
weights of ``predictor.prediction_weights``: its law also reads the q row,
which the recursion would carry through Phi's double eigenvalue 1, so
rounding could drift there quadratically in k; and its tracking error of
matched vehicles is zero in exact arithmetic, so its logged e is the sum's
rounding alone, which perfbench's cli_session check compares to 1e-9 of its
own size; that check accepts only the rounding of numpy's weights.

``tests/oracles.py`` keeps the scalar loop over samples that this replaced
as ``run_reference``, with its own copy of the three laws, of the leader
law (in two branches) and of the hold (one per follower), and the window
sum for every policy.  The leader and the constant-policy followers ahead
of the first headway follower get identical logs from both; every other
column agrees to 1e-12 of the run's largest |q|, |v|, |a|, |u|.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections import deque
from typing import TYPE_CHECKING, NamedTuple

from ._record import Record
from .controllers import ControllerSpec, tracking_law
from .dynamics import (
    MAX_SAMPLES,
    InputHistory,
    VehicleParams,
    VehicleState,
    delay_steps,
    discretize,
    zoh_coefficients,
)
from .errors import HistoryDepthError
from .predictor import prediction_weights
from .spacing import PolicyKind, SpacingPolicy

if TYPE_CHECKING:
    from collections.abc import Iterator

    import numpy as np

__all__ = [
    "LeaderSegment",
    "LeaderProfile",
    "leader_input",
    "MeasurementOptions",
    "VehicleSetup",
    "PlatoonConfig",
    "TrajectoryLog",
    "Columns",
    "run_columns",
    "run",
    "MAX_SAMPLES",
    "StepResponse",
    "open_loop_step_response",
]

MAX_LOG_VALUES = 11 * MAX_SAMPLES  # logged values of a run: MAX_SAMPLES two-vehicle samples


class LeaderSegment(Record):
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


class LeaderProfile(Record):
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


class MeasurementOptions(Record):
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


class VehicleSetup(Record):
    """Initial condition of one vehicle; history defaults to all zeros."""

    params: VehicleParams
    state: VehicleState = VehicleState()  # shared: records are immutable
    history: InputHistory | None = None


class PlatoonConfig(Record):
    """Vehicles (index 0 the leader), per-follower policies and controllers,
    sample period and horizon.  Every phi must be an integer multiple of Ts."""

    vehicles: tuple[VehicleSetup, ...]
    policies: tuple[SpacingPolicy, ...]
    controllers: tuple[ControllerSpec, ...]
    ts: float
    horizon: float
    measurement: MeasurementOptions = MeasurementOptions()
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


class TrajectoryLog(Record):
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


class Columns(NamedTuple):
    """A run's trajectories on floats, as ``run_columns`` returns them: the
    sample times, then per vehicle a column of each of q, v, a, u and per
    follower of e, delta, delta_ref, each column an ``array('d')``."""

    t: array
    q: list[array]
    v: list[array]
    a: list[array]
    u: list[array]
    e: list[array]
    delta: list[array]
    delta_ref: list[array]


def _refreshes(hold: bool, rate_hz: float, ts: float, n: int) -> list[bool]:
    """Per sample, whether a sensor channel refreshes: at t >= its next
    instant, which then moves on by the hold period.  Without a hold the
    period is 0 and every sample refreshes."""
    period = 1.0 / rate_hz if hold else 0.0
    due, flags = 0.0, []
    for k in range(n):
        fresh = k * ts >= due
        if fresh:
            due += period
        flags.append(fresh)
    return flags


def _sample_count(config: PlatoonConfig) -> int:
    return int(round(config.horizon / config.ts)) + 1


def _headway_constants(coeffs: tuple[float, ...], history: list[float]) -> tuple[float, ...]:
    """(d12, d22, c1, c2, sv, sa): the v and a rows of Phi^d's a column and
    of c = Phi^d Gamma, and of the initial forced response s_0 = W @ history,
    by d steps of a headway follower's recursion s <- Phi s + Gamma u, d the
    length of history (oldest first).

    From s = e_a with u = 0 the recursion gives Phi^d e_a = (d02, d12,
    d22); Phi^d's v row is (0, 1, d12) and its a row (0, 0, d22), so c =
    (g1 + d12 g2, d22 g2) in those rows.  From s = 0 fed the history it
    gives s_0.  Products by Phi's exact zeros and ones are left out."""
    _, _, p12, p22, _, g1, g2 = coeffs
    d12, d22, sv, sa = 0.0, 1.0, 0.0, 0.0
    for um in history:
        d12, d22 = d12 + p12 * d22, p22 * d22
        sv, sa = sv + p12 * sa + g1 * um, p22 * sa + g2 * um
    return d12, d22, g1 + d12 * g2, d22 * g2, sv, sa


def _vehicle_columns(config: PlatoonConfig, leader: LeaderProfile) -> Iterator[tuple[list, ...]]:
    """The float core of ``run``: per vehicle, front to back, the lists of
    its q, v, a, u and, for a follower, e and delta_ref less the standstill
    distance, each over every sample, yielded as soon as its loop ends.
    numpy is imported only for a constant-policy follower's prediction
    weights."""
    ts = config.ts
    n = _sample_count(config)
    # sample-and-hold: the same refresh instants for every follower; radar
    # holds (delta, delta_dot), v2v the predecessor's (a, applied u)
    opts = config.measurement
    radar = _refreshes(opts.radar_hold, opts.radar_rate_hz, ts, n)
    v2v = _refreshes(opts.v2v_hold, opts.v2v_rate_hz, ts, n)
    clamp = config.clamp_reverse
    for i, setup in enumerate(config.vehicles):
        d = delay_steps(setup.params, ts)
        history = list(setup.history.samples) if setup.history else [0.0] * d
        # buffered inputs most recent first, the order of the prediction sum
        hist = deque(reversed(history))
        # Phi and Phi^d are upper triangular with exact ones at [0, 0] and
        # [1, 1]: only their other entries are multiplied
        coeffs = p01, p02, p12, p22, g0, g1, g2 = zoh_coefficients(setup.params, ts)
        state = setup.state
        q, v, a = state.q, state.v, state.a
        qs, vs, as_, us, es, drefs = [], [], [], [], [], []
        fir = True  # the leader keeps no forced response
        if i:
            f = i - 1
            policy = config.policies[f]
            standstill = policy.standstill
            fir = policy.kind is PolicyKind.DELAYED_CONSTANT
            law = tracking_law(config.controllers[f])
            if fir:
                phi_d, w = prediction_weights(discretize(setup.params, ts), d)
                _, d01, d02, _, _, d12, _, _, d22 = phi_d.ravel().tolist()
                # (q, v, a) weights, most recent input first
                weights = w[:, ::-1].T.tolist()
            else:
                d12, d22, c1, c2, sv, sa = _headway_constants(coeffs, history)
        for k in range(n):
            qs.append(q)
            vs.append(v)
            as_.append(a)
            if i:
                # sample 0 refreshes both channels
                if radar[k]:
                    delta = qp[k] - q - standstill
                    delta_dot = vp[k] - v
                if v2v[k]:
                    pred_a, pred_u = ap[k], up[k]
                # exact d-step prediction of the ego state: the free response
                # plus the forced one, summed over the window (constant
                # policy) or carried by the recursion (headway policies, whose
                # laws read no qh; the extended law reads no vh either)
                vh = v + d12 * a
                ah = d22 * a
                if fir:
                    qh = q + d01 * v + d02 * a
                    for (wq, wv, wa), um in zip(weights, hist):
                        qh += wq * um
                        vh += wv * um
                        ah += wa * um
                else:
                    qh = 0.0
                    vh += sv
                    ah += sa
                u, e, dref = law(q, v, a, qh, vh, ah, delta, delta_dot, pred_a, pred_u)
                es.append(e)
                drefs.append(dref)
            else:
                u = leader_input(leader, k * ts, v)
            us.append(u)
            # one exact ZOH step with the input of d samples ago (this one at
            # d = 0); the state after the last sample is never logged
            hist.appendleft(u)
            ud = hist.pop()
            if not fir:
                # s <- Phi s + Gamma u - Phi^d Gamma ud, the two rows read
                sv, sa = sv + p12 * sa + g1 * u - c1 * ud, p22 * sa + g2 * u - c2 * ud
            q, v, a = q + p01 * v + p02 * a + g0 * ud, v + p12 * a + g1 * ud, p22 * a + g2 * ud
            if clamp and v < 0.0:
                v = 0.0
                if a < 0.0:
                    a = 0.0
        yield (qs, vs, as_, us, es, drefs) if i else (qs, vs, as_, us)
        # the successor reads these at samples 0..n-1; the applied input is
        # the initial history, then u
        qp, vp, ap, up = qs, vs, as_, history + us


def run_columns(config: PlatoonConfig, leader: LeaderProfile) -> Columns:
    """The run's trajectories as ``Columns`` of floats, the same values as
    ``run``'s log; numpy is imported only for a constant-policy follower's
    prediction weights."""
    n = _sample_count(config)
    cols = Columns(array("d", [k * config.ts for k in range(n)]), [], [], [], [], [], [], [])
    for i, lists in enumerate(_vehicle_columns(config, leader)):
        for column, values in zip(cols[1:6], lists):
            column.append(array("d", values))
        if i:
            # a diverged run overflows silently here, as everywhere on floats
            standstill = config.policies[i - 1].standstill
            cols.delta.append(array("d", map(operator.sub, cols.q[i - 1], cols.q[i])))
            cols.delta_ref.append(array("d", [r + standstill for r in lists[5]]))
    return cols


def run(config: PlatoonConfig, leader: LeaderProfile) -> TrajectoryLog:
    """Simulate the platoon over the horizon; deterministic in its inputs.

    Vehicle by vehicle, front to back, each over every sample: the leader
    applies its profile's law; a follower reads the finished columns of its
    predecessor (q, v, a and the applied input) through the radar and V2V
    holds, predicts its state at t + phi and calls its bound
    ``tracking_law`` on the standstill-adjusted range.  The prediction's
    forced response is the sum over the buffered inputs for the constant
    policy, and for the headway policies the v and a rows of the recursion
    s <- Phi s + Gamma u - Phi^d Gamma u_d, updated after each step with
    the input u just computed and the input u_d of d samples ago that the
    step applies (see the module docstring).  Then the vehicle takes one
    exact ZOH step with its delayed input; neither the step nor the free
    response multiplies by the exact zeros and ones of Phi and Phi^d.  The
    order is exact: a follower at sample k reads nothing of its successor
    and nothing of its predecessor later than k.  The stepping runs on
    floats; each vehicle's columns go into the log's preallocated arrays as
    soon as its loop ends.
    """
    import numpy as np

    ts = config.ts
    n = _sample_count(config)
    nv, nf = len(config.vehicles), len(config.vehicles) - 1
    log = TrajectoryLog(
        np.arange(n) * ts, *(np.empty((n, m)) for m in (nv,) * 4 + (nf,) * 3), ts
    )
    for i, lists in enumerate(_vehicle_columns(config, leader)):
        log.q[:, i], log.v[:, i], log.a[:, i], log.u[:, i] = lists[:4]
        if i:
            f = i - 1
            log.e[:, f] = lists[4]
            # delta and delta_ref, one array operation each; a diverged run
            # overflows silently there as Python floats do
            with np.errstate(over="ignore", invalid="ignore"):
                np.subtract(log.q[:, f], log.q[:, i], out=log.delta[:, f])
                np.add(lists[5], config.policies[f].standstill, out=log.delta_ref[:, f])
    return log


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
