"""References that the tests compare the package against: closed forms, the
convolution-integral predictor, the continuous-time (A, B) of the vehicle
model, the generic controller indexed by the relative degrees of the policy
rows, the float-loop simulator over samples that `delayplatoon.run` replaced
with its loop over vehicles, a golden-section search of every grid maximum
of |T|, which evaluates only true |T| values and so gives a lower bound that
`refined_peak`'s certified peak must reach, `np.polyval` evaluations of the
quasi-polynomial, which its Horner rows must match bitwise, the fixed-grid
winding count that the adaptive `_root_count` must agree with, the numpy
root bound, elementwise over s, that the scalar `_root_bound` replaced, the
256-point circle whose winding the Rouché multiplicity must equal, the
per-call build of the pseudospectral generator that `_generator_matrix`
replaced with a cached Chebyshev block, and the Lambert function at its
branch point -1/e from its series in the exact e x + 1, where scipy's
`lambertw` loses W_-1.

The spacing errors, tracking laws, leader law and sensor hold here are
written out independently of `delayplatoon.controllers.tracking_law`, of
`simulator.leader_input` and of `run`'s hold: nothing below imports them
from the package, so a wrong law or hold there shows as a disagreement.  The
float loop keeps the leader law in two branches (a cruise tracks v_ref, a
pulse applies its amplitude) where the package has one affine law, and one
hold per follower, where `run` decides each channel's refresh samples once
per run for all followers.  It steps every vehicle at each sample, where
`run` runs each vehicle over every sample in turn, which is exact because a
follower reads nothing of its successor and nothing of its predecessor
later than the current sample.  It sums every follower's prediction over
the delay window, where `run` carries a headway follower's forced response
by a one-step recursion: the leader and the constant-policy followers ahead
of the first headway follower get identical logs, every other column agrees
to 1e-12 of the run's largest |q|, |v|, |a|, |u|."""

import cmath
import decimal
import math
from collections import deque

import numpy as np
import scipy.linalg
import scipy.special

from delayplatoon.controllers import ControlInputs, ControllerGains, validate_gains
from delayplatoon.dynamics import InputHistory, VehicleParams, delay_steps, discretize
from delayplatoon.errors import ChannelError, DegreeError, RefinementError
from delayplatoon.analysis import transfer_magnitude
from delayplatoon.predictor import prediction_weights
from delayplatoon.simulator import LeaderProfile, PlatoonConfig, TrajectoryLog, VehicleSetup
from delayplatoon.spacing import PolicyKind, PolicyRows


def dch_rightmost_root(h_v: float, phi: float) -> complex:
    """Rightmost root of lambda + e^{-phi lambda} / h_v in closed form.

    lambda = W(-phi / h_v) / phi for every branch W of the Lambert function;
    the principal branch W_0 has the largest real part (Shinozaki & Mori,
    Automatica 2006).  Returned with Im >= 0.  At the branch point -1/e
    (h_v = e phi, a double root) scipy's iteration divides by W' = inf and
    returns nan; W_0(-1/e) = -1 there.
    """
    x = -phi / h_v
    w = complex(scipy.special.lambertw(x, 0))
    if not np.isfinite(w) and abs(x + math.exp(-1.0)) <= 1e-15:
        w = -1.0
    return complex(w.real, abs(w.imag)) / phi


BRANCH_POINT_SERIES = (-1.0, 1.0, -1.0 / 3.0, 11.0 / 72.0, -43.0 / 540.0, 769.0 / 17280.0)


def lambert_w_near_branch_point(x: float, k: int) -> complex:
    """W_k(x) for k in {0, -1} and x within 1e-12 of -1/e.

    The series sum_j mu_j p^j in p = +-sqrt(2 (e x + 1)), + on W_0 and -
    on W_-1 (Corless, Gonnet, Hare, Jeffrey & Knuth, Adv. Comput. Math. 5,
    1996, eq. 4.22), with e x + 1 from the exact x in 50-digit decimal
    arithmetic: p is real above -1/e and imaginary below it.  With |p| <=
    2.4e-6 the terms past p^5 are below 1e-33.  Within 1e-8 above -1/e,
    scipy's `lambertw(x, -1)` is off by up to 4.5e7 times the rounding that
    its condition number 1 / |1 + W| allows.
    """
    with decimal.localcontext(decimal.Context(prec=50)):
        t = float(2 * (decimal.Decimal(1).exp() * decimal.Decimal(x) + 1))
    p = cmath.sqrt(t) if k == 0 else -cmath.sqrt(t)
    w = 0j
    for mu in reversed(BRANCH_POINT_SERIES):
        w = w * p + mu
    return w


def predict_acceleration_continuous(params, a_now: float, history: InputHistory) -> float:
    """a(t + phi) from the convolution integral, closed form per ZOH segment.

    a(t+phi) = e^{-phi/tau} a(t) + int_{t-phi}^{t} (1/tau) e^{-(t-s)/tau} u(s) ds,
    where u is piecewise constant on the sample grid.  Agrees with the
    acceleration component of predict() to rounding.
    """
    tau = params.tau
    ts = history.sample_period
    d = history.depth
    acc = math.exp(-d * ts / tau) * a_now
    # segment j covers s in [t - j*Ts, t - (j-1)*Ts), value samples[d - j]
    for j in range(1, d + 1):
        seg = math.exp(-(j - 1) * ts / tau) - math.exp(-j * ts / tau)
        acc += history.samples[d - j] * seg
    return acc


def error_dynamics_reference(
    rho_bar: int,
    gains: ControllerGains,
    e0: float,
    horizon: float,
    ts: float,
) -> np.ndarray:
    """Analytic e(t) at the sample grid for the closed-loop error ODE.

    The controllers realize e' = -k_p e (rho_bar 1), e'' = -k_d e' - k_p e
    (rho_bar 2) or e''' = -k_dd e'' - k_d e' - k_p e (rho_bar 3) from
    initial condition (e0, 0, 0).  Evaluated through the exponential of the
    companion matrix, which also covers repeated or complex eigenvalues.
    """
    violations = validate_gains(rho_bar, gains)
    if violations:
        raise ValueError("invalid gains: " + "; ".join(violations))
    if rho_bar == 1:
        companion = np.array([[-gains.k_p]])
    elif rho_bar == 2:
        companion = np.array([[0.0, 1.0], [-gains.k_p, -gains.k_d]])
    elif rho_bar == 3:
        companion = np.array(
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-gains.k_p, -gains.k_d, -gains.k_dd]]
        )
    else:
        raise DegreeError(f"unsupported relative degree {rho_bar}")
    n = int(round(horizon / ts))
    step_matrix = scipy.linalg.expm(companion * ts)
    y = np.zeros(companion.shape[0])
    y[0] = e0
    series = np.empty(n + 1)
    series[0] = y[0]
    for k in range(n):
        y = step_matrix @ y
        series[k + 1] = y[0]
    return series


def system_matrices(params: VehicleParams) -> tuple[np.ndarray, np.ndarray]:
    """Continuous-time (A, B) of the delayed third-order model."""
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0 / params.tau]])
    b = np.array([0.0, 0.0, 1.0 / params.tau])
    return a, b


def spacing_error_from_rows(
    rows: PolicyRows, delta: float, x: np.ndarray, x_pred: np.ndarray
) -> float:
    """e = Delta - H x - H_bar x(t+phi); delta is standstill-adjusted."""
    return float(delta - np.asarray(rows.H) @ x - np.asarray(rows.H_bar) @ x_pred)


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
    Reproduces the policy-matched laws to rounding when given their rows.
    """
    a_mat, b_vec = system_matrices(params)
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
        e_ddot = inputs.predecessor_a - inputs.ego_state.a - h @ a2 @ x - hb @ a2 @ xp
        num = (
            (inputs.predecessor_u_delayed - inputs.predecessor_a) / predecessor.tau
            - hb @ a3 @ xp
            + gains.k_p * e
            + gains.k_d * e_dot
            + gains.k_dd * e_ddot
        )
        return float(num / (hb @ a2 @ b_vec))
    raise DegreeError(f"unsupported relative degree {rho_bar}")


def _vehicle_model(setup: VehicleSetup, ts: float):
    """(Phi, Gamma, Phi^d, prediction weights most recent first, input
    history) of one vehicle as Python floats, for the scalar stepper."""
    model = discretize(setup.params, ts)
    d = delay_steps(setup.params, ts)
    phi_d, w_oldest_first = prediction_weights(model, d)
    history = setup.history or InputHistory((0.0,) * d, ts)
    return (
        model.Phi.tolist(),
        model.Gamma.tolist(),
        phi_d.tolist(),
        list(zip(*w_oldest_first[:, ::-1].tolist())),
        deque(history.samples, maxlen=d),
    )


def _leader_input(leader: LeaderProfile, t: float, v: float) -> float:
    """Leader input at time t: gain * (v_ref - v) in a cruise segment (gain
    > 0), the amplitude in a pulse, 0 past the profile end."""
    end = 0.0
    for seg in leader.segments:
        end += seg.duration
        if t < end:
            return seg.gain * (seg.v_ref - v) if seg.gain > 0.0 else seg.amplitude
    return 0.0


def run_reference(config: PlatoonConfig, leader: LeaderProfile) -> TrajectoryLog:
    """The closed loop as one interpreted loop over Python floats.

    Within a step the leader input is computed first and the followers run
    front to back, each predicting its state and evaluating its policy's
    spacing errors and law, written out here, on the values of that sample
    instant; the leader law is written out here too.  Reference for
    ``delayplatoon.run``, ``simulator.leader_input`` and
    ``controllers.tracking_law``: every value is computed by the same
    operations in the same order, the leader law's in its other form, and
    the prediction by the window sum for every policy, so the leader and the
    leading run of constant-policy followers are identical and the headway
    followers (and all after them) agree to rounding.
    """
    ts = config.ts
    n_steps = int(round(config.horizon / ts))
    nv = len(config.vehicles)
    phis, gammas, phi_ds, weights, hists = zip(
        *(_vehicle_model(setup, ts) for setup in config.vehicles)
    )
    tau = [setup.params.tau for setup in config.vehicles]
    x = [setup.state.as_array().tolist() for setup in config.vehicles]
    # each follower's own sample-and-hold: next refresh instant and held
    # values of the radar (delta, delta_dot) and V2V (a, delayed u) channels
    opts = config.measurement
    nf = nv - 1
    radar_next, v2v_next = [0.0] * nf, [0.0] * nf
    radar_held, v2v_held = [None] * nf, [None] * nf

    t_log, x_log, u_log, e_log, delta_log, dref_log = [], [], [], [], [], []
    u_cmd = [0.0] * nv
    for k in range(n_steps + 1):
        t = k * ts
        u_cmd[0] = _leader_input(leader, t, x[0][1])
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
            if opts.radar_hold:
                if t >= radar_next[f]:
                    radar_held[f] = (delta, delta_dot)
                    radar_next[f] += 1.0 / opts.radar_rate_hz
                delta_m, delta_dot_m = radar_held[f]
            if opts.v2v_hold:
                if t >= v2v_next[f]:
                    v2v_held[f] = (pred_a, pred_u)
                    v2v_next[f] += 1.0 / opts.v2v_rate_hz
                pred_a, pred_u = v2v_held[f]

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
            # the policy's spacing errors and law, written out here
            h_v, h_a = policy.h_v, policy.h_a
            if policy.kind is PolicyKind.DELAYED_CONSTANT:
                e = delta_adj + q - qh
                edot = delta_dot_m + v - vh
                eddot = pred_a - ah
                u = (
                    (tau[i] / tau[f]) * (pred_u - pred_a)
                    + ah
                    + tau[i] * (gains.k_p * e + gains.k_d * edot + gains.k_dd * eddot)
                )
                dref = (qh - q) + policy.standstill
            elif policy.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
                e = delta_adj - h_v * vh
                edot = delta_dot_m - h_v * ah
                u = ah + (tau[i] / h_v) * (pred_a - a + gains.k_p * e + gains.k_d * edot)
                dref = h_v * vh + policy.standstill
            else:
                e = delta_adj - h_v * v - h_a * ah
                u = ah + (tau[i] / h_a) * (delta_dot_m - h_v * a + gains.k_p * e)
                dref = h_v * v + h_a * ah + policy.standstill
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


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo: float, hi: float, rel_tol: float = 1e-10):
    """Maximize a unimodal f on [lo, hi]; returns (x, f(x)).

    The interval is shrunk until its width is below rel_tol relative to the
    magnitude of the abscissa (with an absolute floor for intervals at 0).
    """
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rel_tol * max(abs(a), abs(b), 1e-30):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    if fc >= fd:
        return c, fc
    return d, fd


def refined_peak_reference(policy, params, grid: np.ndarray):
    """A lower bound of the peak of |T| on the grid's range: one
    golden-section loop per local maximum of |T| on the grid, |T| evaluated
    one abscissa per call through `transfer_magnitude`."""
    mags = transfer_magnitude(policy, params, grid)

    def mag(w: float) -> float:
        return transfer_magnitude(policy, params, w)

    n = len(grid)
    best_w = float(grid[int(np.argmax(mags))])
    best_m = float(np.max(mags))
    candidates = set(
        (np.flatnonzero((mags[1:-1] >= mags[:-2]) & (mags[1:-1] >= mags[2:])) + 1).tolist()
    )
    if mags[0] >= mags[1]:
        candidates.add(0)
    if mags[-1] >= mags[-2]:
        candidates.add(n - 1)
    for idx in candidates:
        lo = grid[max(idx - 1, 0)]
        hi = grid[min(idx + 1, n - 1)]
        w_ref, m_ref = golden_section_max(mag, lo, hi, rel_tol=1e-10)
        if m_ref > best_m:
            best_w, best_m = w_ref, m_ref
    return best_w, best_m, mags


def quasi_polynomial_reference(qp, z):
    """p(z) = a(z) + b(z) e^{-phi z} by np.polyval on the coefficient tuples."""
    z = np.asarray(z, dtype=complex)
    return np.polyval(qp.a[::-1], z) + np.polyval(qp.b[::-1], z) * np.exp(-z * qp.phi)


def winding_number_reference(qp, lo: float, half: float) -> int:
    """Winding of p around 0 along the box Re in [lo, half], Im in
    [-half, half], from two fixed grids: the count over 8192 boundary points
    must lie within 1e-3 of an integer that the count over its 4096 even
    points rounds to as well.  The fixed-grid scan that `_root_count`
    replaced; RefinementError where p is not finite or 0 on a grid point, or
    where the two grids disagree."""
    corners = [complex(lo, -half), complex(half, -half), complex(half, half), complex(lo, half)]
    frac = np.arange(2048) / 2048
    z = np.concatenate([c0 + (c1 - c0) * frac for c0, c1 in zip(corners, corners[1:] + corners[:1])])
    with np.errstate(over="ignore", invalid="ignore"):
        f = qp(z)
    if not np.all(np.isfinite(f)):
        raise RefinementError("quasi-polynomial is not finite on the winding contour")
    if np.any(f == 0.0):
        raise RefinementError("root on the winding contour")

    def turns(g):
        return float(np.sum(np.angle(np.roll(g, -1) / g)) / (2.0 * math.pi))

    winding = turns(f)
    rounded = round(winding)
    if abs(winding - rounded) < 1e-3 and round(turns(f[0::2])) == rounded:
        return rounded
    raise RefinementError("winding number did not stabilize")


@np.errstate(divide="ignore", over="ignore")  # log 0 = -inf; an overflowing bound is inf
def root_bound_reference(qp, s):
    """R(s) = 2 max_j c_j^{1/(n-j)}, c_j = |a_j| + e^{-phi s} |b_j|,
    elementwise over s with numpy, in logarithms (np.logaddexp) so that
    e^{-phi s} cannot overflow; inf where R itself does.  The array bound
    that the scalar `_root_bound` replaced."""
    a, b = np.abs(qp.a[:-1]), np.abs(qp.b)
    s = np.asarray(s, dtype=float)[..., None]
    log_c = np.logaddexp(np.log(a), np.log(b) - qp.phi * s)
    return 2.0 * np.exp(np.max(log_c / np.arange(len(a), 0, -1), axis=-1))


def local_multiplicity_reference(qp, root: complex, roots) -> int:
    """Multiplicity of a root from the winding of p on a 256-point circle of
    `_local_multiplicity`'s radius, 1e-5 (1 + |root|) / max(1, phi) and at
    most a third of the distance to every other root of roots and every
    conjugate: the count must lie within 1e-3 of an integer >= 1.  The
    numerical check that the Rouché test replaced; RefinementError
    otherwise."""
    radius = 1e-5 * (1.0 + abs(root)) / max(1.0, qp.phi)
    for other in roots:
        for image in (other, other.conjugate()):
            dist = abs(root - image)
            if dist > 0.0:
                radius = min(radius, dist / 3.0)
    with np.errstate(over="ignore", invalid="ignore"):
        f = qp(root + radius * np.exp(2j * math.pi * np.arange(256) / 256))
    if not np.all(np.isfinite(f)) or np.any(f == 0.0):
        raise RefinementError(f"quasi-polynomial is not finite or 0 around root {root}")
    winding = float(np.sum(np.angle(np.roll(f, -1) / f)) / (2.0 * math.pi))
    rounded = round(winding)
    if abs(winding - rounded) < 1e-3 and rounded >= 1:
        return rounded
    raise RefinementError(f"could not certify the multiplicity of root {root}")


def generator_matrix_reference(qp, n_nodes: int) -> np.ndarray:
    """The Chebyshev pseudospectral generator of p, built from scratch on
    n_nodes + 1 Chebyshev points of [-phi, 0]: the differentiation matrix
    from the scaled points, its Kronecker block, the companion row of a and
    -b in the last block.  With phi = 0 the companion matrix of a."""
    n = len(qp.b)
    companion = np.eye(n, k=1)
    companion[-1] = np.negative(qp.a[:n])
    if qp.phi == 0.0:
        return companion
    theta = 0.5 * qp.phi * (np.cos(math.pi * np.arange(n_nodes + 1) / n_nodes) - 1.0)
    w = np.ones(n_nodes + 1)  # interpolation weights (-1)^j, halved at both ends
    w[[0, -1]] = 0.5
    w[1::2] *= -1.0
    diff = np.outer(1.0 / w, w) / (theta[:, None] - theta[None, :] + np.eye(n_nodes + 1))
    diff -= np.diag(diff.sum(axis=1))
    matrix = np.zeros(((n_nodes + 1) * n, (n_nodes + 1) * n))
    matrix[n:, :] = np.kron(diff[1:], np.eye(n))
    matrix[:n, :n] = companion
    matrix[n - 1, -n:] = np.negative(qp.b)
    return matrix
