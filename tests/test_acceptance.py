"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test times its own work against the criterion's runtime budget
and prints a one-line verdict; run with `pytest tests/test_acceptance.py -v -s`.
"""

import contextlib
import math
import time

import numpy as np
import pytest

import delayplatoon as dp
from delayplatoon import analysis
from delayplatoon.analysis import QuasiPolynomial, SearchRegion
from delayplatoon.controllers import generic_rho_controller
from delayplatoon.spacing import PolicyKind

from oracles import error_dynamics_reference

REF_VEHICLE = dp.VehicleParams(tau=0.067, phi=0.15)

CONSTANT = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT)
DCH = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.4)
EXT = dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1.2, h_a=0.25)

CONSTANT_GAINS = dp.ControllerGains(k_p=1 / 0.067, k_d=3 / 0.067, k_dd=3 / 0.067)
DCH_GAINS = dp.ControllerGains(k_p=0.2, k_d=0.7 - 0.067 * 0.2)
EXT_GAINS = dp.ControllerGains(k_p=0.2)


@contextlib.contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{name}: runtime {elapsed:.2f} s exceeds {budget_s} s"
    print(f"{name} PASS ({elapsed:.2f} s)")


def pulse_profile(amplitude: float):
    return dp.LeaderProfile(
        (
            dp.LeaderSegment.pulse(2.0, amplitude),
            dp.LeaderSegment.pulse(2.0, -amplitude),
            dp.LeaderSegment.pulse(4.0, 0.0),
        )
    )


def two_vehicle_config(policy, gains, ts, horizon, ego=REF_VEHICLE, lead=REF_VEHICLE, lead_q=0.0):
    spec = dp.ControllerSpec(policy, gains, ego=ego, predecessor=lead)
    return dp.PlatoonConfig(
        vehicles=(
            dp.VehicleSetup(lead, dp.VehicleState(q=lead_q)),
            dp.VehicleSetup(ego),
        ),
        policies=(policy,),
        controllers=(spec,),
        ts=ts,
        horizon=horizon,
    )


def test_a01_predictor_exactness():
    """A1: d-step prediction equals d-step simulation to 1e-12."""
    with criterion("A1 predictor exactness", 1.0):
        rng = np.random.default_rng(11)
        ts, d = 0.01, 15
        model = dp.discretize(REF_VEHICLE, ts)
        worst = 0.0
        for _ in range(1000):
            x = dp.VehicleState(*rng.normal(size=3))
            hist = dp.InputHistory(tuple(rng.normal(size=d)), ts, d)
            predicted = dp.predict(model, x, hist)
            sim, h = x, hist
            for _ in range(d):
                sim = dp.step(model, sim, h.oldest)
                h = h.push(0.0)
            worst = max(
                worst,
                abs(predicted.q - sim.q),
                abs(predicted.v - sim.v),
                abs(predicted.a - sim.a),
            )
        assert worst <= 1e-12


def test_a02_open_loop_step_response():
    """A2: unit-step acceleration matches the delayed first-order response."""
    with criterion("A2 open-loop step response", 1.0):
        ts = 0.01
        response = dp.open_loop_step_response(REF_VEHICLE, 1.0, 1.0, ts)
        analytic = np.where(
            response.t < REF_VEHICLE.phi,
            0.0,
            1.0 - np.exp(-(response.t - REF_VEHICLE.phi) / REF_VEHICLE.tau),
        )
        assert np.max(np.abs(response.a - analytic)) <= 1e-9


@pytest.mark.parametrize(
    "label,policy,gains,ego,lead",
    [
        (
            "constant (heterogeneous)",
            CONSTANT,
            dp.ControllerGains(k_p=1.0, k_d=2.0, k_dd=1.0),
            dp.VehicleParams(tau=0.08, phi=0.2),
            REF_VEHICLE,
        ),
        ("dch", DCH, DCH_GAINS, REF_VEHICLE, REF_VEHICLE),
        ("ext", EXT, EXT_GAINS, REF_VEHICLE, REF_VEHICLE),
    ],
)
def test_a03_tracking_disturbance_decoupling(label, policy, gains, ego, lead):
    """A3: zero initial error stays below 5e-3 m and shrinks O(Ts)."""
    with criterion(f"A3 tracking [{label}]", 5.0):
        profile = pulse_profile(0.1)
        errors = {}
        for ts in (0.01, 0.005):
            cfg = two_vehicle_config(policy, gains, ts, 8.0, ego=ego, lead=lead)
            log = dp.run(cfg, profile)
            errors[ts] = float(np.max(np.abs(log.e)))
        assert errors[0.01] <= 5e-3
        ratio = errors[0.01] / errors[0.005]
        assert 1.5 <= ratio <= 3.0


@pytest.mark.parametrize(
    "label,policy,gains,rho_bar,ego",
    [
        ("ext", EXT, EXT_GAINS, 1, dp.VehicleParams(tau=0.2, phi=0.15)),
        (
            "dch",
            DCH,
            dp.ControllerGains(k_p=0.2, k_d=0.7 - 0.2 * 0.2),
            2,
            dp.VehicleParams(tau=0.2, phi=0.15),
        ),
        ("constant", CONSTANT, CONSTANT_GAINS, 3, REF_VEHICLE),
    ],
)
def test_a04_error_decay(label, policy, gains, rho_bar, ego):
    """A4: nonzero initial error follows the analytic error ODE to 1e-3."""
    with criterion(f"A4 error decay [{label}]", 5.0):
        horizon, e0 = 5.0, 0.5
        deviations = {}
        for ts in (0.01, 0.005):
            cfg = two_vehicle_config(policy, gains, ts, horizon, ego=ego, lead_q=e0)
            log = dp.run(cfg, dp.LeaderProfile((dp.LeaderSegment.pulse(horizon, 0.0),)))
            reference = error_dynamics_reference(rho_bar, gains, e0, horizon, ts)
            deviations[ts] = float(np.max(np.abs(log.e[:, 0] - reference)))
        if rho_bar == 1:
            explicit = 0.5 * np.exp(-gains.k_p * np.arange(0, horizon + 1e-9, 0.01))
            ref = error_dynamics_reference(1, gains, e0, horizon, 0.01)
            assert np.max(np.abs(ref - explicit)) <= 1e-12
        assert deviations[0.01] <= 1e-3
        ratio = deviations[0.01] / deviations[0.005]
        assert 1.5 <= ratio <= 3.0


def test_a05_dch_properness_boundary():
    """A5: rightmost root of the DCH internal factor crosses at phi/h_v = pi/2."""
    with criterion("A5 properness boundary roots", 2.0):
        h_v = 0.2
        for factor, check in (
            (1.0, lambda re: abs(re) <= 1e-6),
            (0.97, lambda re: re < -1e-4),
            (1.03, lambda re: re > 1e-4),
        ):
            phi = h_v * (0.5 * math.pi) * factor
            qp = QuasiPolynomial.dch_internal(h_v, phi)
            root = dp.rightmost_root(qp, SearchRegion.default_for(phi))
            assert check(root.real), (factor, root)


def test_a06_dch_string_stability_iff():
    """A6: sweep verdict equals h_v >= 2 phi away from the boundary."""
    with criterion("A6 string-stability iff grid", 10.0):
        for h_v in np.linspace(0.08, 0.65, 20):
            for phi in np.linspace(0.05, 0.3, 10):
                if abs(h_v - 2.0 * phi) <= 1e-3:
                    continue
                policy = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=h_v)
                verdict = dp.string_stability_sweep(policy, dp.VehicleParams(0.067, phi))
                assert verdict.stable == (h_v >= 2.0 * phi), (h_v, phi, verdict)
        phi = 0.15
        boundary = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=2 * phi)
        verdict = dp.string_stability_sweep(boundary, dp.VehicleParams(0.067, phi))
        assert 1.0 - 1e-6 <= verdict.peak_magnitude <= 1.0 + 1e-6


def test_a07_extended_policy_consistency():
    """A7: the closed-form sufficient condition implies sweep stability, and
    the reference tuning is proper by both the closed form and root check."""
    with criterion("A7 extended-policy consistency", 10.0):
        rng = np.random.default_rng(42)
        for _ in range(200):
            phi = rng.uniform(0.05, 0.3)
            h_v = rng.uniform(4.0 * phi, 2.5)
            h_a = rng.uniform(2.0 * h_v * phi, h_v * h_v / 2.0)
            policy = dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=h_v, h_a=h_a)
            verdict = dp.string_stability_sweep(policy, dp.VehicleParams(0.067, phi))
            assert verdict.stable, (h_v, h_a, phi, verdict.peak_magnitude)
        closed = dp.is_proper(EXT, REF_VEHICLE)
        root = dp.properness_root_check(EXT, REF_VEHICLE)
        assert closed.stable and root.stable
        assert closed.stable == root.stable


def test_a08_stability_region_figure():
    """A8: boundary endpoints and nesting of the region for growing delays."""
    with criterion("A8 stability-region boundary", 1.0):
        phi = 0.15
        curve = analysis.stability_region_boundary(phi, 400)
        assert np.allclose(curve[0], (0.0, 0.0), atol=1e-9)
        assert abs(curve[-1][0] - math.pi / (2 * phi)) <= 1e-9
        assert abs(curve[-1][1]) <= 1e-9
        curves = [analysis.stability_region_boundary(p, 400) for p in (0.1, 0.15, 0.2)]
        for inner, outer in zip(curves[1:], curves[:-1]):
            assert np.all(inner[1:, 0] < outer[1:, 0])
            assert np.all(inner[1:-1, 1] < outer[1:-1, 1])


def test_a09_l2_string_stability_time_domain():
    """A9: 5-vehicle platoons attenuate velocity energy at every pair."""
    with criterion("A9 time-domain L2 string stability", 10.0):
        cases = [
            (CONSTANT, CONSTANT_GAINS),
            (DCH, DCH_GAINS),
            (EXT, EXT_GAINS),
        ]
        profile = pulse_profile(0.2)
        for policy, gains in cases:
            assert dp.is_string_stable(policy, REF_VEHICLE).stable
            spec = dp.ControllerSpec(policy, gains, ego=REF_VEHICLE, predecessor=REF_VEHICLE)
            cfg = dp.PlatoonConfig(
                vehicles=tuple(dp.VehicleSetup(REF_VEHICLE) for _ in range(5)),
                policies=(policy,) * 4,
                controllers=(spec,) * 4,
                ts=0.01,
                horizon=10.0,
            )
            log = dp.run(cfg, profile)
            verdicts = dp.l2_string_stability_check(log.v, 0.01)
            assert len(verdicts) == 4
            assert all(v.ok for v in verdicts), (policy.kind, verdicts)


def test_a10_generic_specialized_equivalence():
    """A10: the relative-degree controllers reproduce the specialized laws."""
    with criterion("A10 generic/specialized equivalence", 1.0):
        rng = np.random.default_rng(7)
        predecessor = dp.VehicleParams(tau=0.09, phi=0.2)
        cases = [
            (EXT, 1, EXT_GAINS, dp.ControllerSpec(EXT, EXT_GAINS, ego=REF_VEHICLE)),
            (DCH, 2, DCH_GAINS, dp.ControllerSpec(DCH, DCH_GAINS, ego=REF_VEHICLE, predecessor=REF_VEHICLE)),
            (
                CONSTANT,
                3,
                CONSTANT_GAINS,
                dp.ControllerSpec(CONSTANT, CONSTANT_GAINS, ego=REF_VEHICLE, predecessor=predecessor),
            ),
        ]
        for policy, rho_bar, gains, spec in cases:
            rows = dp.policy_rows(policy)
            for _ in range(1000):
                inputs = dp.ControlInputs(
                    ego_state=dp.VehicleState(*rng.normal(size=3)),
                    ego_predicted=dp.VehicleState(*rng.normal(size=3)),
                    delta=rng.normal(),
                    delta_dot=rng.normal(),
                    predecessor_v=rng.normal(),
                    predecessor_a=rng.normal(),
                    predecessor_u_delayed=rng.normal(),
                )
                generic = generic_rho_controller(
                    rows, rho_bar, gains, inputs, REF_VEHICLE,
                    predecessor=spec.predecessor,
                )
                specialized = dp.control(spec, inputs)
                assert generic == pytest.approx(specialized, rel=1e-12, abs=1e-12)
