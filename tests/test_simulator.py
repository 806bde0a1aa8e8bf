import importlib.resources
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delayplatoon as dp
from delayplatoon import analysis, simulator
from delayplatoon.controllers import tracking_law
from delayplatoon.errors import DelayGranularityError, HistoryDepthError
from delayplatoon.scenario import parse_scenario
from delayplatoon.simulator import MeasurementOptions
from delayplatoon.spacing import PolicyKind

from oracles import error_dynamics_reference, run_reference

REF_VEHICLE = dp.VehicleParams(tau=0.067, phi=0.15)

CONSTANT = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT)
DCH = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.4)
EXT = dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1.2, h_a=0.25)

CONSTANT_GAINS = dp.ControllerGains(k_p=1 / 0.067, k_d=3 / 0.067, k_dd=3 / 0.067)
DCH_GAINS = dp.ControllerGains(k_p=0.2, k_d=0.7 - 0.067 * 0.2)
EXT_GAINS = dp.ControllerGains(k_p=0.2)


def two_vehicle_config(policy, gains, ts=0.01, horizon=8.0, ego=REF_VEHICLE, lead=REF_VEHICLE,
                       lead_state=None, measurement=None, clamp=False):
    spec = dp.ControllerSpec(policy, gains, ego=ego, predecessor=lead)
    return dp.PlatoonConfig(
        vehicles=(
            dp.VehicleSetup(lead, lead_state or dp.VehicleState()),
            dp.VehicleSetup(ego),
        ),
        policies=(policy,),
        controllers=(spec,),
        ts=ts,
        horizon=horizon,
        measurement=measurement or MeasurementOptions(),
        clamp_reverse=clamp,
    )


def pulse_profile(amplitude=0.1, coast=4.0):
    return dp.LeaderProfile(
        (
            dp.LeaderSegment.pulse(2.0, amplitude),
            dp.LeaderSegment.pulse(2.0, -amplitude),
            dp.LeaderSegment.pulse(coast, 0.0),
        )
    )


def recording_law(record):
    """A stand-in for controllers.tracking_law whose laws pass every call's
    arguments to record before evaluating the real law."""
    def bind(spec):
        law = tracking_law(spec)
        return lambda *args: record(args) or law(*args)
    return bind


class TestLeaderInput:
    def test_cruise_at_reference(self):
        profile = dp.LeaderProfile((dp.LeaderSegment.cruise(5.0, 5.0, 0.5),))
        assert dp.leader_input(profile, 1.0, 5.0) == 0.0

    def test_cruise_linear_law(self):
        profile = dp.LeaderProfile((dp.LeaderSegment.cruise(5.0, 5.0, 0.5),))
        assert dp.leader_input(profile, 1.0, 3.0) == pytest.approx(1.0)

    def test_pulse_inside_segment(self):
        profile = dp.LeaderProfile(
            (dp.LeaderSegment.pulse(2.0, 1.0), dp.LeaderSegment.pulse(2.0, -1.0))
        )
        assert dp.leader_input(profile, 0.5, 0.0) == 1.0
        assert dp.leader_input(profile, 2.5, 0.0) == -1.0

    def test_past_profile_end(self):
        profile = dp.LeaderProfile((dp.LeaderSegment.pulse(1.0, 1.0),))
        assert dp.leader_input(profile, 5.0, 0.0) == 0.0

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            dp.LeaderSegment.pulse(0.0, 1.0)
        with pytest.raises(ValueError):
            dp.LeaderSegment.cruise(1.0, 5.0, 0.0)
        with pytest.raises(ValueError):
            dp.LeaderSegment(1.0, v_ref=5.0, gain=-0.5)


class TestRun:
    def test_all_zero_scenario_stays_zero(self):
        cfg = two_vehicle_config(EXT, EXT_GAINS)
        log = dp.run(cfg, dp.LeaderProfile((dp.LeaderSegment.pulse(8.0, 0.0),)))
        for column in (log.q, log.v, log.a, log.u, log.e, log.delta, log.delta_ref):
            assert np.all(column == 0.0)

    def test_deterministic(self):
        cfg = two_vehicle_config(DCH, DCH_GAINS)
        one = dp.run(cfg, pulse_profile())
        two = dp.run(cfg, pulse_profile())
        for a, b in ((one.q, two.q), (one.e, two.e), (one.u, two.u)):
            assert np.array_equal(a, b)

    def test_log_shapes(self):
        cfg = two_vehicle_config(EXT, EXT_GAINS, horizon=1.0)
        log = dp.run(cfg, pulse_profile())
        assert log.t.shape == (101,)
        assert log.q.shape == log.v.shape == log.a.shape == log.u.shape == (101, 2)
        assert log.e.shape == log.delta.shape == log.delta_ref.shape == (101, 1)
        assert log.n_vehicles == 2 and log.n_followers == 1

    def test_homogeneous_constant_policy_tracks_exactly(self):
        """Matched vehicles: the sampled delayed-constant loop is exact."""
        cfg = two_vehicle_config(CONSTANT, CONSTANT_GAINS)
        log = dp.run(cfg, pulse_profile(amplitude=1.0))
        assert np.max(np.abs(log.e)) <= 1e-12
        d = 15
        assert np.max(np.abs(log.v[d:, 1] - log.v[:-d, 0])) <= 1e-12

    def test_heterogeneous_constant_policy_keeps_small_error(self):
        ego = dp.VehicleParams(tau=0.08, phi=0.2)
        gains = dp.ControllerGains(k_p=1.0, k_d=2.0, k_dd=1.0)
        cfg = two_vehicle_config(CONSTANT, gains, ego=ego, lead=REF_VEHICLE)
        log = dp.run(cfg, pulse_profile(amplitude=0.1))
        assert 0.0 < np.max(np.abs(log.e)) <= 5e-3

    def test_disturbance_decoupling_small_error(self):
        for policy, gains in ((DCH, DCH_GAINS), (EXT, EXT_GAINS)):
            cfg = two_vehicle_config(policy, gains)
            log = dp.run(cfg, pulse_profile(amplitude=0.1))
            assert np.max(np.abs(log.e)) <= 5e-3

    def test_standstill_only_shifts_display_columns(self):
        policy = dp.SpacingPolicy(
            PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1.2, h_a=0.25, standstill=10.0
        )
        spec = dp.ControllerSpec(policy, EXT_GAINS, ego=REF_VEHICLE, predecessor=REF_VEHICLE)
        cfg = dp.PlatoonConfig(
            vehicles=(
                dp.VehicleSetup(REF_VEHICLE),
                dp.VehicleSetup(REF_VEHICLE, dp.VehicleState(q=-10.0)),
            ),
            policies=(policy,),
            controllers=(spec,),
            ts=0.01,
            horizon=8.0,
        )
        log = dp.run(cfg, pulse_profile())
        base = dp.run(two_vehicle_config(EXT, EXT_GAINS), pulse_profile())
        assert np.allclose(log.e, base.e, atol=1e-12)
        assert np.allclose(log.delta, base.delta + 10.0, atol=1e-12)
        assert np.allclose(log.delta_ref, base.delta_ref + 10.0, atol=1e-12)

    def test_clamp_prevents_reverse_motion(self):
        profile = dp.LeaderProfile((dp.LeaderSegment.pulse(2.0, -1.0),))
        spec = dp.ControllerSpec(EXT, EXT_GAINS, ego=REF_VEHICLE, predecessor=REF_VEHICLE)
        base = dp.PlatoonConfig(
            vehicles=(dp.VehicleSetup(REF_VEHICLE),),
            policies=(),
            controllers=(),
            ts=0.01,
            horizon=2.0,
        )
        log = dp.run(base, profile)
        assert np.min(log.v) < 0.0
        clamped = dp.PlatoonConfig(
            vehicles=(dp.VehicleSetup(REF_VEHICLE),),
            policies=(),
            controllers=(),
            ts=0.01,
            horizon=2.0,
            clamp_reverse=True,
        )
        log = dp.run(clamped, profile)
        assert np.min(log.v) >= 0.0

    def test_every_follower_step_goes_through_tracking_law(self, monkeypatch):
        """run evaluates each follower's law by calling the law that
        controllers.tracking_law returns, once per follower and sample, and
        nothing else changes the logs."""
        lead = dp.VehicleParams(tau=0.1, phi=0.1)
        specs = [
            dp.ControllerSpec(CONSTANT, CONSTANT_GAINS, ego=REF_VEHICLE, predecessor=lead),
            dp.ControllerSpec(DCH, DCH_GAINS, ego=REF_VEHICLE, predecessor=REF_VEHICLE),
            dp.ControllerSpec(EXT, EXT_GAINS, ego=REF_VEHICLE),
        ]
        cfg = dp.PlatoonConfig(
            vehicles=(dp.VehicleSetup(lead),) + (dp.VehicleSetup(REF_VEHICLE),) * 3,
            policies=tuple(spec.policy for spec in specs),
            controllers=tuple(specs),
            ts=0.01,
            horizon=3.0,
        )
        want = dp.run(cfg, pulse_profile())
        calls = []
        monkeypatch.setattr(simulator, "tracking_law", recording_law(lambda args: calls.append(1)))
        got = dp.run(cfg, pulse_profile())
        assert len(calls) == got.n_followers * len(got.t) == 3 * 301
        for name in ("t", "q", "v", "a", "u", "e", "delta", "delta_ref"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize(
        "policy,gains",
        [(DCH, DCH_GAINS), (EXT, EXT_GAINS), (CONSTANT, CONSTANT_GAINS)],
    )
    def test_kernel_matches_module_level_controller(self, policy, gains):
        """Logged inputs reproduce predictor + controller evaluated offline."""
        cfg = two_vehicle_config(policy, gains, horizon=2.0)
        log = dp.run(cfg, pulse_profile())
        model = dp.discretize(REF_VEHICLE, 0.01)
        spec = cfg.controllers[0]
        d = 15
        hist = dp.InputHistory((0.0,) * d, 0.01)
        for k in range(len(log.t) - 1):
            state = dp.VehicleState(log.q[k, 1], log.v[k, 1], log.a[k, 1])
            predicted = dp.predict(model, state, hist)
            inputs = dp.ControlInputs(
                ego_state=state,
                ego_predicted=predicted,
                delta=log.q[k, 0] - log.q[k, 1],
                delta_dot=log.v[k, 0] - log.v[k, 1],
                predecessor_a=log.a[k, 0],
                predecessor_u_delayed=log.u[k - d, 0] if k >= d else 0.0,
            )
            u = dp.control(spec, inputs)
            assert u == pytest.approx(log.u[k, 1], rel=1e-12, abs=1e-12)
            hist = dp.InputHistory(hist.samples[1:] + (log.u[k, 1],), 0.01)


class TestMeasurementModel:
    def test_run_passes_held_values_to_tracking_law(self, monkeypatch):
        """Over samples 0..99 at ts = 0.01, a 2 Hz radar hold refreshes only
        at samples 0 and 50 and a 2.5 Hz V2V hold only at 0, 40 and 80; the
        channel without a hold, and both without holds, pass exact values."""
        calls = []
        monkeypatch.setattr(simulator, "tracking_law", recording_law(lambda args: calls.append(args[6:])))
        # the leader moves from the first sample and its cruise input changes
        # every step, so every exact channel value differs from the one before
        profile = dp.LeaderProfile((dp.LeaderSegment.cruise(2.0, 3.0, 0.5),))
        lead_state = dp.VehicleState(v=1.0, a=0.5)
        d = 15  # the leader's delay in samples

        def record(measurement):
            """(delta, delta_dot, predecessor a, delayed u) passed to the law and
            their exact values, per sample."""
            calls.clear()
            cfg = two_vehicle_config(DCH, DCH_GAINS, horizon=0.99, lead_state=lead_state,
                                     measurement=measurement)
            log = dp.run(cfg, profile)
            exact = [
                (log.delta[k, 0], log.v[k, 0] - log.v[k, 1], log.a[k, 0],
                 log.u[k - d, 0] if k >= d else 0.0)
                for k in range(len(log.t))
            ]
            assert len(calls) == len(exact) == 100
            return calls, exact

        got, exact = record(MeasurementOptions())
        assert got == exact
        got, exact = record(MeasurementOptions(radar_hold=True, radar_rate_hz=2.0))
        for k, args in enumerate(got):
            assert args[:2] == exact[k - k % 50][:2] and args[2:] == exact[k][2:], k
        got, exact = record(MeasurementOptions(v2v_hold=True, v2v_rate_hz=2.5))
        for k, args in enumerate(got):
            assert args[:2] == exact[k][:2] and args[2:] == exact[k - k % 40][2:], k
        assert len({args[2] for args in got}) == 3

    def test_hold_at_control_rate_is_ideal(self):
        opts = MeasurementOptions(
            radar_hold=True, radar_rate_hz=100.0, v2v_hold=True, v2v_rate_hz=100.0
        )
        held = dp.run(two_vehicle_config(EXT, EXT_GAINS, measurement=opts), pulse_profile())
        ideal = dp.run(two_vehicle_config(EXT, EXT_GAINS), pulse_profile())
        assert np.array_equal(held.e, ideal.e)

    def test_hold_wiring_in_run(self):
        """The extended law uses only onboard signals: a V2V-only hold leaves
        the follower bit-identical to the ideal run, a radar-only hold does not."""
        ideal = dp.run(two_vehicle_config(EXT, EXT_GAINS), pulse_profile())
        v2v = MeasurementOptions(v2v_hold=True, v2v_rate_hz=5.0)
        held = dp.run(two_vehicle_config(EXT, EXT_GAINS, measurement=v2v), pulse_profile())
        for a, b in ((held.q, ideal.q), (held.u, ideal.u), (held.e, ideal.e)):
            assert np.array_equal(a, b)
        radar = MeasurementOptions(radar_hold=True, radar_rate_hz=5.0)
        held = dp.run(two_vehicle_config(EXT, EXT_GAINS, measurement=radar), pulse_profile())
        assert not np.array_equal(held.u[:, 1], ideal.u[:, 1])
        assert np.array_equal(held.u[:, 0], ideal.u[:, 0])  # the leader has no sensors

    def test_coarse_hold_changes_trajectory(self):
        opts = MeasurementOptions(radar_hold=True, v2v_hold=True)  # 16.7 / 25 Hz
        held = dp.run(two_vehicle_config(DCH, DCH_GAINS, measurement=opts), pulse_profile())
        ideal = dp.run(two_vehicle_config(DCH, DCH_GAINS), pulse_profile())
        assert not np.array_equal(held.e, ideal.e)
        assert np.max(np.abs(held.e)) < 0.1  # still a sane closed loop


class TestErrorDynamicsReference:
    def test_first_order_analytic(self):
        series = error_dynamics_reference(1, dp.ControllerGains(0.2), 1.0, 5.0, 0.01)
        assert series[0] == 1.0
        assert series[-1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_zero_initial_condition(self):
        series = error_dynamics_reference(2, DCH_GAINS, 0.0, 5.0, 0.01)
        assert np.all(series == 0.0)

    def test_second_order_matches_expm(self):
        import scipy.linalg

        gains = DCH_GAINS
        series = error_dynamics_reference(2, gains, 0.5, 2.0, 0.01)
        companion = np.array([[0.0, 1.0], [-gains.k_p, -gains.k_d]])
        want = np.array(
            [0.5 * (scipy.linalg.expm(companion * (0.01 * k)) @ [1.0, 0.0])[0] for k in range(201)]
        )
        assert np.allclose(series, want, atol=1e-12)

    def test_third_order_stable_eigenvalues(self):
        gains = dp.ControllerGains(2.0, 2.0, 2.0)  # k_p k_d > k_dd
        companion = np.array(
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-gains.k_p, -gains.k_d, -gains.k_dd]]
        )
        assert np.all(np.linalg.eigvals(companion).real < 0.0)
        series = error_dynamics_reference(3, gains, 0.5, 60.0, 0.01)
        assert abs(series[-1]) < 1e-4

    def test_invalid_gains_rejected(self):
        with pytest.raises(ValueError):
            error_dynamics_reference(1, dp.ControllerGains(-0.1), 1.0, 1.0, 0.01)


class TestConfigValidation:
    def test_phi_granularity(self):
        with pytest.raises(DelayGranularityError):
            two_vehicle_config(EXT, EXT_GAINS, ts=0.02)

    def test_history_depth_checked(self):
        spec = dp.ControllerSpec(EXT, EXT_GAINS, ego=REF_VEHICLE, predecessor=REF_VEHICLE)
        with pytest.raises(HistoryDepthError):
            dp.PlatoonConfig(
                vehicles=(
                    dp.VehicleSetup(REF_VEHICLE),
                    dp.VehicleSetup(REF_VEHICLE, history=dp.InputHistory((0.0,) * 10, 0.01)),
                ),
                policies=(EXT,),
                controllers=(spec,),
                ts=0.01,
                horizon=1.0,
            )

    def test_history_sample_period_checked(self):
        spec = dp.ControllerSpec(EXT, EXT_GAINS, ego=REF_VEHICLE, predecessor=REF_VEHICLE)
        history = dp.InputHistory((0.5,) * 15, 0.02)  # depth right, period not
        with pytest.raises(HistoryDepthError, match="sample period"):
            dp.PlatoonConfig(
                vehicles=(dp.VehicleSetup(REF_VEHICLE), dp.VehicleSetup(REF_VEHICLE, history=history)),
                policies=(EXT,),
                controllers=(spec,),
                ts=0.01,
                horizon=1.0,
            )

    def test_mismatched_controller_policy(self):
        spec = dp.ControllerSpec(EXT, EXT_GAINS, ego=REF_VEHICLE, predecessor=REF_VEHICLE)
        with pytest.raises(ValueError):
            dp.PlatoonConfig(
                vehicles=(dp.VehicleSetup(REF_VEHICLE), dp.VehicleSetup(REF_VEHICLE)),
                policies=(DCH,),
                controllers=(spec,),
                ts=0.01,
                horizon=1.0,
            )

    def test_sample_count_bounded(self):
        most = (dp.simulator.MAX_SAMPLES - 1) * 0.01  # MAX_SAMPLES samples
        assert two_vehicle_config(EXT, EXT_GAINS, horizon=most).horizon == most
        with pytest.raises(ValueError, match="samples"):
            two_vehicle_config(EXT, EXT_GAINS, horizon=most + 0.01)

    def test_log_size_bounded(self):
        """Ten vehicles log 4 * 10 + 3 * 9 = 67 columns, so the log-size cap
        (11 MAX_SAMPLES values) allows 164,179 samples, not MAX_SAMPLES."""
        def ten_vehicles(horizon):
            spec = dp.ControllerSpec(EXT, EXT_GAINS, ego=REF_VEHICLE, predecessor=REF_VEHICLE)
            return dp.PlatoonConfig(
                vehicles=(dp.VehicleSetup(REF_VEHICLE),) * 10,
                policies=(EXT,) * 9,
                controllers=(spec,) * 9,
                ts=0.01,
                horizon=horizon,
            )

        most = dp.simulator.MAX_LOG_VALUES // 67
        assert most == 164_179
        assert ten_vehicles((most - 1) * 0.01).horizon == (most - 1) * 0.01
        with pytest.raises(ValueError, match="164180 samples of 67 logged columns"):
            ten_vehicles(most * 0.01)

    def test_follower_counts(self):
        with pytest.raises(ValueError):
            dp.PlatoonConfig(
                vehicles=(dp.VehicleSetup(REF_VEHICLE), dp.VehicleSetup(REF_VEHICLE)),
                policies=(),
                controllers=(),
                ts=0.01,
                horizon=1.0,
            )


@pytest.mark.parametrize(
    "build",
    [
        lambda: dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=math.nan),
        lambda: dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=math.inf),
        lambda: dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.4, standstill=math.nan),
        lambda: dp.LeaderSegment.pulse(1.0, math.nan),
        lambda: dp.LeaderSegment.cruise(1.0, math.nan, 0.5),
        lambda: dp.LeaderSegment.cruise(1.0, 5.0, math.inf),
        lambda: two_vehicle_config(EXT, EXT_GAINS, horizon=math.inf),
        lambda: MeasurementOptions(radar_rate_hz=math.nan),
        lambda: dp.ControllerSpec(EXT, dp.ControllerGains(k_p=math.inf), ego=REF_VEHICLE),
        lambda: analysis.stability_region_boundary(math.inf, 10),
        lambda: dp.InputHistory((0.0, math.nan), 0.01),
        lambda: dp.InputHistory.constant(math.inf, 3, 0.01),
        lambda: dp.InputHistory.constant(math.nan, 0, 0.01),
        lambda: dp.InputHistory((0.0, 0.0), math.nan),
        lambda: dp.InputHistory((0.0, 0.0), math.inf),
    ],
    ids=[
        "policy-h_v-nan", "policy-h_v-inf", "policy-standstill-nan", "pulse-amplitude-nan",
        "cruise-v_ref-nan", "cruise-gain-inf", "config-horizon-inf", "radar-rate-nan",
        "gains-k_p-inf", "region-phi-inf", "history-sample-nan", "history-sample-inf",
        "history-constant-nan-depth-0",
        "history-period-nan", "history-period-inf",
    ],
)
def test_non_finite_inputs_rejected(build):
    with pytest.raises(ValueError):
        build()


class TestZeroDelayVehicles:
    def test_extended_policy_without_actuation_delay(self):
        p0 = dp.VehicleParams(tau=0.067, phi=0.0)
        policy = EXT
        spec = dp.ControllerSpec(policy, EXT_GAINS, ego=p0, predecessor=p0)
        cfg = dp.PlatoonConfig(
            vehicles=(dp.VehicleSetup(p0), dp.VehicleSetup(p0)),
            policies=(policy,),
            controllers=(spec,),
            ts=0.01,
            horizon=6.0,
        )
        log = dp.run(cfg, pulse_profile(amplitude=0.1, coast=2.0))
        assert np.max(np.abs(log.e)) <= 5e-3
        assert np.all(np.isfinite(log.u))

    def test_constant_policy_without_actuation_delay_is_exact(self):
        # with d = 0 the "predicted" state is the current one and tracking
        # of the constant policy is exact in discrete time as well
        p0 = dp.VehicleParams(tau=0.067, phi=0.0)
        gains = dp.ControllerGains(k_p=1.0, k_d=2.0, k_dd=1.0)
        spec = dp.ControllerSpec(CONSTANT, gains, ego=p0, predecessor=p0)
        cfg = dp.PlatoonConfig(
            vehicles=(dp.VehicleSetup(p0), dp.VehicleSetup(p0)),
            policies=(CONSTANT,),
            controllers=(spec,),
            ts=0.01,
            horizon=6.0,
        )
        log = dp.run(cfg, pulse_profile(amplitude=1.0, coast=2.0))
        assert np.max(np.abs(log.e)) <= 1e-12


@st.composite
def platoon_runs(draw):
    """A heterogeneous platoon, its leader profile and its channel model.

    A leader alone or up to 7 followers; delays of 0..5 samples (so d = 0
    predecessors, chains of them and d = 0 leaders all occur), mixed
    policies, non-zero input histories, radar and V2V holds at 5-150 Hz
    around the 100 Hz sample rate, the reverse clamp, and profiles that end
    before or after the horizon.  Runs of 1, 2 and 4 samples reach every
    vehicle's last sample within its first steps, and their delay windows of
    up to 5 samples outlast the run, so the applied inputs a successor reads
    all come from the initial history.
    """
    ts = 0.01
    unit = st.floats(0.0, 1.0)
    nv = draw(st.integers(1, 8))
    depths = [draw(st.integers(0, 5)) for _ in range(nv)]
    params = [dp.VehicleParams(tau=0.05 + 0.3 * draw(unit), phi=d * ts) for d in depths]
    setups = []
    q = 0.0
    for p, d in zip(params, depths):
        history = tuple(draw(st.floats(-1.0, 1.0)) for _ in range(d))
        state = dp.VehicleState(q, 3.0 * draw(unit), draw(st.floats(-0.5, 0.5)))
        setups.append(dp.VehicleSetup(p, state, dp.InputHistory(history, ts)))
        q -= 5.0 + 10.0 * draw(unit)
    policies, specs = [], []
    for f in range(1, nv):
        kind = draw(st.sampled_from(list(PolicyKind)))
        standstill = 5.0 * draw(unit)
        k_p = 0.3 + 2.0 * draw(unit)
        if kind is PolicyKind.DELAYED_CONSTANT:
            policy = dp.SpacingPolicy(kind, standstill=standstill)
            k_d = 1.0 + 3.0 * draw(unit)
            gains = dp.ControllerGains(k_p, k_d, (0.2 + 0.6 * draw(unit)) * k_p * k_d)
        elif kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
            policy = dp.SpacingPolicy(kind, h_v=0.2 + 1.5 * draw(unit), standstill=standstill)
            gains = dp.ControllerGains(k_p, 0.5 + 3.0 * draw(unit))
        else:
            policy = dp.SpacingPolicy(
                kind, h_v=0.3 + 1.5 * draw(unit), h_a=0.05 + 0.9 * draw(unit),
                standstill=standstill,
            )
            gains = dp.ControllerGains(k_p)
        policies.append(policy)
        specs.append(dp.ControllerSpec(policy, gains, ego=params[f], predecessor=params[f - 1]))
    segments = []
    for _ in range(draw(st.integers(1, 3))):
        duration = 0.05 + 0.6 * draw(unit)
        if draw(st.booleans()):
            segments.append(dp.LeaderSegment.cruise(duration, 3.0 * draw(unit), 0.2 + draw(unit)))
        else:
            segments.append(dp.LeaderSegment.pulse(duration, draw(st.floats(-3.0, 1.0))))
    measurement = MeasurementOptions(
        radar_hold=draw(st.booleans()),
        radar_rate_hz=draw(st.sampled_from([7.0, 16.7, 50.0, 100.0, 150.0])),
        v2v_hold=draw(st.booleans()),
        v2v_rate_hz=draw(st.sampled_from([5.0, 25.0, 100.0])),
    )
    config = dp.PlatoonConfig(
        tuple(setups), tuple(policies), tuple(specs), ts,
        # 1, 2 and 4 samples at ts = 0.01, or 31 to 201
        horizon=draw(st.one_of(st.sampled_from([0.004, 0.01, 0.03]), st.floats(0.3, 2.0))),
        measurement=measurement,
        clamp_reverse=draw(st.booleans()),
    )
    return config, dp.LeaderProfile(tuple(segments))


def assert_agrees_with_float_loop(got, want, config):
    """got against run_reference's log: the leader and the leading run of
    constant-policy followers are identical, since each of their values is
    computed by the same operations in the same order; every other column
    lies within 1e-12 of the run's largest |q|, |v|, |a|, |u|, since a
    headway follower's forced response comes from a recursion where the
    float loop sums the delay window."""
    exact = 1  # the leader, then each constant-policy follower up to the first headway one
    for policy in config.policies:
        if policy.kind is not PolicyKind.DELAYED_CONSTANT:
            break
        exact += 1
    states = ("q", "v", "a", "u")
    scale = max(float(np.max(np.abs(getattr(want, name)), initial=0.0)) for name in states)
    assert np.array_equal(got.t, want.t)
    for name in states + ("e", "delta", "delta_ref"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.shape == y.shape, name
        # follower f's columns belong to vehicle f + 1
        cut = exact if name in states else exact - 1
        assert np.array_equal(x[:, :cut], y[:, :cut]), name
        assert np.all(np.abs(x[:, cut:] - y[:, cut:]) <= 1e-12 * scale), name


@settings(max_examples=150, deadline=None)
@given(platoon_runs())
def test_run_agrees_with_float_loop(case):
    """run, vehicle by vehicle, against the scalar loop over samples that it
    replaced (assert_agrees_with_float_loop)."""
    config, profile = case
    assert_agrees_with_float_loop(dp.run(config, profile), run_reference(config, profile), config)


@pytest.mark.parametrize("name", ["paper_constant.scn", "paper_dch.scn", "paper_extended.scn"])
def test_long_run_does_not_drift(name):
    """The paper scenarios over 5 x 10^4 samples, the leader ramping to 50 m/s
    after the scenario's own segments: the headway followers' recursion
    stays within the float loop's tolerance, the constant policy identical."""
    scenario = parse_scenario(importlib.resources.files("delayplatoon") / "scenarios" / name)
    config = scenario.config.replace(horizon=5e4 * scenario.config.ts)
    profile = dp.LeaderProfile(scenario.profile.segments + (dp.LeaderSegment.pulse(500.0, 0.1),))
    got, want = dp.run(config, profile), run_reference(config, profile)
    assert len(got.t) == 50_001 and np.max(np.abs(want.q)) > 1e4
    assert_agrees_with_float_loop(got, want, config)  # all of paper_constant identical


@pytest.mark.parametrize("policy,gains", [(DCH, DCH_GAINS), (EXT, EXT_GAINS)])
def test_headway_step_cost_does_not_grow_with_the_delay(policy, gains):
    """A two-vehicle run of 2,000 samples costs about as much at d = 2,000
    as at d = 5: the headway followers carry their forced response from
    sample to sample instead of summing the delay window, which would make
    the longer window some 35 times slower."""
    def cost(d):
        params = dp.VehicleParams(tau=0.067, phi=d * 0.01)
        cfg = two_vehicle_config(policy, gains, horizon=19.99, ego=params, lead=params)
        times = []
        for _ in range(3):
            start = time.process_time()
            dp.run(cfg, pulse_profile(coast=16.0))
            times.append(time.process_time() - start)
        return min(times)

    short, long = cost(5), cost(2000)
    assert long < 5.0 * short, (short, long)


def test_log_peaks_below_twice_its_size():
    """A 10-vehicle run keeps only its predecessor's trajectory in Python
    floats besides the log itself, so its traced allocations peak below
    twice the log's bytes."""
    spec = dp.ControllerSpec(EXT, EXT_GAINS, ego=REF_VEHICLE, predecessor=REF_VEHICLE)
    cfg = dp.PlatoonConfig(
        vehicles=(dp.VehicleSetup(REF_VEHICLE),) * 10,
        policies=(EXT,) * 9,
        controllers=(spec,) * 9,
        ts=0.01,
        horizon=19.99,
    )
    profile = pulse_profile(coast=16.0)
    tracemalloc.start()
    try:
        log = dp.run(cfg, profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(getattr(log, name).nbytes for name in ("t", "q", "v", "a", "u", "e", "delta", "delta_ref"))
    assert len(log.t) == 2000
    assert peak < 2 * size, (peak, size)


@settings(max_examples=60, deadline=None)
@given(
    tau=st.floats(1e-3, 10.0),
    ts=st.floats(1e-3, 0.1),
    history=st.integers(0, 300).flatmap(
        lambda d: st.lists(st.floats(-10.0, 10.0).filter(lambda u: abs(u) > 1e-3), min_size=d, max_size=d)
    ),
)
def test_headway_recursion_constants_agree_with_prediction_weights(tau, ts, history):
    """d steps of a headway follower's recursion give the v and a rows of
    Phi^d, of Phi^d Gamma and of the forced response W @ history that
    prediction_weights' matrix products give, to 1e-13 of the magnitude
    of their terms."""
    params = dp.VehicleParams(tau=tau, phi=0.0)
    model = dp.discretize(params, ts)
    phi_d, w = simulator.prediction_weights(model, len(history))
    d12, d22, c1, c2, sv, sa = simulator._headway_constants(
        dp.dynamics.zoh_coefficients(params, ts), history
    )
    c = phi_d @ model.Gamma
    s0 = w @ np.array(history)
    s0_scale = np.abs(w) @ np.abs(history)
    got = (d12, d22, c1, c2, sv, sa)
    want = (phi_d[1, 2], phi_d[2, 2], c[1], c[2], s0[1], s0[2])
    scale = (phi_d[1, 2], phi_d[2, 2], c[1], c[2], s0_scale[1], s0_scale[2])
    for g, x, m in zip(got, want, scale):
        assert abs(g - x) <= 1e-13 * m, (g, x)
