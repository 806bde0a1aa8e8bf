import math

import numpy as np
import pytest

import delayplatoon as dp
from delayplatoon import analysis
from delayplatoon.errors import DelayGranularityError, HistoryDepthError
from delayplatoon.simulator import MeasurementModel, MeasurementOptions
from delayplatoon.spacing import PolicyKind

from oracles import error_dynamics_reference

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
        hist = dp.InputHistory.zeros(d, 0.01)
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
            hist = hist.push(log.u[k, 1])


class TestMeasurementModel:
    def exact(self, t):
        return (math.sin(t), math.cos(t), 2.0 * t, 3.0 * t, 4.0 * t)

    def test_defaults_pass_through(self):
        model = MeasurementModel(MeasurementOptions())
        for t in np.arange(0.0, 1.0, 0.01):
            assert model.sample(t, *self.exact(t)) == self.exact(t)

    def test_radar_hold_keeps_range_constant(self):
        model = MeasurementModel(MeasurementOptions(radar_hold=True, radar_rate_hz=2.0))
        seen = [model.sample(t, *self.exact(t))[0] for t in np.arange(0.0, 1.0, 0.01)]
        # refreshes at t = 0 and t = 0.5 only
        assert len(set(seen)) == 2
        assert seen[0] == math.sin(0.0) and seen[-1] == math.sin(0.5)

    def test_v2v_hold_keeps_predecessor_piecewise_constant(self):
        model = MeasurementModel(MeasurementOptions(v2v_hold=True, v2v_rate_hz=2.5))
        accel = [model.sample(t, *self.exact(t))[3] for t in np.arange(0.0, 1.0, 0.01)]
        assert len(set(accel)) == 3  # refreshes at 0, 0.4, 0.8
        radar = [model.sample(t, *self.exact(t))[0] for t in np.arange(0.0, 1.0, 0.01)]
        assert len(set(radar)) == len(radar)  # radar unaffected

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
                    dp.VehicleSetup(REF_VEHICLE, history=dp.InputHistory.zeros(10, 0.01)),
                ),
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
    ],
    ids=[
        "policy-h_v-nan", "policy-h_v-inf", "policy-standstill-nan", "pulse-amplitude-nan",
        "cruise-v_ref-nan", "cruise-gain-inf", "config-horizon-inf", "radar-rate-nan",
        "gains-k_p-inf", "region-phi-inf",
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
