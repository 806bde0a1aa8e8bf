import math

import numpy as np
import pytest

import delayplatoon as dp
from delayplatoon.controllers import validate_gains
from delayplatoon.errors import ChannelError, DegreeError
from delayplatoon.spacing import PolicyKind

from oracles import generic_rho_controller

TAU = 0.067
REF_VEHICLE = dp.VehicleParams(tau=TAU, phi=0.15)

CONSTANT = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT)
DCH = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.4)
EXT = dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1.2, h_a=0.25)

CONSTANT_GAINS = dp.ControllerGains(k_p=1 / TAU, k_d=3 / TAU, k_dd=3 / TAU)
DCH_GAINS = dp.ControllerGains(k_p=0.2, k_d=0.7 - TAU * 0.2)
EXT_GAINS = dp.ControllerGains(k_p=0.2)


def zero_inputs(**overrides):
    fields = dict(
        ego_state=dp.VehicleState(),
        ego_predicted=dp.VehicleState(),
        delta=0.0,
        delta_dot=0.0,
        predecessor_a=0.0,
        predecessor_u_delayed=0.0,
    )
    fields.update(overrides)
    return dp.ControlInputs(**fields)


def random_inputs(rng):
    return dp.ControlInputs(
        ego_state=dp.VehicleState(*rng.normal(size=3)),
        ego_predicted=dp.VehicleState(*rng.normal(size=3)),
        delta=rng.normal(),
        delta_dot=rng.normal(),
        predecessor_a=rng.normal(),
        predecessor_u_delayed=rng.normal(),
    )


class TestValidateGains:
    def test_table_tuning_valid(self):
        assert validate_gains(3, CONSTANT_GAINS) == []
        assert CONSTANT_GAINS.k_p * CONSTANT_GAINS.k_d > CONSTANT_GAINS.k_dd

    def test_product_boundary_invalid(self):
        bad = dp.ControllerGains(k_p=1.0, k_d=1.0, k_dd=1.0)
        violations = validate_gains(3, bad)
        assert len(violations) == 1 and "k_p*k_d" in violations[0]

    def test_second_order(self):
        assert validate_gains(2, dp.ControllerGains(k_p=0.2, k_d=0.5)) == []
        assert validate_gains(2, dp.ControllerGains(k_p=0.2)) != []

    def test_first_order(self):
        assert validate_gains(1, dp.ControllerGains(k_p=0.2)) == []
        assert validate_gains(1, dp.ControllerGains(k_p=0.0)) != []

    def test_bad_degree(self):
        with pytest.raises(DegreeError):
            validate_gains(4, EXT_GAINS)


class TestControllerSpec:
    def test_invalid_gains_rejected(self):
        with pytest.raises(ValueError):
            dp.ControllerSpec(EXT, dp.ControllerGains(k_p=-1.0), ego=REF_VEHICLE)

    def test_constant_needs_predecessor_params(self):
        with pytest.raises(ValueError):
            dp.ControllerSpec(CONSTANT, CONSTANT_GAINS, ego=REF_VEHICLE)

    def test_rho_bar_mapping(self):
        """ControllerSpec checks the gains for rho_bar of the policy rows."""
        for policy, rho_bar in ((CONSTANT, 3), (DCH, 2), (EXT, 1)):
            assert dp.relative_degrees(dp.policy_rows(policy))[1] == rho_bar
        with pytest.raises(ValueError, match="k_d "):
            dp.ControllerSpec(DCH, EXT_GAINS, ego=REF_VEHICLE)
        with pytest.raises(ValueError, match="k_dd "):
            dp.ControllerSpec(CONSTANT, DCH_GAINS, ego=REF_VEHICLE, predecessor=REF_VEHICLE)


class TestSpecializedControllers:
    def test_all_zero_gives_zero(self):
        specs = [
            dp.ControllerSpec(CONSTANT, CONSTANT_GAINS, ego=REF_VEHICLE, predecessor=REF_VEHICLE),
            dp.ControllerSpec(DCH, DCH_GAINS, ego=REF_VEHICLE, predecessor=REF_VEHICLE),
            dp.ControllerSpec(EXT, EXT_GAINS, ego=REF_VEHICLE),
        ]
        for spec in specs:
            assert dp.control(spec, zero_inputs()) == 0.0

    def test_constant_feedforward_holds_prediction(self):
        spec = dp.ControllerSpec(CONSTANT, CONSTANT_GAINS, ego=REF_VEHICLE, predecessor=REF_VEHICLE)
        alpha = 0.8
        # zero e, e_dot, e_ddot with predicted acceleration alpha: the
        # feedforward passes the predecessor's held input straight through
        inputs = zero_inputs(
            ego_predicted=dp.VehicleState(a=alpha),
            predecessor_a=alpha,
            predecessor_u_delayed=alpha,
        )
        assert dp.control(spec, inputs) == pytest.approx(alpha)

    def test_dch_feedforward_holds_prediction(self):
        spec = dp.ControllerSpec(DCH, DCH_GAINS, ego=REF_VEHICLE, predecessor=REF_VEHICLE)
        alpha = 0.8
        # e = 0 requires delta = h_v * v_hat; edot = 0 requires delta_dot = h_v * a_hat
        inputs = zero_inputs(
            ego_state=dp.VehicleState(a=alpha),
            ego_predicted=dp.VehicleState(v=2.0, a=alpha),
            delta=0.4 * 2.0,
            delta_dot=0.4 * alpha,
            predecessor_a=alpha,
        )
        assert dp.control(spec, inputs) == pytest.approx(alpha)

    def test_dch_unit_error_value(self):
        spec = dp.ControllerSpec(DCH, DCH_GAINS, ego=REF_VEHICLE, predecessor=REF_VEHICLE)
        inputs = zero_inputs(delta=1.0)
        assert dp.control(spec, inputs) == pytest.approx(0.0335)

    def test_ext_velocity_gap_value(self):
        spec = dp.ControllerSpec(EXT, EXT_GAINS, ego=REF_VEHICLE)
        inputs = zero_inputs(delta_dot=1.0)
        assert dp.control(spec, inputs) == pytest.approx(0.268)

    def test_ext_reduced_form_ignores_predictions(self, rng):
        """With k_p = 1/tau the law needs no predicted states at all."""
        spec = dp.ControllerSpec(
            EXT, dp.ControllerGains(k_p=1.0 / TAU), ego=REF_VEHICLE
        )
        for _ in range(1000):
            inputs = random_inputs(rng)
            u = dp.control(spec, inputs)
            # prediction-free evaluation of the same law
            h_v, h_a = EXT.h_v, EXT.h_a
            want = (TAU / h_a) * (
                inputs.delta_dot - h_v * inputs.ego_state.a
            ) + (inputs.delta - h_v * inputs.ego_state.v) / h_a
            assert u == pytest.approx(want, rel=1e-12, abs=1e-12)
            # and it really is independent of the predicted state
            other = dp.ControlInputs(
                ego_state=inputs.ego_state,
                ego_predicted=dp.VehicleState(*rng.normal(size=3)),
                delta=inputs.delta,
                delta_dot=inputs.delta_dot,
            )
            assert dp.control(spec, other) == pytest.approx(
                u, rel=1e-12, abs=1e-12
            )

    def test_missing_channels(self):
        spec = dp.ControllerSpec(DCH, DCH_GAINS, ego=REF_VEHICLE, predecessor=REF_VEHICLE)
        with pytest.raises(ChannelError):
            dp.control(spec, zero_inputs(predecessor_a=None))
        spec = dp.ControllerSpec(CONSTANT, CONSTANT_GAINS, ego=REF_VEHICLE, predecessor=REF_VEHICLE)
        with pytest.raises(ChannelError):
            dp.control(
                spec, zero_inputs(predecessor_u_delayed=None)
            )


class TestGenericController:
    def test_matches_extended(self, rng):
        rows = dp.policy_rows(EXT)
        spec = dp.ControllerSpec(EXT, EXT_GAINS, ego=REF_VEHICLE)
        for _ in range(300):
            inputs = random_inputs(rng)
            got = generic_rho_controller(rows, 1, EXT_GAINS, inputs, REF_VEHICLE)
            want = dp.control(spec, inputs)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_matches_constant_headway(self, rng):
        rows = dp.policy_rows(DCH)
        spec = dp.ControllerSpec(DCH, DCH_GAINS, ego=REF_VEHICLE, predecessor=REF_VEHICLE)
        for _ in range(300):
            inputs = random_inputs(rng)
            got = generic_rho_controller(rows, 2, DCH_GAINS, inputs, REF_VEHICLE)
            want = dp.control(spec, inputs)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_matches_constant(self, rng):
        rows = dp.policy_rows(CONSTANT)
        predecessor = dp.VehicleParams(tau=0.09, phi=0.2)
        spec = dp.ControllerSpec(
            CONSTANT, CONSTANT_GAINS, ego=REF_VEHICLE, predecessor=predecessor
        )
        for _ in range(300):
            inputs = random_inputs(rng)
            got = generic_rho_controller(
                rows, 3, CONSTANT_GAINS, inputs, REF_VEHICLE, predecessor=predecessor
            )
            want = dp.control(spec, inputs)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_unsupported_degree(self):
        with pytest.raises(DegreeError):
            generic_rho_controller(
                dp.policy_rows(EXT), 4, EXT_GAINS, zero_inputs(), REF_VEHICLE
            )

    def test_missing_channels(self):
        with pytest.raises(ChannelError):
            generic_rho_controller(
                dp.policy_rows(DCH), 2, DCH_GAINS,
                zero_inputs(predecessor_a=None), REF_VEHICLE,
            )
        with pytest.raises(ChannelError):
            generic_rho_controller(
                dp.policy_rows(CONSTANT), 3, CONSTANT_GAINS, zero_inputs(), REF_VEHICLE,
            )


NAN, INF = math.nan, math.inf
EYE, ZERO3 = np.eye(3), np.zeros(3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: zero_inputs(delta=NAN),
        lambda: zero_inputs(delta=-INF),
        lambda: zero_inputs(delta_dot=NAN),
        lambda: zero_inputs(predecessor_a=INF),
        lambda: zero_inputs(predecessor_u_delayed=NAN),
        lambda: dp.DiscreteModel(NAN * EYE, ZERO3, 0.01),
        lambda: dp.DiscreteModel(EYE, np.array([0.0, INF, 0.0]), 0.01),
        lambda: dp.DiscreteModel(np.eye(2), ZERO3, 0.01),
        lambda: dp.DiscreteModel(EYE, 0.0, 0.01),
        lambda: dp.DiscreteModel(EYE, ZERO3, -1.0),
        lambda: dp.DiscreteModel(EYE, ZERO3, 0.0),
        lambda: dp.DiscreteModel(EYE, ZERO3, NAN),
        lambda: dp.PolicyRows((NAN, 0.0, 0.0), (0.0, 0.0, NAN)),
        lambda: dp.PolicyRows((0.0, 0.0, 1.0), (0.0, INF, 0.0)),
        lambda: dp.PolicyRows((0.0, 1.0), (0.0, 0.0, 1.0)),
        lambda: dp.PolicyRows([0.0, 0.0, 0.0], (0.0, 1.0, 0.0)),
        lambda: dp.PolicyRows((0.0, 0.0, 0.0), (0.0, "1", 0.0)),
    ],
    ids=[
        "inputs-delta-nan", "inputs-delta-inf", "inputs-delta-dot-nan", "inputs-pred-a-inf",
        "inputs-pred-u-nan", "model-phi-nan", "model-gamma-inf", "model-phi-2x2",
        "model-gamma-scalar", "model-ts-negative", "model-ts-zero", "model-ts-nan",
        "rows-nan", "rows-inf", "rows-short", "rows-list", "rows-str",
    ],
)
def test_constructors_reject_bad_values(build):
    """ControlInputs, DiscreteModel and PolicyRows check what they are given,
    so nan never reaches control(), predict() or solvability_check()."""
    with pytest.raises(ValueError):
        build()
