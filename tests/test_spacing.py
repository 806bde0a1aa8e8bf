import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delayplatoon as dp
from delayplatoon import analysis
from delayplatoon.controllers import TrackingLaw, track
from delayplatoon.spacing import PolicyKind, PolicyRows

from oracles import spacing_error_from_rows

CONSTANT = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT)
DCH = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.4)
EXT = dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1.2, h_a=0.25)


class TestPolicyTypes:
    def test_validation(self):
        with pytest.raises(ValueError):
            dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.0)
        with pytest.raises(ValueError):
            dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1.0, h_a=0.0)
        with pytest.raises(ValueError):
            dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT, h_v=0.5)
        with pytest.raises(ValueError):
            dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.4, standstill=-1.0)

    @pytest.mark.parametrize(
        "kind, kwargs", [("dch", {"h_v": 1.0, "h_a": 0.5}), ("constant", {})], ids=["dch", "constant"]
    )
    def test_kind_must_be_a_policy_kind(self, kind, kwargs):
        """A kind token is not a kind: "dch" with h_a > 0 would pass as the
        extended policy, and "constant" would fail the extended check."""
        with pytest.raises(ValueError, match="kind must be a PolicyKind"):
            dp.SpacingPolicy(kind, **kwargs)

    def test_kind_parsing(self):
        assert PolicyKind.parse("dch") is PolicyKind.DELAYED_CONSTANT_HEADWAY
        assert PolicyKind.parse("EXT") is PolicyKind.DELAYED_EXTENDED_HEADWAY
        with pytest.raises(ValueError):
            PolicyKind.parse("nope")


class TestPolicyRows:
    def test_constant(self):
        rows = dp.policy_rows(CONSTANT)
        assert rows.H == (-1.0, 0.0, 0.0)
        assert rows.H_bar == (1.0, 0.0, 0.0)

    def test_constant_headway(self):
        rows = dp.policy_rows(DCH)
        assert rows.H == (0.0, 0.0, 0.0)
        assert rows.H_bar == (0.0, 0.4, 0.0)

    def test_extended(self):
        rows = dp.policy_rows(EXT)
        assert rows.H == (0.0, 1.2, 0.0)
        assert rows.H_bar == (0.0, 0.0, 0.25)


class TestRelativeDegrees:
    def test_constant_headway(self):
        rho, rho_bar = dp.relative_degrees(dp.policy_rows(DCH))
        assert rho == math.inf and rho_bar == 2

    def test_extended(self):
        rho, rho_bar = dp.relative_degrees(dp.policy_rows(EXT))
        assert (rho, rho_bar) == (2, 1)

    def test_constant(self):
        rho, rho_bar = dp.relative_degrees(dp.policy_rows(CONSTANT))
        assert (rho, rho_bar) == (3, 3)


    def test_degrees_from_the_rows_alone(self):
        cases = [
            (dp.policy_rows(DCH), (math.inf, 2)),
            (dp.policy_rows(EXT), (2, 1)),
            (dp.policy_rows(CONSTANT), (3, 3)),
            (PolicyRows((0.0, 0.0, 1.0), (0.0, 1.0, 0.0)), (1, 2)),
        ]
        for rows, degrees in cases:
            assert dp.relative_degrees(rows) == degrees


class TestSolvability:
    def test_constant_is_solvable_via_position_clause(self):
        result = dp.solvability_check(dp.policy_rows(CONSTANT))
        assert result.ok

    def test_headway_policies_solvable(self):
        assert dp.solvability_check(dp.policy_rows(DCH))
        assert dp.solvability_check(dp.policy_rows(EXT))

    def test_synthetic_rows_not_solvable(self):
        rows = PolicyRows((0.0, 0.0, 1.0), (0.0, 1.0, 0.0))
        rho, rho_bar = dp.relative_degrees(rows)
        assert (rho, rho_bar) == (1, 2)
        assert not dp.solvability_check(rows)


def policy_law(policy):
    """The policy's TrackingLaw with stabilizing gains and tau = 0.067 s."""
    return TrackingLaw(policy.kind, policy.h_v, policy.h_a, 1.0, 3.0, 0.5, 0.067, 0.067)


def policy_formula_error(policy, delta, delta_dot, x, xp):
    """e from controllers.track, the law the simulator runs."""
    return track(policy_law(policy), *x, *xp, delta, delta_dot, 0.0, 0.0)[1]


class TestSpacingError:
    def test_all_zero(self):
        for policy in (CONSTANT, DCH, EXT):
            assert track(policy_law(policy), *[0.0] * 10) == (0.0, 0.0, 0.0)
            rows = dp.policy_rows(policy)
            assert spacing_error_from_rows(rows, 0.0, np.zeros(3), np.zeros(3)) == 0.0

    def test_dch_satisfied_exactly(self):
        x, xp = np.array([0.0, 5.0, 0.0]), np.array([3.0, 5.0, 0.0])
        # with every acceleration 0, u = 0 exactly when e and e_dot are
        u, e, dref = track(policy_law(DCH), *x, *xp, 0.4 * 5.0, 0.0, 0.0, 0.0)
        assert e == 0.0 and u == 0.0 and dref == 0.4 * 5.0
        assert spacing_error_from_rows(dp.policy_rows(DCH), 0.4 * 5.0, x, xp) == 0.0

    def test_extended_steady_state(self):
        v = 7.0
        delta = 9.3
        x = xp = np.array([0.0, v, 0.0])
        e = policy_formula_error(EXT, delta, 0.0, x, xp)
        assert e == pytest.approx(delta - 1.2 * v, abs=1e-15)
        assert spacing_error_from_rows(dp.policy_rows(EXT), delta, x, xp) == pytest.approx(
            e, abs=1e-15
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_rows_and_policy_formulas_agree(seed):
    rng = np.random.default_rng(seed)
    delta, ddelta = rng.normal(size=2)
    x = rng.normal(size=3)
    xp = rng.normal(size=3)
    for policy in (CONSTANT, DCH, EXT):
        e = policy_formula_error(policy, delta, ddelta, x, xp)
        via_rows = spacing_error_from_rows(dp.policy_rows(policy), delta, x, xp)
        assert e == pytest.approx(via_rows, rel=1e-12, abs=1e-12)


class TestIsProper:
    def test_constant_always_proper(self, ref_params):
        assert dp.is_proper(CONSTANT, ref_params).stable

    def test_dch_reference_tuning(self, ref_params):
        verdict = dp.is_proper(DCH, ref_params)
        assert verdict.stable
        assert verdict.margins[0] == pytest.approx(0.4 * math.pi - 0.3)

    def test_dch_boundary_excluded(self):
        phi = 0.15
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=2 * phi / math.pi)
        assert not dp.is_proper(policy, dp.VehicleParams(0.067, phi)).stable

    def test_dch_monotone_in_hv(self):
        params = dp.VehicleParams(0.067, 0.15)
        verdicts = [
            dp.is_proper(
                dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=hv), params
            ).stable
            for hv in np.linspace(0.02, 0.5, 40)
        ]
        # once proper, proper for every larger h_v
        first = verdicts.index(True)
        assert all(verdicts[first:])

    def test_extended_reference_tuning(self, ref_params):
        verdict = dp.is_proper(EXT, ref_params)
        assert verdict.stable
        assert verdict.witness_omega is not None
        # the inequalities hold at the reported frequency
        w = verdict.witness_omega
        assert 0.15 * 1.2 / 0.25 <= w * math.sin(w) + 1e-12
        assert 0.15**2 / 0.25 < w * w * math.cos(w)

    def test_extended_example_frequency(self):
        # omega = 1 satisfies both region inequalities for the reference tuning
        assert 0.15 * 1.2 / 0.25 < 1.0 * math.sin(1.0)
        assert 0.15**2 / 0.25 < 1.0 * math.cos(1.0)

    def test_extended_boundary_consistency(self, ref_params):
        phi = ref_params.phi
        curve = analysis.stability_region_boundary(phi, 41)
        for idx in range(6, 38, 5):
            x, y = curve[idx]
            for scale, expected in ((1.0, False), (0.99, True)):
                h_a = 1.0 / (scale * y)
                h_v = scale * x * h_a
                policy = dp.SpacingPolicy(
                    PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=h_v, h_a=h_a
                )
                assert dp.is_proper(policy, ref_params).stable is expected

    @pytest.mark.parametrize("h_v,h_a", [(1.0, 0.01), (1e300, 1e-300)])
    def test_extended_beyond_curve_range_margin_negative(self, ref_params, h_v, h_a):
        """phi h_v / h_a >= pi/2: not proper, and the margin (positive =
        satisfied) is pi/2 - phi h_v / h_a, -inf when the ratio overflows."""
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=h_v, h_a=h_a)
        verdict = dp.is_proper(policy, ref_params)
        assert not verdict.stable and verdict.witness_omega is None
        assert verdict.margins == (0.5 * math.pi - ref_params.phi * h_v / h_a,)
        assert verdict.margins[0] < 0.0

    def test_extended_no_delay_is_proper(self):
        assert dp.is_proper(EXT, dp.VehicleParams(0.067, 0.0)).stable

    @pytest.mark.parametrize("h_a", [1e9, 1e12, 1e14, 1e305])
    def test_extended_large_acceleration_headway(self, ref_params, h_a):
        """Far below the curve's knee the clearance is about phi (h_v - phi)
        / h_a, however small, and it agrees with a certified root check."""
        phi = ref_params.phi
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1.0, h_a=h_a)
        verdict = dp.is_proper(policy, ref_params)
        assert verdict.stable
        assert verdict.margins[-1] == pytest.approx(phi * (1.0 - phi) / h_a, rel=1e-6)
        try:
            root_check = analysis.properness_root_check(policy, ref_params)
        except dp.RefinementError:
            return  # p overflows on the search contour: nothing to compare
        assert root_check.stable


class TestIsStringStable:
    def test_constant_unconditional(self, ref_params):
        verdict = dp.is_string_stable(CONSTANT, ref_params)
        assert verdict.stable and verdict.method == "closed-form"

    def test_dch_reference_tuning(self, ref_params):
        verdict = dp.is_string_stable(DCH, ref_params)
        assert verdict.stable and verdict.margins[0] == pytest.approx(0.1)

    def test_dch_boundary_included(self):
        phi = 0.15
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=2 * phi)
        assert dp.is_string_stable(policy, dp.VehicleParams(0.067, phi)).stable

    def test_dch_below_boundary(self):
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.25)
        assert not dp.is_string_stable(policy, dp.VehicleParams(0.067, 0.15)).stable

    def test_extended_closed_form_path(self, ref_params):
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1.2, h_a=0.36)
        verdict = dp.is_string_stable(policy, ref_params)
        assert verdict.stable and verdict.method == "closed-form"

    def test_extended_sweep_fallback(self, ref_params):
        verdict = dp.is_string_stable(EXT, ref_params)
        assert verdict.method == "sweep"
        assert verdict.stable
        assert verdict.peak_magnitude is not None

    def test_closed_form_implies_sweep_agreement(self, ref_params, rng):
        for _ in range(25):
            phi = rng.uniform(0.05, 0.3)
            h_v = rng.uniform(4 * phi, 2.5)
            h_a = rng.uniform(2 * h_v * phi, h_v * h_v / 2)
            policy = dp.SpacingPolicy(
                PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=h_v, h_a=h_a
            )
            params = dp.VehicleParams(0.067, phi)
            closed = dp.is_string_stable(policy, params)
            assert closed.method == "closed-form" and closed.stable
            sweep = analysis.string_stability_sweep(policy, params)
            assert sweep.peak_magnitude <= 1.0 + 1e-9
