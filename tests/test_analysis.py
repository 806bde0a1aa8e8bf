import math

import numpy as np
import pytest

import delayplatoon as dp
from delayplatoon import analysis
from delayplatoon.analysis import QuasiPolynomial, SearchRegion
from delayplatoon.errors import NoRootError
from delayplatoon.spacing import PolicyKind

from oracles import dch_rightmost_root

DCH = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.4)
EXT = dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1.2, h_a=0.25)
CONSTANT = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT)


def direct_magnitude(policy, params, omega):
    """Independent oracle: |T| from the complex transfer denominator."""
    s = 1j * omega
    if policy.kind is PolicyKind.DELAYED_CONSTANT:
        return 1.0
    if policy.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
        den = np.exp(s * params.phi) * policy.h_v * s + 1.0
    else:
        den = policy.h_a * np.exp(s * params.phi) * s * s + policy.h_v * s + 1.0
    return float(1.0 / abs(den))


class TestTransferMagnitude:
    def test_dc_gain_unity(self, ref_params):
        for policy in (CONSTANT, DCH, EXT):
            assert dp.transfer_magnitude(policy, ref_params, 0.0) == pytest.approx(1.0)

    def test_constant_policy_all_frequencies(self, ref_params):
        omegas = np.logspace(-3, 3, 50)
        mags = dp.transfer_magnitude(CONSTANT, ref_params, omegas)
        assert np.all(mags == 1.0)

    def test_dch_two_route_agreement(self, ref_params, rng):
        got = dp.transfer_magnitude(DCH, ref_params, 1.0)
        want = 1.0 / math.sqrt(0.16 - 0.8 * math.sin(0.15) + 1.0)
        assert got == pytest.approx(want, rel=1e-15)
        for omega in rng.uniform(1e-3, 200.0, size=200):
            left = dp.transfer_magnitude(DCH, ref_params, omega)
            right = direct_magnitude(DCH, ref_params, omega)
            assert left == pytest.approx(right, rel=1e-12)

    def test_extended_two_route_agreement(self, ref_params, rng):
        for omega in rng.uniform(1e-3, 200.0, size=200):
            left = dp.transfer_magnitude(EXT, ref_params, omega)
            right = direct_magnitude(EXT, ref_params, omega)
            assert left == pytest.approx(right, rel=1e-12)

    def test_rejects_negative_frequency(self, ref_params):
        with pytest.raises(ValueError):
            dp.transfer_magnitude(DCH, ref_params, -1.0)


class TestStringStabilitySweep:
    def test_dch_stable_tuning(self, ref_params):
        verdict = dp.string_stability_sweep(DCH, ref_params)
        assert verdict.stable
        assert verdict.peak_magnitude <= 1.0 + 1e-9

    def test_dch_boundary_tangency(self):
        phi = 0.15
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=2 * phi)
        verdict = dp.string_stability_sweep(policy, dp.VehicleParams(0.067, phi))
        assert verdict.peak_magnitude == pytest.approx(1.0, abs=1e-6)

    def test_dch_just_below_boundary(self):
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.29)
        verdict = dp.string_stability_sweep(policy, dp.VehicleParams(0.067, 0.15))
        assert not verdict.stable
        assert verdict.peak_magnitude > 1.0
        assert verdict.peak_omega > 0.0
        # the reported peak really violates the bound
        assert direct_magnitude(
            policy, dp.VehicleParams(0.067, 0.15), verdict.peak_omega
        ) > 1.0

    def test_constant_policy(self, ref_params):
        verdict = dp.string_stability_sweep(CONSTANT, ref_params)
        assert verdict.stable and verdict.peak_magnitude == 1.0


class TestRightmostRoot:
    def test_plain_polynomial(self):
        qp = QuasiPolynomial((((1.0, 1.0), 0.0),))
        root = dp.rightmost_root(qp, SearchRegion(-5.0, 2.0, 3.0))
        assert root == -1.0

    def test_dch_factor_on_boundary(self):
        h_v, phi = 0.2, 0.1 * math.pi  # phi/h_v = pi/2 exactly
        qp = QuasiPolynomial.dch_internal(h_v, phi)
        root = dp.rightmost_root(qp, SearchRegion.default_for(phi))
        assert abs(root.real) <= 1e-6
        assert root.imag == pytest.approx(1.0 / h_v, rel=1e-9)

    def test_dch_factor_sign_change(self):
        h_v = 0.2
        for offset, sign in ((-0.05, -1.0), (0.05, 1.0)):
            phi = h_v * (0.5 * math.pi + offset)
            qp = QuasiPolynomial.dch_internal(h_v, phi)
            root = dp.rightmost_root(qp, SearchRegion.default_for(phi))
            assert sign * root.real > 0.0

    def test_root_soundness(self):
        for qp, phi in (
            (QuasiPolynomial.dch_internal(0.4, 0.15), 0.15),
            (QuasiPolynomial.extended_internal(1.2, 0.25, 0.15), 0.15),
            (QuasiPolynomial.dch_internal(0.1, 0.2), 0.2),
        ):
            root = dp.rightmost_root(qp, SearchRegion.default_for(phi))
            assert abs(qp.eval_scalar(root)) <= 1e-10 * qp.coefficient_scale(root)

    def test_empty_rectangle(self):
        qp = QuasiPolynomial((((1.0, 1.0), 0.0),))
        with pytest.raises(NoRootError):
            dp.rightmost_root(qp, SearchRegion(1.0, 2.0, 1.0))

    def test_double_root_multiplicity_certified(self):
        # h_v = e*phi puts a double real root at -1/phi
        phi = 0.1
        qp = QuasiPolynomial.dch_internal(math.e * phi, phi)
        root = dp.rightmost_root(qp, SearchRegion.default_for(phi))
        assert root == pytest.approx(-1.0 / phi, rel=1e-6)
        assert root == pytest.approx(dch_rightmost_root(math.e * phi, phi), rel=1e-6)

    def test_dch_matches_lambert_w_25x25(self):
        for h_v in np.linspace(0.05, 0.5, 25):
            for phi in np.linspace(0.05, 0.3, 25):
                qp = QuasiPolynomial.dch_internal(h_v, phi)
                root = dp.rightmost_root(qp, SearchRegion.default_for(phi))
                assert abs(root - dch_rightmost_root(h_v, phi)) <= 1e-10

    def test_neutral_rejected(self):
        # lambda + lambda e^{-0.1 lambda}: the delayed term has the full degree
        qp = QuasiPolynomial((((0.0, 1.0), 0.0), ((0.0, 1.0), 0.1)))
        with pytest.raises(ValueError, match="neutral"):
            dp.rightmost_root(qp, SearchRegion.default_for(0.1))

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchRegion(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            QuasiPolynomial((((0.0,), 0.0),))
        with pytest.raises(ValueError):
            QuasiPolynomial((((1.0,), -0.1),))
        with pytest.raises(ValueError):
            QuasiPolynomial((((math.inf, 1.0), 0.0),))


class TestPropernessRootCheck:
    def test_dch_agrees_with_closed_form(self, ref_params):
        verdict = dp.properness_root_check(DCH, ref_params)
        assert verdict.stable
        assert verdict.rightmost_root.real < -1e-9

    def test_extended_reference_tuning(self, ref_params):
        verdict = dp.properness_root_check(EXT, ref_params)
        assert verdict.stable
        assert dp.is_proper(EXT, ref_params).stable == verdict.stable

    def test_on_boundary_root_near_axis(self, ref_params):
        curve = analysis.stability_region_boundary(ref_params.phi, 41)
        x, y = curve[20]
        h_a = 1.0 / y
        policy = dp.SpacingPolicy(
            PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=x * h_a, h_a=h_a
        )
        verdict = dp.properness_root_check(policy, ref_params)
        assert abs(verdict.rightmost_root.real) <= 1e-5

    def test_rejects_constant_policy(self, ref_params):
        with pytest.raises(ValueError):
            dp.properness_root_check(CONSTANT, ref_params)


class TestAgreementGrids:
    """Closed-form properness matches the rightmost-root verdict."""

    def test_dch_50x50(self):
        mismatches = 0
        for h_v in np.linspace(0.05, 0.5, 50):
            for phi in np.linspace(0.05, 0.3, 50):
                if abs(h_v * math.pi - 2.0 * phi) < 1e-4:
                    continue  # boundary band
                policy = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=h_v)
                params = dp.VehicleParams(0.067, phi)
                closed = dp.is_proper(policy, params).stable
                root = dp.properness_root_check(policy, params).stable
                mismatches += closed != root
        assert mismatches == 0

    def test_extended_50x50(self, ref_params):
        mismatches = 0
        for h_v in np.linspace(0.2, 2.0, 50):
            for h_a in np.linspace(0.05, 1.0, 50):
                policy = dp.SpacingPolicy(
                    PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=h_v, h_a=h_a
                )
                closed = dp.is_proper(policy, ref_params)
                if closed.margins and abs(closed.margins[-1]) < 1e-4:
                    continue  # boundary band
                root = dp.properness_root_check(policy, ref_params).stable
                mismatches += closed.stable != root
        assert mismatches == 0


class TestStabilityRegionBoundary:
    def test_endpoints(self):
        phi = 0.15
        curve = analysis.stability_region_boundary(phi, 400)
        assert np.allclose(curve[0], (0.0, 0.0), atol=1e-12)
        assert curve[-1][0] == pytest.approx(math.pi / (2 * phi), abs=1e-9)
        assert abs(curve[-1][1]) <= 1e-9

    def test_two_points_gives_endpoints_only(self):
        curve = analysis.stability_region_boundary(0.15, 2)
        assert curve.shape == (2, 2)

    def test_parametric_values(self):
        # the map at frequency 1 is (sin(phi), cos(phi))
        phi = 0.15
        n = 2000
        curve = analysis.stability_region_boundary(phi, n)
        w = np.linspace(0.0, 0.5 * math.pi / phi, n)
        k = int(np.argmin(np.abs(w - 1.0)))
        assert curve[k][0] == pytest.approx(w[k] * math.sin(w[k] * phi), rel=1e-12)
        assert curve[k][1] == pytest.approx(w[k] ** 2 * math.cos(w[k] * phi), rel=1e-12)
        assert curve[k][0] == pytest.approx(math.sin(phi), abs=2e-2)
        assert curve[k][1] == pytest.approx(math.cos(phi), abs=2e-2)

    def test_region_shrinks_with_delay(self):
        n = 200
        curves = [analysis.stability_region_boundary(phi, n) for phi in (0.1, 0.15, 0.2)]
        for smaller, larger in zip(curves[1:], curves[:-1]):
            assert np.all(smaller[1:, 0] < larger[1:, 0])
            assert np.all(smaller[1:-1, 1] < larger[1:-1, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            analysis.stability_region_boundary(0.0, 10)
        with pytest.raises(ValueError):
            analysis.stability_region_boundary(0.15, 1)


class TestL2StringStability:
    def test_identical_logs_pass(self):
        t = np.linspace(0.0, 10.0, 1001)
        v = np.sin(t)
        logs = np.column_stack([v, v, v])
        verdicts = dp.l2_string_stability_check(logs, 0.01)
        assert all(item.ok for item in verdicts)

    def test_delayed_follower_passes(self):
        ts = 0.01
        t = np.arange(0.0, 10.0, ts)
        lead = np.where(t > 1.0, np.sin(t - 1.0), 0.0)
        shift = 15
        follow = np.concatenate([np.zeros(shift), lead[:-shift]])
        verdicts = dp.l2_string_stability_check(np.column_stack([lead, follow]), ts)
        assert verdicts[0].ok

    def test_scaled_follower_fails(self):
        ts = 0.01
        t = np.arange(0.0, 10.0, ts)
        lead = np.sin(t)
        verdicts = dp.l2_string_stability_check(np.column_stack([lead, 1.1 * lead]), ts)
        assert not verdicts[0].ok
        assert verdicts[0].max_violation > 0.0

    def test_misaligned_logs_rejected(self):
        with pytest.raises(ValueError):
            dp.l2_string_stability_check(np.zeros(10), 0.01)
        with pytest.raises(ValueError):
            dp.l2_string_stability_check(np.zeros((10, 1)), 0.01)

    @pytest.mark.parametrize("ts", [math.nan, math.inf, 0.0, -1.0])
    def test_invalid_sample_period_rejected(self, ts):
        with pytest.raises(ValueError):
            dp.l2_string_stability_check(np.zeros((10, 2)), ts)


class TestWindingCertificate:
    def test_root_on_contour_is_rejected(self):
        # lambda + 1 with the rectangle edge through the root at -1
        qp = QuasiPolynomial((((1.0, 1.0), 0.0),))
        with pytest.raises(dp.RefinementError):
            dp.rightmost_root(qp, SearchRegion(-1.0, 2.0, 1.0))

    def test_non_finite_contour_values_rejected(self):
        # 1/h_v = 1e308 overflows p on the left edge of the rectangle
        qp = QuasiPolynomial.dch_internal(1e-308, 0.15)
        with pytest.raises(dp.RefinementError, match="not finite"):
            dp.rightmost_root(qp, SearchRegion.default_for(0.15))
