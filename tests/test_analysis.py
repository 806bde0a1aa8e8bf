import cmath
import math
import time
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import delayplatoon as dp
from delayplatoon import analysis
from delayplatoon.analysis import QuasiPolynomial
from delayplatoon.spacing import PolicyKind

from oracles import (
    dch_rightmost_root,
    generator_matrix_reference,
    lambert_w_near_branch_point,
    local_multiplicity_reference,
    quasi_polynomial_reference,
    refined_peak_reference,
    root_bound_reference,
    winding_number_reference,
)

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


OMEGAS = np.random.default_rng(1234).uniform(1e-3, 200.0, size=200)


def _assert_routes_agree(policy, params):
    """The array kernel against the complex denominator."""
    array = dp.transfer_magnitude(policy, params, OMEGAS)
    for omega, left in zip(OMEGAS.tolist(), array.tolist()):
        assert left == pytest.approx(direct_magnitude(policy, params, omega), rel=1e-12)


class TestTransferMagnitude:
    def test_dc_gain_unity(self, ref_params):
        for policy in (CONSTANT, DCH, EXT):
            assert dp.transfer_magnitude(policy, ref_params, 0.0) == pytest.approx(1.0)

    def test_constant_policy_all_frequencies(self, ref_params):
        omegas = np.logspace(-3, 3, 50)
        mags = dp.transfer_magnitude(CONSTANT, ref_params, omegas)
        assert np.all(mags == 1.0)

    def test_dch_closed_form(self, ref_params):
        got = dp.transfer_magnitude(DCH, ref_params, 1.0)
        want = 1.0 / math.sqrt(0.16 - 0.8 * math.sin(0.15) + 1.0)
        assert got == pytest.approx(want, rel=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(phi=st.floats(0.05, 0.3), h_v=st.floats(0.05, 3.0))
    @example(phi=0.15, h_v=0.4)
    def test_dch_two_route_agreement(self, phi, h_v):
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=h_v)
        _assert_routes_agree(policy, dp.VehicleParams(0.067, phi))

    @settings(max_examples=40, deadline=None)
    @given(phi=st.floats(0.05, 0.3), h_v=st.floats(0.05, 3.0), log_h_a=st.floats(-4.0, 0.0))
    @example(phi=0.15, h_v=1.2, log_h_a=math.log10(0.25))
    def test_extended_two_route_agreement(self, phi, h_v, log_h_a):
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=h_v, h_a=10.0**log_h_a)
        _assert_routes_agree(policy, dp.VehicleParams(0.067, phi))

    def test_dch_extreme_tunings_stay_finite(self, ref_params):
        """|T| of the constant headway policy is evaluated without overflow:
        a huge h_v gives |T| ~ 1 / (w h_v), a tiny phi |T| ~ 1 / hypot(w h_v, 1)."""
        omegas = analysis.default_sweep_grid(DCH, ref_params)
        huge = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=1e300)
        mags = dp.transfer_magnitude(huge, ref_params, omegas)
        assert np.all(mags > 0.0)
        assert np.max(mags) == pytest.approx(1e-297, rel=1e-12)
        tiny = dp.VehicleParams(tau=0.067, phi=1e-300)
        assert dp.transfer_magnitude(DCH, tiny, 1e-3) == pytest.approx(
            1.0 / math.hypot(4e-4, 1.0), rel=1e-15
        )

    def test_rejects_negative_frequency(self, ref_params):
        with pytest.raises(ValueError):
            dp.transfer_magnitude(DCH, ref_params, -1.0)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, [1.0, math.nan], [0.5, math.inf]])
    def test_rejects_non_finite_frequency(self, ref_params, omega):
        for policy in (CONSTANT, DCH, EXT):
            with pytest.raises(ValueError, match="finite"):
                dp.transfer_magnitude(policy, ref_params, omega)

    def test_rejects_an_overflowing_phase(self):
        """sin and cos of an overflowed omega phi are NaN: no |T| is read off
        them, and the default grid stops at OMEGA_CAP / phi."""
        params = dp.VehicleParams(0.067, 550.0)
        for policy in (CONSTANT, DCH, EXT):
            with pytest.raises(ValueError, match="omega phi"):
                dp.transfer_magnitude(policy, params, [1.0, 1e308])
        tiny = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=1e-310)
        top = float(analysis.default_sweep_grid(tiny, params)[-1])
        assert top == pytest.approx(analysis.OMEGA_CAP / 550.0, rel=1e-12)
        assert math.isfinite(dp.transfer_magnitude(tiny, params, top))


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

    @pytest.mark.parametrize(
        "policy",
        [
            dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=1e-310),
            dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1e-310, h_a=0.5),
        ],
        ids=["dch", "ext"],
    )
    def test_overflowing_top_frequency_is_capped(self, policy):
        """10 / h_v overflows to inf: the grid stops at OMEGA_CAP instead of
        turning into NaN, and the peak is finite and real."""
        params = dp.VehicleParams(0.067, 0.15)
        assert not math.isfinite(10.0 / policy.h_v)
        grid = analysis.default_sweep_grid(policy, params)
        assert np.all(np.isfinite(grid)) and grid[-1] == analysis.OMEGA_CAP
        verdict = dp.string_stability_sweep(policy, params)
        assert not verdict.stable
        assert 0.0 < verdict.peak_omega <= analysis.OMEGA_CAP
        assert verdict.peak_magnitude == pytest.approx(
            direct_magnitude(policy, params, verdict.peak_omega), rel=1e-9
        )


    @pytest.mark.parametrize(
        "policy,phi",
        [
            (dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.4), 0.15),
            (dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1.2, h_a=0.25), 0.15),
            (dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=0.1, h_a=1.0), 3.0),
        ],
        ids=["dch", "ext", "ext-ha-1"],
    )
    def test_grid_starts_at_1e_3_where_ha_le_1_and_omega_max_ge_1(self, policy, phi):
        grid = analysis.default_sweep_grid(policy, dp.VehicleParams(0.067, phi))
        assert grid[0] == 1e-3 and grid[-1] >= 1.0
        assert np.array_equal(grid, np.logspace(-3.0, math.log10(grid[-1]), grid.size))

    def test_grid_never_descends(self):
        """max(10/h_v, 20 pi/phi) = 6.3e-4 lies below 1e-3: the grid starts
        three decades below it instead of running down from 1e-3."""
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=1e5)
        grid = analysis.default_sweep_grid(policy, dp.VehicleParams(0.067, 1e5), 4)
        assert np.all(np.diff(grid) > 0.0)
        assert grid[-1] == pytest.approx(20.0 * math.pi / 1e5, rel=1e-15)
        assert grid[0] == pytest.approx(1e-3 * grid[-1], rel=1e-12)

    @pytest.mark.parametrize(
        "h_v,h_a,phi,omega",
        [(1.0, 1e8, 0.15, 1e-4), (2e5, 1e12, 1e5, 1.0051e-6)],
        ids=["ha-1e8", "ha-1e12"],
    )
    def test_low_band_of_a_large_acceleration_headway(self, h_v, h_a, phi, omega):
        """h_v^2 < 2 h_a puts a band of |T| > 1 near 1/sqrt(h_a), below 1e-3
        for h_a above about 2e6; the grid reaches it, so both proper tunings
        are not string stable."""
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=h_v, h_a=h_a)
        params = dp.VehicleParams(0.067, phi)
        assert dp.is_proper(policy, params).stable
        assert dp.transfer_magnitude(policy, params, omega) > 10.0
        grid = analysis.default_sweep_grid(policy, params)
        assert grid[0] <= 1e-3 / math.sqrt(h_a)
        verdict = dp.string_stability_sweep(policy, params)
        assert not verdict.stable and verdict.peak_magnitude > 10.0


def _within_budget(policy, params, grid, peak, monkeypatch) -> bool:
    """Whether refined_peak gave peak short of PEAK_EVAL_CAP: a run that
    stops at its budget finds more with four times the budget."""
    with monkeypatch.context() as patched:
        patched.setattr(analysis, "PEAK_EVAL_CAP", 4 * analysis.PEAK_EVAL_CAP)
        return analysis.refined_peak(policy, params, grid)[1] == peak


def test_coarse_start_agrees_with_a_4096_point_grid(monkeypatch):
    """200 seeded DCH and extended tunings over the paper's ranges: the sweep
    verdict from SWEEP_POINTS cells is refined_peak's on the 4,096-point grid
    of the same range, and where neither run stops at its budget the two
    certified peaks agree to 1e-11."""
    rng = np.random.default_rng(24)
    unstable = 0
    for k in range(200):
        phi = float(rng.uniform(0.05, 0.3))
        if k % 2:
            policy = dp.SpacingPolicy(DCH.kind, h_v=2.0 * phi * float(rng.uniform(0.05, 3.0)))
        else:
            policy = dp.SpacingPolicy(
                EXT.kind, h_v=float(rng.uniform(0.05, 3.0)), h_a=10.0 ** float(rng.uniform(-4.0, 0.0))
            )
        params = dp.VehicleParams(0.067, phi)
        verdict = dp.string_stability_sweep(policy, params)
        dense = analysis.default_sweep_grid(policy, params, 4096)
        peak = analysis.refined_peak(policy, params, dense)[1]
        assert verdict.stable == (peak <= 1.0 + analysis.SWEEP_TOL), (policy, phi)
        unstable += not verdict.stable
        coarse = analysis.default_sweep_grid(policy, params)
        if (_within_budget(policy, params, coarse, verdict.peak_magnitude, monkeypatch)
                and _within_budget(policy, params, dense, peak, monkeypatch)):
            assert verdict.peak_magnitude == pytest.approx(peak, rel=1e-11, abs=0.0), (policy, phi)
    assert 0 < unstable < 200


def _assert_peak_is_certified(policy, params):
    """The certified peak is no lower than golden's lower bound, is |T| at
    its abscissa, and no point of a 65,536-point grid on the same range
    exceeds it."""
    grid = analysis.default_sweep_grid(policy, params)
    w, m, mags = analysis.refined_peak(policy, params, grid)
    _, m_ref, mags_ref = refined_peak_reference(policy, params, grid)
    assert np.array_equal(mags, mags_ref)
    assert m >= m_ref * (1.0 - 1e-12)
    assert m == dp.transfer_magnitude(policy, params, w)
    dense = np.logspace(math.log10(grid[0]), math.log10(grid[-1]), 65536)
    assert np.max(dp.transfer_magnitude(policy, params, dense)) <= m * (1.0 + 1e-10)
    verdict = dp.string_stability_sweep(policy, params)
    assert verdict.stable == (m <= 1.0 + analysis.SWEEP_TOL)


def _second_derivative(policy, params, w):
    """D'' for D = |1/T(i w)|^2, differentiated by hand from D's closed form."""
    phi, hv, ha = params.phi, policy.h_v, policy.h_a
    s, c = math.sin(w * phi), math.cos(w * phi)
    if policy.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:  # D = w^2 hv^2 - 2 w hv s + 1
        return 2.0 * hv * hv - 4.0 * hv * phi * c + 2.0 * w * hv * phi * phi * s
    # D = 1 - 2 ha w^2 c + ha^2 w^4 + hv^2 w^2 - 2 hv ha w^3 s
    return (
        -2.0 * ha * (2.0 * c - 4.0 * w * phi * s - w * w * phi * phi * c)
        + 12.0 * ha * ha * w * w
        + 2.0 * hv * hv
        - 2.0 * hv * ha * (6.0 * w * s + 6.0 * w * w * phi * c - w**3 * phi * phi * s)
    )


def _count_evaluations(monkeypatch) -> list[int]:
    """Sizes of the arrays refined_peak evaluates, one entry per call: the
    grid's, then the graded cells' and one per level of splits.  The scalar
    Newton steps run on slopes, which is not counted."""
    sizes = []
    kernel = analysis.magnitude_kernel

    def counting(policy, params):
        parts, curvature, slopes = kernel(policy, params)
        return (lambda w: sizes.append(np.size(w)) or parts(w)), curvature, slopes

    monkeypatch.setattr(analysis, "magnitude_kernel", counting)
    return sizes


class TestRefinedPeak:
    """The cell-bound refinement against the golden-section oracle, which
    evaluates only true |T| values and so bounds the supremum from below."""

    @settings(max_examples=40, deadline=None)
    @given(phi=st.floats(0.05, 0.3), ratio=st.floats(0.05, 3.0))
    @example(phi=0.15, ratio=0.05 / 0.3)  # improper, 10 interior maxima
    def test_dch_peak_is_certified(self, phi, ratio):
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=2.0 * phi * ratio)
        _assert_peak_is_certified(policy, dp.VehicleParams(0.067, phi))

    @settings(max_examples=40, deadline=None)
    @given(phi=st.floats(0.05, 0.3), h_v=st.floats(0.05, 3.0), log_h_a=st.floats(-4.0, 0.0))
    def test_extended_peak_is_certified(self, phi, h_v, log_h_a):
        policy = dp.SpacingPolicy(
            PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=h_v, h_a=10.0**log_h_a
        )
        _assert_peak_is_certified(policy, dp.VehicleParams(0.067, phi))

    @settings(max_examples=200, deadline=None)
    @given(
        extended=st.booleans(), h_v=st.floats(1e-3, 10.0), log_h_a=st.floats(-5.0, 1.0),
        phi=st.one_of(st.just(0.0), st.floats(0.0, 2.0)), w_hi=st.floats(0.0, 1e3),
        t=st.floats(0.0, 1.0),
    )
    def test_curvature_bounds_the_second_derivative(self, extended, h_v, log_h_a, phi, w_hi, t):
        if extended:
            policy = dp.SpacingPolicy(EXT.kind, h_v=h_v, h_a=10.0**log_h_a)
        else:
            policy = dp.SpacingPolicy(DCH.kind, h_v=h_v)
        params = dp.VehicleParams(0.067, phi)
        _, curvature, _ = analysis.magnitude_kernel(policy, params)
        bound = curvature(w_hi)
        second = _second_derivative(policy, params, t * w_hi)
        assert abs(second) <= bound * (1.0 + 1e-12)  # both sides rounded

    @settings(max_examples=300, deadline=None)
    @given(
        extended=st.booleans(), h_v=st.floats(0.05, 3.0), log_h_a=st.floats(-4.0, 0.0),
        phi=st.floats(0.05, 0.3), log_w=st.floats(-3.0, 2.5),
    )
    def test_slopes_match_central_differences(self, extended, h_v, log_h_a, phi, log_w):
        """slopes' D, D' and D'' against D = |1/T|^2 from parts and its
        central differences, with a step of 1e-4 of the frequency and of the
        phase's period (truncation about 1e-8 curvature(w)), and D''
        against the closed form differentiated by hand."""
        if extended:
            policy = dp.SpacingPolicy(EXT.kind, h_v=h_v, h_a=10.0**log_h_a)
        else:
            policy = dp.SpacingPolicy(DCH.kind, h_v=h_v)
        params = dp.VehicleParams(0.067, phi)
        parts, curvature, slopes = analysis.magnitude_kernel(policy, params)
        w = 10.0**log_w
        h = 1e-4 * w / (1.0 + w * phi)
        below, at, above = np.hypot(*parts(np.array([w - h, w, w + h]))) ** 2
        d, d1, d2 = slopes(w)
        m = curvature(w)
        assert d == pytest.approx(at, rel=1e-14)
        assert abs(d1 - (above - below) / (2.0 * h)) <= 2e-6 * m * w + 4e-14 * d / h
        assert abs(d2 - (above - 2.0 * at + below) / (h * h)) <= 2e-6 * m + 4e-14 * d / (h * h)
        assert abs(d2 - _second_derivative(policy, params, w)) <= 1e-13 * m * (1.0 + w * phi) ** 2

    def test_points_beyond_the_grid_are_few(self, monkeypatch):
        """Ten maxima cost one array call for the grid, then graded cells and
        16-way splits: at most 150 points beyond the grid, where one
        golden-section search per maximum took about 380 evaluations."""
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.05)
        params = dp.VehicleParams(0.067, 0.15)
        grid = analysis.default_sweep_grid(policy, params)
        mags = dp.transfer_magnitude(policy, params, grid)
        assert np.count_nonzero((mags[1:-1] >= mags[:-2]) & (mags[1:-1] >= mags[2:])) >= 5
        sizes = _count_evaluations(monkeypatch)
        w, m, _ = analysis.refined_peak(policy, params, grid)
        assert sizes[0] == grid.size and 0 < sum(sizes[1:]) <= 150
        assert m > np.max(mags)

    @pytest.mark.parametrize("family", ["dch-unstable", "dch-near", "ext-unstable", "ext-near"])
    def test_interior_peaks_take_two_array_calls(self, monkeypatch, family):
        """Where the grid's best point is interior, the graded cells and at
        most one level of splits certify the peak: at most two array calls
        beyond the grid (16-way splits alone took up to 8), on 40 seeded
        tunings each of DCH and the extended policy, unstable and within
        1e-2 of the properness boundary."""
        rng = np.random.default_rng(27)
        sizes = _count_evaluations(monkeypatch)
        interior = 0
        for _ in range(40):
            phi = float(rng.uniform(0.05, 0.3))
            if family == "dch-unstable":
                policy = dp.SpacingPolicy(DCH.kind, h_v=2.0 * phi * float(rng.uniform(1.2 / math.pi, 0.9)))
            elif family == "dch-near":
                margin = float(rng.choice((-1.0, 1.0)) * rng.uniform(2e-4, 5e-3))
                policy = dp.SpacingPolicy(DCH.kind, h_v=(2.0 * phi + margin) / math.pi)
            elif family == "ext-unstable":
                policy = dp.SpacingPolicy(
                    EXT.kind, h_v=float(rng.uniform(0.2, 2.0)), h_a=float(rng.uniform(0.05, 1.0))
                )
            else:  # (h_v / h_a, 1 / h_a) scaled off the boundary (w sin w, w^2 cos w) / phi
                w, scale = float(rng.uniform(0.1, 1.5)), 1.0 + float(rng.uniform(-1e-2, 1e-2))
                h_a = phi * phi / (w * w * math.cos(w)) * scale
                policy = dp.SpacingPolicy(EXT.kind, h_v=h_a * w * math.sin(w) / phi, h_a=h_a)
            params = dp.VehicleParams(0.067, phi)
            grid = analysis.default_sweep_grid(policy, params)
            sizes.clear()
            _, m, mags = analysis.refined_peak(policy, params, grid)
            if 0 < np.argmax(mags) < grid.size - 1:
                interior += 1
                assert m > 1.0 + analysis.SWEEP_TOL
                assert len(sizes) - 1 <= 2, (policy, phi, sizes)
        assert interior >= 15

    def test_graded_points_count_toward_the_cap(self, monkeypatch):
        """Under any cap the points beyond the grid, the graded ones
        included, stay within it: below the graded cells' count they are
        left out, and the unstable tuning still returns its witness, while
        the tangent one, whose peak lies at the grid's start, still raises."""
        params = dp.VehicleParams(0.067, 0.15)
        unstable = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.29)
        tangent = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.3)
        grid = analysis.default_sweep_grid(unstable, params)
        sizes = _count_evaluations(monkeypatch)
        analysis.refined_peak(unstable, params, grid)
        graded = sizes[1]
        assert len(sizes) == 3 and graded > 16
        for cap in (0, 1, graded - 1, graded, graded + 1, sum(sizes[1:]) - 1):
            monkeypatch.setattr(analysis, "PEAK_EVAL_CAP", cap)
            sizes.clear()
            w, m, _ = analysis.refined_peak(unstable, params, grid)
            assert sum(sizes[1:]) <= cap and (sizes[1:2] == [graded]) == (cap >= graded)
            assert m > 1.0 + analysis.SWEEP_TOL and m == dp.transfer_magnitude(unstable, params, w)
            with pytest.raises(dp.RefinementError, match="not certified"):
                analysis.refined_peak(tangent, params, analysis.default_sweep_grid(tangent, params))

    def test_tiny_coefficients_keep_the_curvature_bound(self):
        """h_a^2 and h_v h_a underflow to 0 at h_v = 1.3e-120, h_a = 8.3e-242,
        but (h_a w)^2 and h_v (h_a w) do not where w ~ 1e121: the bound
        keeps those terms, and the sweep finds the peak of its scaled twin,
        1.032 at w = 1.6e121, where products formed first read "stable,
        peak 1.0 at 0.001"."""
        h_v, h_a, phi = 1.3049464513307894e-120, 8.267695913403755e-242, 9.144831196986179e-122
        policy = dp.SpacingPolicy(EXT.kind, h_v=h_v, h_a=h_a)
        params = dp.VehicleParams(0.067, phi)
        verdict = dp.string_stability_sweep(policy, params)
        assert not verdict.stable and 1e121 < verdict.peak_omega < 1e122
        assert verdict.peak_magnitude == dp.transfer_magnitude(policy, params, verdict.peak_omega)
        root = math.sqrt(h_a)
        twin = dp.string_stability_sweep(
            dp.SpacingPolicy(EXT.kind, h_v=h_v / root, h_a=1.0), dp.VehicleParams(0.067, phi / root)
        )
        assert twin.peak_magnitude > 1.03
        assert verdict.peak_magnitude == pytest.approx(twin.peak_magnitude, rel=1e-12)

    @pytest.mark.parametrize(
        "family",
        [
            [(dp.SpacingPolicy(DCH.kind, h_v=2.0 * phi * r), phi)
             for phi in np.linspace(0.01, 3.0, 150).tolist() for r in (1.0, 1.0 + 1e-9, 1.0 + 1e-6)],
            [(dp.SpacingPolicy(EXT.kind, h_v=h_v, h_a=h_v * h_v / 2.0), phi)
             for phi in np.linspace(0.01, 3.0, 40).tolist() for h_v in np.logspace(-2.0, 1.0, 12).tolist()],
        ],
        ids=["dch-hv-2phi", "ext-hv2-2ha"],
    )
    def test_flat_tops_are_certified_within_the_budget(self, monkeypatch, family):
        """D - 1 ~ w^4 near w = 0 on h_v = 2 phi (DCH) and h_v^2 = 2 h_a
        (extended), so a stable peak of 1 is approached at the grid's start:
        refined_peak raises no RefinementError on any tuning and spends at
        most 30,000 points beyond the grid (a 4,096-point start with a
        20,000-point budget raised it on 2 of the 480 extended tunings)."""
        sizes = _count_evaluations(monkeypatch)
        worst = 0
        for policy, phi in family:
            params = dp.VehicleParams(0.067, phi)
            grid = analysis.default_sweep_grid(policy, params)
            sizes.clear()
            analysis.refined_peak(policy, params, grid)
            assert sizes[0] == grid.size
            worst = max(worst, sum(sizes[1:]))
        assert worst <= 30000

    def test_overflowing_extended_tuning(self):
        """h_a w^2 overflows at the top of the grid: |T| = 0 there, from the
        grid pass and a direct call alike, and no RuntimeWarning.  The grid
        reaches down to the band of |T| > 1 near 1/sqrt(h_a) = 1e-150, so
        the tuning is not string stable."""
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1.0, h_a=1e300)
        params = dp.VehicleParams(0.067, 0.001)  # omega_max = 20 pi / phi = 62,832
        grid = analysis.default_sweep_grid(policy, params)
        top = float(grid[-1])
        assert not math.isfinite(1e300 * top * top)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, m, mags = analysis.refined_peak(policy, params, grid)
            assert dp.transfer_magnitude(policy, params, top) == 0.0
            verdict = dp.string_stability_sweep(policy, params)
        assert mags[-1] == 0.0
        assert not verdict.stable and verdict.peak_magnitude == m > 30.0
        assert 1e-151 < verdict.peak_omega < 1e-149

    def test_pole_on_the_axis_is_an_infinite_peak(self):
        """1/T = 0 at an evaluated point: |T| = inf is the witness, with no
        RuntimeWarning (golden's lower bound there was 3.9e10)."""
        policy = dp.SpacingPolicy(
            PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1e-9, h_a=834.263882323936
        )
        params = dp.VehicleParams(0.067, 1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = dp.string_stability_sweep(policy, params)
        assert not verdict.stable and verdict.peak_magnitude == math.inf
        assert verdict.peak_omega == pytest.approx(1.0 / math.sqrt(834.263882323936))

    def test_cap_keeps_a_witness_and_refuses_an_uncertified_stable_peak(self, monkeypatch):
        monkeypatch.setattr(analysis, "PEAK_EVAL_CAP", 0)
        params = dp.VehicleParams(0.067, 0.15)
        unstable = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.29)
        grid = analysis.default_sweep_grid(unstable, params)
        w, m, _ = analysis.refined_peak(unstable, params, grid)
        assert m > 1.0 + analysis.SWEEP_TOL and m == dp.transfer_magnitude(unstable, params, w)
        tangent = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.3)  # peak 1 - 2e-16
        with pytest.raises(dp.RefinementError, match="not certified"):
            analysis.refined_peak(tangent, params, analysis.default_sweep_grid(tangent, params))

    def test_aliased_grid_stops_at_the_cap_with_a_witness(self):
        """h_v = 1e-310: the grid stops 1,000 times short of 10 / h_v and
        aliases |T|; the refinement stops at its cap with a grid witness."""
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=1e-310)
        params = dp.VehicleParams(0.067, 0.15)
        start = time.perf_counter()
        verdict = dp.string_stability_sweep(policy, params)
        assert time.perf_counter() - start < 0.05
        assert not verdict.stable and verdict.peak_magnitude > 1.0 + analysis.SWEEP_TOL
        assert verdict.peak_magnitude == dp.transfer_magnitude(policy, params, verdict.peak_omega)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


def within_w_rounding(got, want, w):
    """|got - want| <= 1e-13 (1 + 4 / |1 + w|) |want| for a value that
    scales with W = w: 1e-13 relative, plus twice what a relative residual
    of 1e-13 in w e^w = x moves W by, 1e-13 times the condition number 1 /
    |1 + W| (dW / dx = W / (x (1 + W))), or 2e-13 / |1 + W| at the branch
    point, where |1 + W|^2 is twice the residual.  _lambert_w returns the
    branch point -1 where it solves w e^w = x to 1e-13, and no double
    computation of W meets 1e-13 alone next to -1/e, where the rounding of
    e x + 1 moves W by 2.2e-16 / |1 + W|."""
    slack = abs(1.0 + w)
    return abs(got - want) * slack <= 1e-13 * (slack + 4.0) * abs(want)


def folded(values):
    """values folded into the upper half plane, sorted."""
    return sorted((complex(v.real, abs(v.imag)) for v in values), key=lambda v: (v.real, v.imag))


W_BRANCHES = range(-2, 3)
INV_E = math.exp(-1.0)


class TestLambertW:
    """_lambert_w, which lists the DCH roots, against scipy's lambertw and,
    next to the branch point -1/e, against its series in the exact e x + 1."""

    @settings(max_examples=300, deadline=None)
    @given(x=log_uniform(1e-3, 1e3), sign=st.sampled_from([-1.0, 1.0]))
    @example(x=1e-3, sign=-1.0)
    @example(x=1e3, sign=-1.0)
    @example(x=INV_E + 1e-6, sign=-1.0)
    @example(x=INV_E - 1e-6, sign=-1.0)
    @example(x=1.0, sign=1.0)
    def test_matches_scipy_as_conjugate_folded_sets(self, x, sign):
        """Branches -2..2 as sets folded into the upper half plane, to 1e-13
        relative plus the rounding near -1/e.  Within 1e-8 above -1/e
        scipy's W_-1 is off (see oracles.lambert_w_near_branch_point); the
        branch-point test covers that band."""
        x *= sign
        if -INV_E < x < -INV_E + 1e-8:
            reject()
        got = folded(analysis._lambert_w(x, k) for k in W_BRANCHES)
        want = folded(complex(scipy.special.lambertw(x, k)) for k in W_BRANCHES)
        for g, w in zip(got, want):
            assert within_w_rounding(g, w, w), (x, got, want)

    @settings(max_examples=300, deadline=None)
    @given(offset=st.floats(-1e-12, 1e-12))
    @example(offset=0.0)  # e x + 1 rounds to 0: W_0 = W_-1 = -1
    @example(offset=-5e-17)  # one ulp down, e x + 1 = -2.2e-16
    @example(offset=3.6e-14)  # e x + 1 = 9.8e-14, just inside the snap
    @example(offset=-3.8e-14)  # e x + 1 = -1.03e-13, just outside it
    @example(offset=-3.675e-14)  # e x + 1 = -9.99e-14, inside it: W = -1 + 4.47e-7 i
    def test_branch_point(self, offset):
        """Within 1e-12 of -1/e, W_0 and W_-1 against the branch-point
        series in the exact e x + 1, and the other branches against scipy,
        as folded sets to 1e-13 relative plus the rounding amplified by 1 /
        |1 + W|."""
        x = -INV_E + offset
        got = folded(analysis._lambert_w(x, k) for k in W_BRANCHES)
        want = folded(
            lambert_w_near_branch_point(x, k) if k in (0, -1) else complex(scipy.special.lambertw(x, k))
            for k in W_BRANCHES
        )
        for g, w in zip(got, want):
            assert within_w_rounding(g, w, w), (x, got, want)
        if abs(math.e * x + 1.0) <= 1e-13:
            assert analysis._lambert_w(x, 0) == analysis._lambert_w(x, -1) == -1.0


def _factored_margin(h_v, h_a, phi, w):
    """g(w) = (|T(i w)|^-2 - 1) / w^2 of the extended policy, as written."""
    return (h_v * h_v - 2.0 * h_a * np.cos(w * phi) + h_a * h_a * w * w
            - 2.0 * h_v * h_a * w * np.sin(w * phi))


class TestExtendedStringStability:
    """The certified cell search on the factored margin g over [0, w_t],
    w_t = (h_v + sqrt(2 h_a)) / h_a, past which |T| <= 1."""

    @settings(max_examples=300, deadline=None)
    @given(h_v=st.floats(0.03, 3.2), h_a=log_uniform(1e-5, 1.0), phi=st.floats(0.05, 0.3),
           t=st.floats(0.0, 1.0))
    def test_curvature_bounds_a_central_difference(self, h_v, h_a, phi, t):
        """M(w) = 2 h_a phi^2 + 2 h_a^2 + 2 h_v h_a (2 phi + w phi^2) bounds
        |g''| on [0, w].  The central difference with step d is g''(xi)
        for some |xi| <= w + d (g is even), up to its own rounding."""
        w_t = (h_v + math.sqrt(2.0 * h_a)) / h_a
        w, d = t * w_t, 1e-3 * w_t
        second = (_factored_margin(h_v, h_a, phi, w + d) - 2.0 * _factored_margin(h_v, h_a, phi, w)
                  + _factored_margin(h_v, h_a, phi, w - d)) / (d * d)
        top = w + d
        bound = 2.0 * h_a * phi * phi + 2.0 * h_a * h_a + 2.0 * h_v * h_a * (2.0 * phi + top * phi * phi)
        terms = h_v * h_v + 2.0 * h_a + h_a * h_a * top * top + 2.0 * h_v * h_a * top
        assert abs(second) <= bound + 16.0 * 2.0**-52 * terms / (d * d)

    @settings(max_examples=150, deadline=None)
    @given(h_v=log_uniform(0.03, 3.2), h_a=log_uniform(1e-5, 1.0), phi=st.floats(0.05, 0.3))
    @example(h_v=0.20183505447551872, h_a=3.0445314849422877e-05, phi=0.29195701276220537)
    @example(h_v=0.24, h_a=1.6e-4, phi=0.088)
    def test_agrees_with_a_dense_scan(self, h_v, h_a, phi):
        """Proper and improper tunings alike, against 40,001 uniform points
        of [0, 2 w_t]: a scanned |T| above 1 + SWEEP_TOL forces "no", a
        "yes" has no such point, and a "no" carries a witness that
        transfer_magnitude confirms.  Only a long tail, w_t phi above 1e4,
        may be left undecided at the point budget."""
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=h_v, h_a=h_a)
        params = dp.VehicleParams(0.067, phi)
        w_t = (h_v + math.sqrt(2.0 * h_a)) / h_a
        try:
            verdict = analysis.extended_string_stability(policy, params)
        except dp.RefinementError as exc:
            assert "peak not certified within" in str(exc)
            assert w_t * phi > 1e4
            return
        assert verdict.method == "sweep"
        if verdict.stable:
            assert (verdict.peak_omega, verdict.peak_magnitude) == (0.0, 1.0)
            scan = dp.transfer_magnitude(policy, params, np.linspace(0.0, 2.0 * w_t, 40001))
            assert np.max(scan) <= 1.0 + analysis.SWEEP_TOL
        else:
            assert 0.0 < verdict.witness_omega < w_t
            magnitude = dp.transfer_magnitude(policy, params, verdict.witness_omega)
            assert verdict.peak_magnitude == magnitude > 1.0 + analysis.SWEEP_TOL

    def test_flat_tops_are_certified_within_the_budget(self, monkeypatch):
        """h_a = h_v^2 / 2, where D - 1 ~ w^4 at w = 0 (40 phi in [0.01, 3]
        x 12 h_v in [0.01, 10]): every tuning is decided within 3,000 points
        beyond the first 17, where refined_peak takes up to 24,390 beyond
        its grid.  The stable ones take at most 330; the most, 2,520, goes
        to an unstable tuning (h_v = 0.01, phi = 1.0067) whose first 257
        points step pi/2 in phase and miss its lobes."""
        monkeypatch.setattr(analysis, "PEAK_EVAL_CAP", 3000)
        verdicts = [
            analysis.extended_string_stability(
                dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=h_v, h_a=h_v * h_v / 2.0),
                dp.VehicleParams(0.067, phi),
            ).stable
            for phi in np.linspace(0.01, 3.0, 40).tolist()
            for h_v in np.logspace(-2.0, 1.0, 12).tolist()
        ]
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize(
        "r,psi,stable",
        [(2.4, 0.3, True), (3.0, 0.2, True), (2.0, 0.6, False), (1e-4, 1.5e-5, False)],
        ids=["stable", "stable-2", "unstable", "low-band"],
    )
    def test_scale_free_from_1e_minus_300_to_1e305(self, r, psi, stable):
        """The verdict depends on h_v / sqrt(h_a) and phi / sqrt(h_a) only:
        the same proper tuning, scaled from h_a = 1e-300 to 1e305, gets the
        same verdict and witness u = h_a w / s, with no RuntimeWarning."""
        witnesses = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h_a in 10.0 ** np.arange(-300, 306, 5.0):
                root = math.sqrt(h_a)
                policy = dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=r * root, h_a=h_a)
                params = dp.VehicleParams(0.067, psi * root)
                assert dp.is_proper(policy, params).stable
                verdict = analysis.extended_string_stability(policy, params)
                assert verdict.stable is stable
                if not stable:
                    witnesses.append(verdict.witness_omega * root / (r + math.sqrt(2.0)))
                    assert verdict.peak_magnitude > 1.0 + analysis.SWEEP_TOL
        assert np.ptp(witnesses or [0.0]) <= 1e-12

    def test_rejects_the_other_policies(self, ref_params):
        with pytest.raises(ValueError, match="extended policy only"):
            analysis.extended_string_stability(DCH, ref_params)


class TestQuasiPolynomialEvaluation:
    """Every evaluation of p runs Horner over the one row table."""

    @settings(max_examples=100, deadline=None)
    @given(
        h_v=st.floats(0.05, 3.0), log_h_a=st.floats(-4.0, 0.0), phi=st.floats(0.0, 0.3),
        extended=st.booleans(), re=st.floats(-100.0, 100.0), im=st.floats(-100.0, 100.0),
    )
    def test_call_matches_newton_terms_and_polyval(self, h_v, log_h_a, phi, extended, re, im):
        if extended:
            qp = QuasiPolynomial.extended_internal(h_v, 10.0**log_h_a, phi)
        else:
            qp = QuasiPolynomial.dch_internal(h_v, phi)
        z = complex(re, im)
        got = qp(z)
        assert got == quasi_polynomial_reference(qp, z)
        # numpy's complex multiply may fuse a multiply-add (AVX-512 loops
        # do), CPython's does not: the float Horner pass agrees to rounding
        p, _, scale = qp.newton_terms(z)
        assert abs(got - p) <= analysis._COUNT_ROUNDING * scale
        circle = z + 1e-3 * np.exp(2j * math.pi * np.arange(256) / 256)
        assert np.array_equal(qp(circle), quasi_polynomial_reference(qp, circle))


class TestRightmostRoot:
    def test_plain_polynomial(self):
        assert dp.rightmost_root(QuasiPolynomial((1.0, 1.0), (), 0.0)) == -1.0
        # lambda^2: R = 0, so the box keeps its margin around the double root
        assert dp.rightmost_root(QuasiPolynomial((0.0, 0.0, 1.0), (), 0.0)) == 0.0

    def test_zero_delay_folds_into_a_polynomial(self):
        # lambda^2 + 1 + 2 e^{0}: roots +-i sqrt(3)
        qp = QuasiPolynomial((1.0, 0.0, 1.0), (2.0,), 0.0)
        assert (qp.a, qp.b, qp.phi) == ((3.0, 0.0, 1.0), (0.0, 0.0), 0.0)
        assert dp.rightmost_root(qp) == pytest.approx(1j * math.sqrt(3.0), abs=1e-12)

    def test_coefficients_divided_by_leading_one(self):
        qp = QuasiPolynomial.extended_internal(1.2, 0.25, 0.15)
        assert (qp.a, qp.b, qp.phi) == ((0.0, 0.0, 1.0), (4.0, 4.8), 0.15)

    def test_dch_factor_on_boundary(self):
        h_v, phi = 0.2, 0.1 * math.pi  # phi/h_v = pi/2 exactly
        root = dp.rightmost_root(QuasiPolynomial.dch_internal(h_v, phi))
        assert abs(root.real) <= 1e-6
        assert root.imag == pytest.approx(1.0 / h_v, rel=1e-9)

    def test_dch_factor_sign_change(self):
        h_v = 0.2
        for offset, sign in ((-0.05, -1.0), (0.05, 1.0)):
            phi = h_v * (0.5 * math.pi + offset)
            root = dp.rightmost_root(QuasiPolynomial.dch_internal(h_v, phi))
            assert sign * root.real > 0.0

    def test_root_soundness(self):
        for qp in (
            QuasiPolynomial.dch_internal(0.4, 0.15),
            QuasiPolynomial.extended_internal(1.2, 0.25, 0.15),
            QuasiPolynomial.dch_internal(0.1, 0.2),
        ):
            root = dp.rightmost_root(qp)
            p, _, scale = qp.newton_terms(root)
            assert abs(p) <= 1e-10 * scale

    def test_unstable_root_above_the_old_rectangle(self):
        """lambda^2 + 1e4 + 50 e^{-0.15 lambda}: the rightmost root is the
        unstable pair near +-100i, above the old -10/phi..5/phi x 4 pi/phi
        rectangle, whose search returned the stable -33.898+66.801j."""
        qp = QuasiPolynomial((1e4, 0.0, 1.0), (50.0,), 0.15)
        root = dp.rightmost_root(qp)
        assert root == pytest.approx(0.16389180 + 99.8190342j, rel=1e-9)
        p, _, scale = qp.newton_terms(root)
        assert abs(p) <= 1e-13 * scale

    def test_bound_holds_on_lambert_w_branches(self):
        """Every root with Re >= s has |lambda| < R(s): the DCH roots are
        W_k(-phi / h_v) / phi on every branch k of the Lambert function."""
        for h_v, phi in ((0.4, 0.15), (0.05, 0.3), (2.0, 0.02)):
            qp = QuasiPolynomial.dch_internal(h_v, phi)
            for k in range(-6, 7):
                root = complex(scipy.special.lambertw(-phi / h_v, k)) / phi
                assert abs(root) < analysis._root_bound(qp, root.real)
                assert abs(root) < analysis._root_bound(qp, root.real - 1.0)

    def test_bound_overflow_is_inf_without_warning(self):
        qp = QuasiPolynomial.dch_internal(1e-300, 0.15)
        assert analysis._root_bound(qp, -1e4) == math.inf
        assert analysis._root_bound(qp, 1e4) == 0.0

    def test_overflowing_box_is_a_refinement_error(self):
        # root -1e308: the bound 2e308 on the box overflows
        with pytest.raises(dp.RefinementError, match="root bound is not finite"):
            dp.rightmost_root(QuasiPolynomial((1e308, 1.0), (), 0.0))
        assert dp.rightmost_root(QuasiPolynomial((1e307, 1.0), (), 0.0)) == -1e307

    @pytest.mark.parametrize("phi", [0.05, 0.07, 0.1, 0.15, 0.3, 10.0, 1e3])
    def test_double_root_multiplicity_certified(self, phi):
        """h_v = e phi puts a double real root at -1/phi: x = -phi / h_v is
        the branch point -1/e, where W_0 = W_-1 = -1 (at phi = 0.07, e x + 1
        rounds to -2.2e-16).  The root is -1/phi to 1e-15; Newton from the
        generator's seeds stopped 3.2e-7 relative away."""
        root = dp.rightmost_root(QuasiPolynomial.dch_internal(math.e * phi, phi))
        assert root.imag == 0.0
        assert root == pytest.approx(-1.0 / phi, rel=1e-15)

    def test_dch_root_right_of_the_old_rectangle(self):
        """h_v = 1e-3, phi = 1.375: the W_0 root near 3.94+1.95j lies right
        of the old rectangle's 5 / phi = 3.64, which returned 3.60+6.10j."""
        h_v, phi = 0.0010079975620449412, 1.3747293947165484
        root = dp.rightmost_root(QuasiPolynomial.dch_internal(h_v, phi))
        assert abs(root - dch_rightmost_root(h_v, phi)) <= 1e-10

    def test_dch_matches_lambert_w_25x25(self):
        for h_v in np.linspace(0.05, 0.5, 25):
            for phi in np.linspace(0.05, 0.3, 25):
                root = dp.rightmost_root(QuasiPolynomial.dch_internal(h_v, phi))
                assert abs(root - dch_rightmost_root(h_v, phi)) <= 1e-10

    def test_dch_matches_principal_lambert_w_to_1e_12(self):
        """The rightmost DCH root is W_0(-phi / h_v) / phi, to 1e-12
        relative."""
        for h_v in np.geomspace(0.01, 10.0, 30):
            for phi in np.linspace(0.05, 0.3, 11):
                want = complex(scipy.special.lambertw(-phi / h_v, 0)) / phi
                root = dp.rightmost_root(QuasiPolynomial.dch_internal(h_v, phi))
                assert abs(root - want) <= 1e-12 * abs(want)

    @settings(max_examples=200, deadline=None)
    @given(ratio=log_uniform(1e-2, 1e2), phi=log_uniform(1e-3, 1e3))
    @example(ratio=math.e, phi=0.1)  # the double root
    @example(ratio=2.0 / math.pi, phi=0.15)  # on the imaginary axis
    def test_dch_matches_the_lambert_w_oracle_to_1e_13(self, ratio, phi):
        """h_v / phi and phi log-uniform over four and six decades: the
        certified root is scipy's W_0(-phi / h_v) / phi to 1e-13 relative,
        plus the rounding that W's condition number amplifies next to the
        double root h_v = e phi (within_w_rounding)."""
        h_v = ratio * phi
        root = dp.rightmost_root(QuasiPolynomial.dch_internal(h_v, phi))
        want = dch_rightmost_root(h_v, phi)
        assert within_w_rounding(root, want, phi * want)

    @pytest.mark.parametrize("phi", [0.1, 100.0, 1e3])
    @pytest.mark.parametrize("offset", [-1e-12, -3e-15, 1e-10, 1e-9])
    def test_near_double_root_pairs_are_certified(self, phi, offset):
        """h_v = e phi (1 + offset) splits the double root into a real pair
        (offset > 0) or a complex one; within 1e-13 of the branch point it
        stays the double root.  Each branch is its own root, so each Rouché
        disk holds one: at phi >= 100 the generator's search merged the real
        pair into one root whose 1e-7 wide disk missed the other (winding
        count 2 != 1 roots found)."""
        h_v = math.e * phi * (1.0 + offset)
        root = dp.rightmost_root(QuasiPolynomial.dch_internal(h_v, phi))
        want = dch_rightmost_root(h_v, phi)
        assert within_w_rounding(root, want, phi * want)

    @pytest.mark.parametrize("ratio", [1e-8, 1e-15, 1e-20, 1e-30])
    def test_tiny_headway_certifies_the_principal_branch(self, evaluations, ratio):
        """Below h_v / phi ~ 1e-8 the chain roots W_1, W_2, ... share the box
        with W_0 (at 1e-30, 17 branches in the upper half plane).  The
        generator's seeds missed them, so the count did not match; listed
        from the branches, the root is W_0(-phi / h_v) / phi to 1e-12."""
        phi = 0.15
        h_v = ratio * phi
        root = dp.rightmost_root(QuasiPolynomial.dch_internal(h_v, phi))
        want = complex(scipy.special.lambertw(-phi / h_v, 0)) / phi
        assert abs(root - want) <= 1e-12 * abs(want)
        assert len(evaluations) == 1

    @pytest.mark.parametrize(
        "a0,b0,phi", [(2.0, -3.0, 0.5), (-1.0, 0.5, 2.0), (0.3, 4.0, 0.1), (5.0, 1e-3, 1.0)]
    )
    def test_degree_one_roots_shift_by_a0(self, a0, b0, phi):
        """lambda + a_0 + b_0 e^{-phi lambda} has the roots W_k(x) / phi -
        a_0, x = -phi b_0 e^{phi a_0}, positive where b_0 < 0: the rightmost
        of scipy's branches -3..3."""
        root = dp.rightmost_root(QuasiPolynomial((a0, 1.0), (b0,), phi))
        x = -phi * b0 * math.exp(phi * a0)
        want = max((complex(scipy.special.lambertw(x, k)) / phi - a0 for k in range(-3, 4)),
                   key=lambda r: (r.real, abs(r.imag)))
        assert root == pytest.approx(complex(want.real, abs(want.imag)), rel=1e-13)

    @pytest.mark.parametrize("phi", [1e-10, 1e-30])
    def test_underflowing_lambert_argument_keeps_the_root(self, phi):
        """At h_v = 1e300, x = -phi / h_v is subnormal (phi = 1e-10) or 0
        (1e-30); the principal root, written y e^{-W_0(x)} with y = -1/h_v,
        is -1e-300 all the same."""
        root = dp.rightmost_root(QuasiPolynomial.dch_internal(1e300, phi))
        assert root == pytest.approx(-1e-300, rel=1e-15)

    def test_neutral_rejected(self):
        # lambda + lambda e^{-0.1 lambda}: the delayed term has the full degree
        with pytest.raises(ValueError, match="neutral"):
            QuasiPolynomial((0.0, 1.0), (0.0, 1.0), 0.1)

    @pytest.mark.parametrize(
        "a,b,phi",
        [
            ((2.0,), (), 0.1),  # degree 0: no roots
            ((0.0,), (), 0.1),
            ((1.0, 1.0), (1.0,), -0.1),
            ((math.inf, 1.0), (1.0,), 0.1),
            ((1.0, 1.0), (math.nan,), 0.1),
            ((1.0, 1.0), (1.0,), math.inf),
        ],
    )
    def test_validation(self, a, b, phi):
        with pytest.raises(ValueError):
            QuasiPolynomial(a, b, phi)


class TestPropernessRootCheck:
    def test_dch_agrees_with_closed_form(self, ref_params):
        verdict = dp.properness_root_check(DCH, ref_params)
        assert verdict.stable
        assert verdict.rightmost_root.real < -1e-9

    @pytest.mark.parametrize("h_v", [1e12, 1e300])
    def test_dch_large_headway_agrees_with_closed_form(self, ref_params, h_v):
        """The internal root is about -1/h_v, stable however close to 0 it is:
        the root test is relative to |root|."""
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=h_v)
        verdict = dp.properness_root_check(policy, ref_params)
        assert verdict.rightmost_root.real == pytest.approx(-1.0 / h_v, rel=1e-6)
        assert verdict.stable and dp.is_proper(policy, ref_params).stable

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
        qp = QuasiPolynomial.extended_internal(policy.h_v, policy.h_a, ref_params.phi)
        assert abs(dp.rightmost_root(qp).real) <= 1e-5
        with pytest.raises(dp.RefinementError, match="within rounding of the imaginary axis"):
            dp.properness_root_check(policy, ref_params)

    @pytest.mark.parametrize("h_a", [1e-4, 1e-5, 3e-6, 1e-6, 2e-9])
    def test_extended_small_acceleration_headway(self, ref_params, h_a):
        """The root near -1/h_v cancels h_v lambda + 1, and the unstable roots
        near W_0(-phi h_v / h_a) / phi lie beyond 5 / phi.  At h_a = 2e-9 the
        rightmost pair, 102.6+19.7j, has |lambda| phi of about 16, where the
        6-node generator's top seed, 57.1+16.1j, lies 45 left of it, and the
        seed of the next pair in the box, 101.8+59.3j, is 44.1+47.8j: only
        the seed stop widened by Newton's drift keeps it."""
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1.0, h_a=h_a)
        verdict = dp.properness_root_check(policy, ref_params)
        assert verdict.stable == dp.is_proper(policy, ref_params).stable
        assert verdict.rightmost_root.real > 5.0 / ref_params.phi

    @pytest.mark.parametrize("h_a", [1e16, 1e20])
    def test_extended_small_complex_pair_stays_complex(self, h_a):
        """The internal roots are the pair of h_a lambda^2 + (h_v - phi) lambda
        + 1, about -(h_v - phi) / (2 h_a) +- i h_a^{-1/2}: at h_a = 1e20 |Im|
        = 1e-10 is below an absolute 1e-9 axis tolerance, yet far from zero."""
        h_v, phi = 1.0, 0.15
        root = dp.rightmost_root(QuasiPolynomial.extended_internal(h_v, h_a, phi))
        c = h_v - phi
        want = (-c + cmath.sqrt(c * c - 4.0 * h_a)) / (2.0 * h_a)
        assert root.real == pytest.approx(want.real, rel=1e-6)
        assert abs(root.imag) == pytest.approx(want.imag, rel=1e-6)

    @pytest.mark.parametrize("h_a", [1e30, 1e100, 1e305])
    def test_extended_huge_acceleration_headway(self, ref_params, h_a):
        """The internal roots sit near +-i h_a^{-1/2}, lost in the generator's
        rounding: no seed converges, and the check is inconclusive."""
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1.0, h_a=h_a)
        with pytest.raises(dp.RefinementError):
            dp.properness_root_check(policy, ref_params)

    @settings(max_examples=150, deadline=None)
    @given(
        h_v=log_uniform(1e-3, 1e3),
        exponent=st.floats(16.0, 305.0),
        phi=st.floats(0.05, 0.3),
    )
    @example(h_v=0.1, exponent=28.0, phi=0.15)  # not proper; no seed converges
    @example(h_v=1.0, exponent=20.0, phi=0.15)  # proper; Re within rounding of the axis
    def test_huge_acceleration_headway_never_contradicts_closed_form(self, h_v, exponent, phi):
        """Where the internal pair of h_a lambda^2 + (h_v - phi) lambda + 1
        is small, its real part is rounding: the check is inconclusive
        there, or it agrees with the closed form."""
        policy = dp.SpacingPolicy(
            PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=h_v, h_a=10.0 ** exponent
        )
        params = dp.VehicleParams(0.067, phi)
        try:
            verdict = dp.properness_root_check(policy, params)
        except dp.RefinementError:
            return
        assert verdict.stable == dp.is_proper(policy, params).stable

    def test_spurious_right_eigenvalues_are_filtered(self):
        """The 6-node generator's top eigenvalue here, 92.7+85.0j, is
        spurious: |e| > R(Re e).  Newton from it lands on 21.36+28.86j, a
        root left of the rightmost one."""
        policy = dp.SpacingPolicy(
            PolicyKind.DELAYED_EXTENDED_HEADWAY,
            h_v=2.368866384477878, h_a=1.2461492890856137e-4,
        )
        params = dp.VehicleParams(0.067, 0.29387934096174734)
        qp = QuasiPolynomial.extended_internal(policy.h_v, policy.h_a, params.phi)
        eigs = np.linalg.eigvals(analysis._generator_matrix(qp))
        top = eigs[np.argmax(eigs.real)]
        assert abs(top) > analysis._root_bound(qp, top.real)
        verdict = dp.properness_root_check(policy, params)
        assert not verdict.stable
        assert verdict.rightmost_root == pytest.approx(
            22.69059071151686 + 9.339478251608025j, rel=1e-12
        )

    @pytest.mark.parametrize("policy,root", [(DCH, -2.5), (EXT, -2.4 + math.sqrt(1.76))])
    def test_zero_delay(self, policy, root):
        """Without delay the internal dynamics are the polynomials
        h_v lambda + 1 and h_a lambda^2 + h_v lambda + 1."""
        params = dp.VehicleParams(0.067, 0.0)
        verdict = dp.properness_root_check(policy, params)
        assert verdict.rightmost_root == pytest.approx(root, rel=1e-12)
        assert verdict.stable and dp.is_proper(policy, params).stable

    def test_rejects_constant_policy(self, ref_params):
        with pytest.raises(ValueError):
            dp.properness_root_check(CONSTANT, ref_params)


class TestGeneratorMatrix:
    """The generator built from the cached Chebyshev block against one built
    directly from the scaled nodes, at the seeding and the re-seeding
    node counts."""

    @pytest.mark.parametrize("nodes", [6, 24])
    @pytest.mark.parametrize("phi", [0.0, 1e-3, 0.05, 0.15, 0.3, 2.0])
    @pytest.mark.parametrize(
        "make",
        [
            lambda phi: QuasiPolynomial.extended_internal(1.2, 0.25, phi),
            lambda phi: QuasiPolynomial.extended_internal(100.0, 1e-9, phi),
        ],
        ids=["ext", "ext-short"],
    )
    def test_matches_per_call_construction(self, make, phi, nodes):
        # the whole matrix, not entry by entry: the near-zero diagonal of the
        # differentiation block is rounding noise of its row sums
        qp = make(phi)
        matrix = analysis._generator_matrix(qp, nodes)
        reference = generator_matrix_reference(qp, nodes)
        assert matrix.shape == reference.shape
        assert np.max(np.abs(matrix - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_default_seeding_uses_6_nodes(self):
        qp = QuasiPolynomial.extended_internal(1.2, 0.25, 0.15)
        assert analysis._generator_matrix(qp).shape == (14, 14)
        qp = QuasiPolynomial.extended_internal(1.2, 0.25, 0.0)  # the companion matrix of a
        assert analysis._generator_matrix(qp).shape == (2, 2)

    def test_cached_block_is_read_only(self):
        block = analysis._chebyshev_block(2, 12)
        assert analysis._chebyshev_block(2, 12) is block
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 1.0


@pytest.fixture
def evaluations(monkeypatch):
    """The points that each _root_count call evaluates."""
    counts = []
    count = analysis._root_count

    def recording(*args):
        winding, n = count(*args)
        counts.append(n)
        return winding, n

    monkeypatch.setattr(analysis, "_root_count", recording)
    return counts


class TestAgreementGrids:
    """Closed-form properness matches the rightmost-root verdict, and the
    adaptive root count stays cheap over the grid: the median and maximum
    of its evaluations, deterministic counts rather than times, are bounded
    at 1.5 times those of the Taylor-model test (DCH 12 and 17, extended 12
    and 25), below those of the two-disc test (DCH 20 and 286, extended 26
    and 451), of the first half-contour count (DCH 28 and 560, extended 42
    and 889) and of the full contour (DCH 54 and 1,118, extended 82 and
    1,776)."""

    def test_dch_50x50(self, evaluations):
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
        assert len(evaluations) == 2499
        assert np.median(evaluations) <= 18 and max(evaluations) <= 25

    def test_extended_50x50(self, ref_params, evaluations):
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
        assert len(evaluations) == 2500
        assert np.median(evaluations) <= 18 and max(evaluations) <= 37


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

    @pytest.mark.parametrize("phi", [1e-300, 1e-154])
    def test_overflowing_boundary_rejected(self, phi):
        with pytest.raises(ValueError, match="overflows"):
            analysis.stability_region_boundary(phi, 3)
        # the smallest endpoint that still squares to a finite value is accepted
        assert np.all(np.isfinite(analysis.stability_region_boundary(1e-153, 3)))


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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_velocity_rejected(self, bad):
        """An infinite energy would scale the tolerance to inf and pass."""
        with pytest.raises(ValueError, match="vehicle 1 at sample 0 is not finite"):
            dp.l2_string_stability_check([[1.0, bad], [1.0, 1.0], [1.0, 1.0]], 0.01)
        with pytest.raises(ValueError, match="vehicle 0 at sample 2 is not finite"):
            dp.l2_string_stability_check([[1.0, 1.0], [1.0, 1.0], [bad, bad]], 0.01)


@pytest.fixture
def builds(monkeypatch):
    """The node counts of the generators that rightmost_root builds."""
    nodes = []
    generator = analysis._generator_matrix
    monkeypatch.setattr(
        analysis, "_generator_matrix", lambda qp, n: nodes.append(n) or generator(qp, n)
    )
    return nodes


class TestWindingCertificate:
    def test_root_on_contour_is_rejected(self):
        # lambda + 1 with the box edge through the root at -1
        qp = QuasiPolynomial((1.0, 1.0), (), 0.0)
        with pytest.raises(dp.RefinementError, match="root on the winding contour"):
            analysis._root_count(qp, -1.0, 2.0)

    def test_non_finite_contour_values_rejected(self):
        # 1/h_v = 1e308 overflows p on the left edge Re = -10/phi
        qp = QuasiPolynomial.dch_internal(1e-308, 0.15)
        with pytest.raises(dp.RefinementError, match="not finite"):
            analysis._root_count(qp, -10.0 / 0.15, 4.0 * math.pi / 0.15)

    def test_no_converged_seed_is_a_refinement_error(self, evaluations):
        """At h_v = 1e-308 the roots W_k(-1.5e307) / phi, near 4672 +- 21i
        (1 + 2k), crowd the box in more branches than the listing takes,
        where no eigenvalue seed converged: RefinementError at once, before
        any box count, and in well under the 6 ms that the generator's
        search took."""
        qp = QuasiPolynomial.dch_internal(1e-308, 0.15)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(dp.RefinementError, match="^more than 24 Lambert-W branches reach the box$"):
                dp.rightmost_root(qp)
            times.append(time.perf_counter() - start)
        assert min(times) < 6e-3
        assert evaluations == []

    def test_missing_roots_fail_the_certificate_without_retry(self, monkeypatch, builds):
        """A root the eigenvalue seeds miss is a RefinementError after two
        generator builds, the 6-node seeding and its one 24-node re-seed,
        not a search repeated on ever finer generators: without the
        rightmost root, -1.019, the box around the next pair, -3.285 +-
        6.761i, still holds it."""
        qp = QuasiPolynomial.extended_internal(1.2, 0.25, 0.15)
        second = analysis._newton_polish(qp, -3.3 + 6.8j)
        assert second == pytest.approx(-3.2846065548748555 + 6.760921056279089j, rel=1e-12)
        monkeypatch.setattr(analysis, "_polish_eigenvalues", lambda qp, gen: [second])
        message = r"^winding count 3 != 2 roots found .*; seeded from 6, then 24 Chebyshev"
        with pytest.raises(dp.RefinementError, match=message):
            dp.rightmost_root(qp)
        assert builds == [6, 24]

    def test_box_count(self):
        """The principal pair of lambda + e^{-0.15 lambda} / 0.4, -6.58 +-
        1.30i, lies in the box; the next pair, at Re -20.5, left of it."""
        qp = QuasiPolynomial.dch_internal(0.4, 0.15)
        count, evaluations = analysis._root_count(qp, -10.0, 8.0)
        assert count == 2 == winding_number_reference(qp, -10.0, 8.0)
        assert 4 < evaluations < 8192

    @pytest.mark.parametrize(
        "qp,count",
        [
            (QuasiPolynomial((1.0, 1.0), (), 0.0), 1),  # lambda + 1
            (QuasiPolynomial((1.0, 2.0, 1.0), (), 0.0), 2),  # (lambda + 1)^2
            (QuasiPolynomial.dch_internal(1.0, 0.15), 1),  # real roots -1.24, -19.4
        ],
        ids=["simple", "double", "dch-real"],
    )
    def test_real_roots_count_on_the_half_contour(self, qp, count):
        """A real root changes arg p by pi along the upper half of the box,
        so the half contour counts odd numbers of roots as well."""
        assert analysis._root_count(qp, -2.0, 2.0)[0] == count
        assert winding_number_reference(qp, -2.0, 2.0) == count

    def test_evaluation_cap_is_a_refinement_error(self):
        # (lambda + 1)^2 + 0.09: the roots -1 +- 0.3i sit on the left edge
        # between the dyadic bisection points, so no segment near them is
        # ever accepted; a box clear of them is counted
        qp = QuasiPolynomial((1.09, 2.0, 1.0), (), 0.0)
        with pytest.raises(dp.RefinementError, match="did not converge within 20000 evaluations"):
            analysis._root_count(qp, -1.0, 2.0)
        assert analysis._root_count(qp, -1.5, 2.0)[0] == 2

    @pytest.mark.parametrize("phi", [0.05, 0.1, 0.15, 0.3])
    @pytest.mark.parametrize("factor", [1.0, 1.0 + 1e-6], ids=["double", "split"])
    def test_dch_double_root_takes_few_evaluations(self, evaluations, phi, factor):
        """h_v = e phi puts a double real root at -1 / phi, and 1 + 1e-6
        times that splits it into two real roots 0.3% apart.  The box's left
        edge passes 0.01 (1 + 1 / phi) from them, where |p'| shrinks with |p|:
        the Taylor-model test accepts segments about as long as the distance
        to the roots, where the two-disc test, whose slope bound does not
        shrink there, took 356-507 evaluations."""
        root = dp.rightmost_root(QuasiPolynomial.dch_internal(math.e * phi * factor, phi))
        assert root.imag == 0.0 and root.real == pytest.approx(-1.0 / phi, rel=3e-3)
        assert evaluations and max(evaluations) <= 20

    def test_triple_root_box_takes_few_evaluations(self):
        """(lambda + 1)^3 on lo = -1.02: the left edge passes 0.02 from the
        triple root, where |p| ~ 8e-6 against a slope bound ~ 12.  The
        two-disc test reached its cap of 20,000 there; the Taylor model takes
        42.  rightmost_root then fails where the Rouché test refuses the
        multiplicity (see TestLocalMultiplicity), not at the cap."""
        qp = QuasiPolynomial((1.0, 3.0, 3.0, 1.0), (), 0.0)
        count, evaluations = analysis._root_count(qp, -1.02, 2.0)
        assert count == 3 == winding_number_reference(qp, -1.02, 2.0)
        assert evaluations <= 60
        with pytest.raises(dp.RefinementError, match="could not certify the multiplicity"):
            dp.rightmost_root(qp)

    def test_half_triple_root_box_takes_few_evaluations(self):
        """(lambda + 1/2)^3 on lo = -0.52: 35 evaluations, where the
        two-disc test took 5,711."""
        qp = QuasiPolynomial((0.125, 0.75, 1.5, 1.0), (), 0.0)
        count, evaluations = analysis._root_count(qp, -0.52, 2.0)
        assert count == 3 == winding_number_reference(qp, -0.52, 2.0)
        assert evaluations <= 60

    @settings(max_examples=100, deadline=None)
    @given(
        ratio=log_uniform(6.0, 100.0), phi=st.floats(0.05, 0.3), side=st.sampled_from([-1.0, 1.0])
    )
    def test_extended_double_root_curve(self, ratio, phi, side):
        """h_a lambda^2 + (h_v lambda + 1) e^{-phi lambda} has a double real
        root where p = p' = 0: eliminating h_a gives phi h_v lambda^2 + (h_v
        + phi) lambda + 2 = 0, and then h_a = -(h_v lambda + 1) e^{-phi
        lambda} / lambda^2, positive for both roots once h_v / phi > 3 + 2
        sqrt(2).  Every box that rightmost_root builds counts what the fixed
        grids count, in at most 100 evaluations; the two-disc test took up to
        2,628 on 300 such draws.  Newton stops a few 1e-6 from some of these
        double roots, where the Rouché test refuses the multiplicity."""
        h_v = ratio * phi
        disc = (h_v + phi) ** 2 - 8.0 * phi * h_v
        lam = (-(h_v + phi) + side * math.sqrt(disc)) / (2.0 * phi * h_v)
        h_a = -(h_v * lam + 1.0) * math.exp(-phi * lam) / (lam * lam)
        assert h_a > 0.0
        qp = QuasiPolynomial.extended_internal(h_v, h_a, phi)
        boxes = []
        count = analysis._root_count

        def recording(*box):
            winding, evaluations = count(*box)
            boxes.append((box, winding, evaluations))
            return winding, evaluations

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_root_count", recording)
            try:
                dp.rightmost_root(qp)
            except dp.RefinementError as exc:
                assert "could not certify the multiplicity" in str(exc)
        assert boxes
        for box, winding, evaluations in boxes:
            assert winding == winding_number_reference(*box)
            assert evaluations <= 100


def internal(h_a, h_v, phi):
    if h_a is None:
        return QuasiPolynomial.dch_internal(h_v, phi)
    return QuasiPolynomial.extended_internal(h_v, h_a, phi)


PAPER_TUNINGS = st.one_of(  # (h_a or None for DCH, h_v, phi)
    st.tuples(st.just(None), log_uniform(0.01, 10.0), st.floats(0.05, 0.3)),
    st.tuples(log_uniform(1e-4, 1e3), log_uniform(0.03, 3.0), st.floats(0.05, 0.3)),
)
SEEDING_TUNINGS = st.one_of(
    PAPER_TUNINGS,
    st.tuples(log_uniform(1e-9, 1e-4), log_uniform(1.0, 1e3), st.floats(0.05, 0.3)),
)
CENSUS_FAMILIES = ("paper", "wide", "dch-double", "dch-boundary")


class TestRootCountAgreesWithFixedGrid:
    """The adaptive count equals the 4096 + 8192-point scan it replaced on
    the boxes that rightmost_root builds, and on random boxes near a root."""

    @settings(max_examples=60, deadline=None)
    @given(data=PAPER_TUNINGS)
    def test_random_tunings(self, data):
        qp = internal(*data)
        boxes = []
        count = analysis._root_count
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_root_count", lambda *args: boxes.append(args) or count(*args))
            dp.rightmost_root(qp)
        (box,) = boxes
        assert count(*box)[0] == winding_number_reference(*box)

    @settings(max_examples=60, deadline=None)
    @given(
        data=PAPER_TUNINGS,
        side=st.sampled_from([-1.0, 1.0]),
        log_left=st.floats(-2.0, math.log10(0.5)),
        log_height=st.floats(-2.0, 0.5),
    )
    def test_random_boxes_near_a_root(self, data, side, log_left, log_height):
        """The left edge 0.01 to 0.5 (1 + |r|) to either side of the
        rightmost root r, the top 0.01 to 3 (1 + |r|) above it: the
        Taylor-model segment test counts what the fixed grids count."""
        qp = internal(*data)
        root = dp.rightmost_root(qp)
        lo = root.real + side * 10.0**log_left * (1.0 + abs(root))
        half = abs(root.imag) + 10.0**log_height * (1.0 + abs(root))
        if half <= lo:
            reject()
        try:
            want = winding_number_reference(qp, lo, half)
        except dp.RefinementError:
            reject()  # a root on or next to the contour: the grids disagree
        assert analysis._root_count(qp, lo, half)[0] == want

    def test_paper_range_boxes_take_few_evaluations(self, evaluations):
        """A deterministic count, not a time: over 100 seeded paper-range
        tunings, the Taylor-model test takes 12.51 evaluations per
        rightmost_root box on average (bounded at 1.5 times that), the
        two-disc test with the segment's slope bound took 25.3 and the
        one-disc test (max(|p(z0)|, |p(z1)|) on the right) 41.6."""
        rng = np.random.default_rng(0)
        for k in range(100):
            phi = rng.uniform(0.05, 0.3)
            if k % 2:
                qp = QuasiPolynomial.extended_internal(
                    rng.uniform(0.2, 2.0), rng.uniform(0.05, 1.0), phi
                )
            else:
                qp = QuasiPolynomial.dch_internal(rng.uniform(0.05, 0.5), phi)
            dp.rightmost_root(qp)
        assert len(evaluations) == 100
        assert np.mean(evaluations) < 18.8


def _coefficient():
    magnitude = log_uniform(1e-300, 1e300)
    return st.one_of(st.just(0.0), magnitude, magnitude.map(lambda x: -x))


BOUND_QUASI_POLYNOMIALS = st.one_of(
    st.builds(lambda data: internal(*data), PAPER_TUNINGS),
    st.builds(  # h_a from 1e-300 to 1e305: a = (0, 0, 1), b up to 1e303
        QuasiPolynomial.extended_internal,
        log_uniform(1e-3, 1e3), log_uniform(1e-300, 1e305), st.floats(0.05, 0.3),
    ),
    st.builds(QuasiPolynomial.dch_internal, log_uniform(1e-300, 1e300), st.floats(0.05, 0.3)),
    st.builds(  # a_j and b_j both nonzero, zero or of either sign
        lambda a, b, phi: QuasiPolynomial(a + (1.0,), b, phi),
        st.tuples(_coefficient(), _coefficient()), st.tuples(_coefficient(), _coefficient()),
        st.floats(0.0, 3.0),
    ),
)


class TestRootBound:
    """The scalar bound R(s) that runs, against the numpy bound it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(qp=BOUND_QUASI_POLYNOMIALS, s=st.floats(-1e3, 1e3))
    @example(qp=QuasiPolynomial.extended_internal(1e3, 1e-300, 0.3), s=-1e3)  # R overflows
    @example(qp=QuasiPolynomial((-1e300, 2.0, 1.0), (1e300, -3.0), 0.5), s=0.0)  # a_j, b_j != 0
    def test_agrees_with_the_array_reference(self, qp, s):
        """To 1e-15 relative, and inf where the reference overflows, with no
        warning and no OverflowError."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = analysis._root_bound(qp, s)
        want = float(root_bound_reference(qp, s))
        assert got == want or abs(got - want) <= 1e-15 * want

    def test_filter_keeps_the_array_bounds_seeds(self, workloads):
        """On stability_map's 64 extended benchmark tunings (its DCH ones
        build no generator), _polish_eigenvalues asks the bound once per
        upper-half-plane eigenvalue, from the right in stable order, and
        keeps exactly the eigenvalues that the numpy bound kept."""
        workload = workloads.StabilityMap()
        refs = workloads.load_refs()["stability_map"]
        bound = analysis._root_bound
        assert len(refs) == 128
        tested = 0
        for case_id in refs:
            stratum, variant = case_id.rsplit("/", 1)
            policy, params = workload.build_inputs(workload.case_params(stratum, int(variant)))
            if policy.kind is not PolicyKind.DELAYED_EXTENDED_HEADWAY:
                continue
            tested += 1
            qp = internal(policy.h_a, policy.h_v, params.phi)
            generator = analysis._generator_matrix(qp)
            asked = []

            def recording(qp, s):
                asked.append((s, bound(qp, s)))
                return asked[-1][1]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(analysis, "_root_bound", recording)
                analysis._polish_eigenvalues(qp, generator)
            eigs = np.linalg.eigvals(generator)
            upper = eigs[eigs.imag >= 0.0]
            upper = upper[np.argsort(-upper.real, kind="stable")]
            assert [s for s, _ in asked] == upper.real.tolist(), case_id
            kept = eigs[(eigs.imag >= 0.0) & (np.abs(eigs) <= root_bound_reference(qp, eigs.real))]
            kept = kept[np.argsort(-kept.real, kind="stable")]
            assert [e for e, (_, r) in zip(upper.tolist(), asked) if abs(e) <= r] == kept.tolist()
        assert tested == 64


class TestLocalMultiplicity:
    """The Rouché test on the disk around each root."""

    @settings(max_examples=60, deadline=None)
    @given(data=SEEDING_TUNINGS)
    def test_agrees_with_the_256_point_circle(self, data):
        """On every root that rightmost_root certifies, the multiplicity is
        the winding of p on the 256-point circle it replaced."""
        qp = internal(*data)
        calls = []
        multiplicity = analysis._local_multiplicity

        def recording(qp, root, roots):
            got = multiplicity(qp, root, roots)
            calls.append((root, roots, got))
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_local_multiplicity", recording)
            dp.rightmost_root(qp)
        assert calls
        for root, roots, got in calls:
            assert got == local_multiplicity_reference(qp, root, roots)

    def test_simple_root(self):
        qp = QuasiPolynomial((1.0, 1.0), (), 0.0)  # lambda + 1
        assert analysis._local_multiplicity(qp, -1.0 + 0.0j, [-1.0 + 0.0j]) == 1

    def test_dch_double_root(self):
        """h_v = e phi puts a double real root at -1 / phi."""
        phi = 0.1
        qp = QuasiPolynomial.dch_internal(math.e * phi, phi)
        root = dp.rightmost_root(qp)
        assert analysis._local_multiplicity(qp, root, [root]) == 2

    def test_triple_root(self):
        """(lambda + 1/2)^3: rho = 1.5e-5, and rho^3 = 3.4e-15 lies above
        the rounding bound, _COUNT_ROUNDING times the monomial scale 1.0,
        1.8e-15."""
        qp = QuasiPolynomial((0.125, 0.75, 1.5, 1.0), (), 0.0)
        assert analysis._local_multiplicity(qp, -0.5 + 0.0j, [-0.5 + 0.0j]) == 3

    def test_triple_root_below_the_rounding_bound_is_refused(self):
        """(lambda + 1)^3: on the disk of radius 2e-5 the leading term
        rho^3 = 8e-15 lies below the rounding bound, _COUNT_ROUNDING times
        the monomial scale 8, 1.4e-14, so no m is proved and the root is
        refused, where the 256-point circle reads 3 within its tolerance."""
        qp = QuasiPolynomial((1.0, 3.0, 3.0, 1.0), (), 0.0)
        assert local_multiplicity_reference(qp, -1.0 + 0.0j, [-1.0 + 0.0j]) == 3
        with pytest.raises(dp.RefinementError, match="could not certify the multiplicity"):
            analysis._local_multiplicity(qp, -1.0 + 0.0j, [-1.0 + 0.0j])

    def test_cluster_counts_both_roots_in_the_disk(self):
        """(lambda + 1)(lambda + 1 + 1e-7) called with -1 alone: the disk of
        radius 2e-5 holds both roots, so the multiplicity is 2.  The
        remainder beyond order 1, rho^2 = 4e-10, is what rules out m = 1,
        where |c_1| rho is only 2e-12."""
        qp = QuasiPolynomial((1.0 + 1e-7, 2.0 + 1e-7, 1.0), (), 0.0)
        assert analysis._local_multiplicity(qp, -1.0 + 0.0j, [-1.0 + 0.0j]) == 2


class TestSeeding:
    """rightmost_root seeds the extended factor from a 6-node generator and
    re-seeds once from 24 nodes when that seeding fails its certificate;
    the DCH factor builds no generator."""

    @settings(max_examples=80, deadline=None)
    @given(data=SEEDING_TUNINGS.filter(lambda data: data[0] is not None))
    def test_agrees_with_24_node_seeding(self, data):
        qp = internal(*data)
        root = dp.rightmost_root(qp)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_SEED_NODES", 24)
            reference = dp.rightmost_root(qp)
        assert abs(root - reference) <= 1e-9 * abs(reference)

    @pytest.mark.parametrize("family", CENSUS_FAMILIES)
    def test_census_certifies_from_one_6_node_build(self, builds, family):
        """A seeding census, 75 seeded draws a family: the paper's ranges;
        phi log-uniform on [1e-3, 1e3] with h_v / phi on [1e-2, 1e2] and h_a /
        (h_v phi) on [1e-3, 1e3], a third DCH; DCH near the double real root,
        h_v in e phi [1.01, 1.5]; and DCH within 1e-3 of the boundary h_v = 2
        phi / pi.  Each extended draw certifies from the 6-node seeds alone,
        and its root is the 12-node seeding's to 1e-11; each DCH draw builds
        no generator, and its root is scipy's W_0(-phi / h_v) / phi to 1e-13
        (within_w_rounding)."""
        rng = np.random.default_rng(CENSUS_FAMILIES.index(family))

        def log_uniform(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        for k in range(75):
            h_a = None
            if family == "paper":
                phi = rng.uniform(0.05, 0.3)
                if k % 2:
                    h_v, h_a = log_uniform(0.03, 3.0), log_uniform(1e-4, 1e3)
                else:
                    h_v = log_uniform(0.01, 10.0)
            elif family == "wide":
                phi = log_uniform(1e-3, 1e3)
                h_v = phi * log_uniform(1e-2, 1e2)
                if k % 3:
                    h_a = h_v * phi * log_uniform(1e-3, 1e3)
            else:
                phi = log_uniform(1e-2, 1e2)
                if family == "dch-double":
                    h_v = math.e * phi * rng.uniform(1.01, 1.5)
                else:
                    h_v = 2.0 * phi / math.pi * (1.0 + rng.uniform(-1e-3, 1e-3))
            qp = internal(h_a, h_v, phi)
            builds.clear()
            root = dp.rightmost_root(qp)
            if h_a is None:
                assert builds == [], qp
                want = dch_rightmost_root(h_v, phi)
                assert within_w_rounding(root, want, phi * want), qp
                continue
            assert builds == [6], qp
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(analysis, "_SEED_NODES", 12)
                reference = dp.rightmost_root(qp)
            assert abs(root - reference) <= 1e-11 * abs(reference), qp

    def test_short_acceleration_headway_needs_the_reseed(self, builds):
        """At h_a / (h_v phi) = 4e-11 the 6-node seeds miss a pair inside the
        box (winding count 6 != 4 roots found); the 24-node re-seed finds
        it and certifies the rightmost root."""
        root = dp.rightmost_root(QuasiPolynomial.extended_internal(100.0, 1e-9, 0.25))
        assert builds == [6, 24]
        want = 83.57065271489532 + 11.9960247871189j
        assert abs(root - want) <= 1e-12 * abs(want)

    def test_dch_long_delay_needs_no_reseed(self, builds):
        """At phi / h_v = 1e5 the box margin, divided by phi, keeps the chain
        roots out of the box: the branch listing stops at W_1, and certifies
        the principal Lambert-W root W_0(-phi / h_v) / phi without a
        generator."""
        h_v, phi = 1e-3, 100.0
        root = dp.rightmost_root(QuasiPolynomial.dch_internal(h_v, phi))
        assert builds == []
        want = complex(scipy.special.lambertw(-phi / h_v, 0)) / phi
        assert abs(root - complex(want.real, abs(want.imag))) <= 1e-9 * abs(want)

    @pytest.mark.parametrize(
        "h_v,h_a,want",
        [
            (100.0, 1e-3, 0.1355682654233916 + 0.02915591801488796j),
            (1e3, 1.0, 0.09252795119784595 + 0.02840713316930663j),
        ],
    )
    def test_extended_long_delay_needs_no_reseed(self, builds, h_v, h_a, want):
        root = dp.rightmost_root(QuasiPolynomial.extended_internal(h_v, h_a, 100.0))
        assert builds == [6]
        assert abs(root - want) <= 1e-9 * abs(want)

    def test_small_acceleration_headway_needs_no_reseed(self, builds):
        """The widened seed stop keeps the 6-node seeds of the pairs inside
        the box (see test_extended_small_acceleration_headway)."""
        dp.rightmost_root(QuasiPolynomial.extended_internal(1.0, 2e-9, 0.15))
        assert builds == [6]

    def test_dch_builds_no_generator_and_calls_no_eigvals(self, monkeypatch, builds):
        """Every DCH properness_root_check, proper or not, near the double
        root or the axis, with a long delay or many branches in the box,
        lists its roots in closed form."""

        def refuse(*args):
            raise AssertionError("np.linalg.eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for h_v, phi in ((0.4, 0.15), (0.25, 0.15), (math.e * 0.15, 0.15), (0.3 / math.pi, 0.15),
                         (1e-3, 100.0), (1.5e-21, 0.15), (1e12, 0.15), (0.4, 0.0)):
            policy = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=h_v)
            try:
                dp.properness_root_check(policy, dp.VehicleParams(0.067, phi))
            except dp.RefinementError as exc:
                assert "within rounding of the imaginary axis" in str(exc)
        assert builds == []

    @pytest.mark.parametrize("h_v", [0.01, 0.1, 1.0])
    def test_huge_acceleration_headway_pair_from_the_generator(self, h_v):
        """At h_a = 1e26 the 6-node generator seeds the pair near +-i
        h_a^{-1/2}, which the 24-node one loses in its rounding at these
        h_v: the root is the closed-form pair of h_a lambda^2 + (h_v - phi)
        lambda + 1.  Its real part, about 1e-15 of |root|, lies within
        Newton's stop and is not pinned."""
        h_a, phi = 1e26, 0.15
        root = dp.rightmost_root(QuasiPolynomial.extended_internal(h_v, h_a, phi))
        c = h_v - phi
        want = (-c + cmath.sqrt(c * c - 4.0 * h_a)) / (2.0 * h_a)
        assert root.imag > 0.0
        assert abs(root - want) <= 1e-13 * abs(want)
