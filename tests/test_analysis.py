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
    local_multiplicity_reference,
    quasi_polynomial_reference,
    refined_peak_reference,
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
    grid's, then one per level of splits."""
    sizes = []
    kernel = analysis.magnitude_kernel

    def counting(policy, params):
        parts, curvature = kernel(policy, params)
        return (lambda w: sizes.append(np.size(w)) or parts(w)), curvature

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
        _, curvature = analysis.magnitude_kernel(policy, params)
        bound = curvature(w_hi)
        second = _second_derivative(policy, params, t * w_hi)
        assert abs(second) <= bound * (1.0 + 1e-12)  # both sides rounded

    def test_points_beyond_the_grid_are_few(self, monkeypatch):
        """Ten maxima cost one array call for the grid and a few levels of
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

    def test_double_root_multiplicity_certified(self):
        # h_v = e*phi puts a double real root at -1/phi
        phi = 0.1
        root = dp.rightmost_root(QuasiPolynomial.dch_internal(math.e * phi, phi))
        assert root == pytest.approx(-1.0 / phi, rel=1e-6)
        assert root == pytest.approx(dch_rightmost_root(math.e * phi, phi), rel=1e-6)

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
        """The rightmost DCH root is W_0(-phi / h_v) / phi; Newton from the
        generator's seeds lands on it to 1e-12 relative."""
        for h_v in np.geomspace(0.01, 10.0, 30):
            for phi in np.linspace(0.05, 0.3, 11):
                want = complex(scipy.special.lambertw(-phi / h_v, 0)) / phi
                root = dp.rightmost_root(QuasiPolynomial.dch_internal(h_v, phi))
                assert abs(root - want) <= 1e-12 * abs(want)

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
        verdict = dp.properness_root_check(policy, ref_params)
        assert abs(verdict.rightmost_root.real) <= 1e-5

    @pytest.mark.parametrize("h_a", [1e-4, 1e-5, 3e-6, 1e-6, 2e-9])
    def test_extended_small_acceleration_headway(self, ref_params, h_a):
        """The root near -1/h_v cancels h_v lambda + 1, and the unstable roots
        near W_0(-phi h_v / h_a) / phi lie beyond 5 / phi.  At h_a = 2e-9 the
        rightmost pair, 102.6+19.7j, has |lambda| phi of about 16, where a
        12-node generator's seed for it (98.7+15.9j) falls left of the seed
        stop."""
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
        rounding; the delay-free roots of a + b seed them instead."""
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1.0, h_a=h_a)
        verdict = dp.properness_root_check(policy, ref_params)
        assert verdict.stable == dp.is_proper(policy, ref_params).stable

    def test_spurious_right_eigenvalues_are_filtered(self):
        """The 12-node generator's top eigenvalue here, 38.2+106j, is
        spurious: |e| > R(Re e).  Newton from it lands on 20.01+49.39j, a
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

    @pytest.mark.parametrize("nodes", [12, 24])
    @pytest.mark.parametrize("phi", [0.0, 1e-3, 0.05, 0.15, 0.3, 2.0])
    @pytest.mark.parametrize(
        "make",
        [
            lambda phi: QuasiPolynomial.dch_internal(0.4, phi),
            lambda phi: QuasiPolynomial.extended_internal(1.2, 0.25, phi),
        ],
        ids=["dch", "ext"],
    )
    def test_matches_per_call_construction(self, make, phi, nodes):
        # the whole matrix, not entry by entry: the near-zero diagonal of the
        # differentiation block is rounding noise of its row sums
        qp = make(phi)
        matrix = analysis._generator_matrix(qp, nodes)
        reference = generator_matrix_reference(qp, nodes)
        assert matrix.shape == reference.shape
        assert np.max(np.abs(matrix - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_default_seeding_uses_12_nodes(self):
        qp = QuasiPolynomial.extended_internal(1.2, 0.25, 0.15)
        assert analysis._generator_matrix(qp).shape == (26, 26)
        qp = QuasiPolynomial.dch_internal(0.4, 0.15)
        assert analysis._generator_matrix(qp).shape == (13, 13)

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
    at 1.5 times those of the half-contour count (DCH 28 and 560, extended
    42 and 889), below those of the full contour (DCH 54 and 1,118,
    extended 82 and 1,776)."""

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
        assert np.median(evaluations) <= 42 and max(evaluations) <= 840

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
        assert np.median(evaluations) <= 63 and max(evaluations) <= 1340


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

    def test_no_converged_seed_is_a_refinement_error(self):
        # the eigenvalue seeds miss the roots near 4672 +- 21i (1 + 2k)
        with pytest.raises(dp.RefinementError, match="no eigenvalue seed converged"):
            dp.rightmost_root(QuasiPolynomial.dch_internal(1e-308, 0.15))

    def test_missing_roots_fail_the_certificate_without_retry(self, monkeypatch, builds):
        """A root the eigenvalue seeds miss is a RefinementError after two
        generator builds, the 12-node seeding and its one 24-node re-seed,
        not a search repeated on ever finer generators: without the
        rightmost pair, the box around the next one still holds it."""
        second = complex(scipy.special.lambertw(-0.15 / 0.4, 1)) / 0.15
        monkeypatch.setattr(
            analysis, "_polish_eigenvalues", lambda qp, gen: [complex(second.real, abs(second.imag))]
        )
        qp = QuasiPolynomial.dch_internal(0.4, 0.15)
        message = r"^winding count \d+ != \d+ roots found .*; seeded from 12, then 24 Chebyshev"
        with pytest.raises(dp.RefinementError, match=message):
            dp.rightmost_root(qp)
        assert builds == [12, 24]

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
        two-disc segment test counts what the fixed grids count."""
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
        tunings, the two-disc test (|p(z0)| + |p(z1)| on the right) takes
        25.3 evaluations per rightmost_root box on average, the one-disc
        test (max(|p(z0)|, |p(z1)|)) took 41.6."""
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
        assert np.mean(evaluations) < 33.0


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
    """rightmost_root seeds from a 12-node generator and re-seeds once from
    24 nodes when that seeding fails its certificate."""

    @settings(max_examples=80, deadline=None)
    @given(data=SEEDING_TUNINGS)
    def test_agrees_with_24_node_seeding(self, data):
        qp = internal(*data)
        root = dp.rightmost_root(qp)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_SEED_NODES", 24)
            reference = dp.rightmost_root(qp)
        assert abs(root - reference) <= 1e-9 * abs(reference)

    def test_dch_long_delay_needs_no_reseed(self, builds):
        """At phi / h_v = 1e5 the box margin, divided by phi, keeps out the
        pairs that the 12-node seeds miss: the first seeding certifies the
        principal Lambert-W root W_0(-phi / h_v) / phi."""
        h_v, phi = 1e-3, 100.0
        root = dp.rightmost_root(QuasiPolynomial.dch_internal(h_v, phi))
        assert builds == [12]
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
        assert builds == [12]
        assert abs(root - want) <= 1e-9 * abs(want)

    def test_small_acceleration_headway_needs_no_reseed(self, builds):
        """The widened seed stop keeps the 12-node seeds of the pairs inside
        the box (see test_extended_small_acceleration_headway)."""
        dp.rightmost_root(QuasiPolynomial.extended_internal(1.0, 2e-9, 0.15))
        assert builds == [12]

    @pytest.mark.parametrize("h_v", [0.01, 0.1, 1.0])
    def test_huge_acceleration_headway_pair_from_the_generator(self, h_v):
        """At h_a = 1e26 the 12-node generator seeds the pair near +-i
        h_a^{-1/2}, which the 24-node one loses in its rounding at these
        h_v: the root is the closed-form pair of h_a lambda^2 + (h_v - phi)
        lambda + 1, not the delay-free fallback's real artifact.  Its real
        part, about 1e-15 of |root|, lies within Newton's stop and is not
        pinned."""
        h_a, phi = 1e26, 0.15
        root = dp.rightmost_root(QuasiPolynomial.extended_internal(h_v, h_a, phi))
        c = h_v - phi
        want = (-c + cmath.sqrt(c * c - 4.0 * h_a)) / (2.0 * h_a)
        assert root.imag > 0.0
        assert abs(root - want) <= 1e-13 * abs(want)
