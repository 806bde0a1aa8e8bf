import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import delayplatoon as dp
from delayplatoon.errors import DelayGranularityError
from delayplatoon.predictor import prediction_weights

from oracles import system_matrices


def series_expm(a: np.ndarray, t: float, terms: int = 31) -> np.ndarray:
    """Truncated Taylor series oracle for e^{A t}."""
    out = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms):
        term = term @ (a * t) / k
        out = out + term
    return out


class TestVehicleTypes:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            dp.VehicleParams(tau=0.0, phi=0.1)
        with pytest.raises(ValueError):
            dp.VehicleParams(tau=-1.0, phi=0.1)
        with pytest.raises(ValueError):
            dp.VehicleParams(tau=0.1, phi=-0.1)
        with pytest.raises(ValueError):
            dp.VehicleParams(tau=math.nan, phi=0.1)

    def test_state_requires_finite(self):
        with pytest.raises(ValueError):
            dp.VehicleState(q=math.inf)

    def test_history_depth_is_its_sample_count(self):
        assert dp.InputHistory((1.0, 2.0, 3.0), 0.01).depth == 3
        assert dp.InputHistory((), 0.01).depth == 0
        assert dp.InputHistory.constant(0.5, 2, 0.01).samples == (0.5, 0.5)
        with pytest.raises(ValueError):
            dp.InputHistory.constant(0.5, -1, 0.01)


def zoh_series_reference(tau: float, t: float) -> tuple[Fraction, ...]:
    """Exact (Phi[0,2], Gamma[0], Gamma[1]) for x = t / tau <= 1e-3:
    t^2 c2, t^2 x c3 and t x c2 with c_m = sum_k (-x)^k / (k+m)!, in rational
    arithmetic on the binary values of tau and t, cut where the next term is
    below 1e-40 relative."""
    t, x = Fraction(t), Fraction(t) / Fraction(tau)
    c2, c3 = (sum((-x) ** k / math.factorial(k + m) for k in range(14)) for m in (2, 3))
    return t * t * c2, t * t * x * c3, t * x * c2


class TestMatrixExponential:
    def test_zero_time_is_identity(self, ref_params):
        m = dp.matrix_exponential_closed_form(ref_params, 0.0)
        assert np.array_equal(m, np.eye(3))

    def test_large_time_asymptote(self):
        p = dp.VehicleParams(tau=1.0, phi=0.0)
        t = 60.0
        m = dp.matrix_exponential_closed_form(p, t)
        assert m[0, 2] == pytest.approx(t - 1.0, rel=1e-12)
        assert m[1, 2] == pytest.approx(1.0, rel=1e-12)

    def test_against_series_oracle(self, ref_params):
        a, _ = system_matrices(ref_params)
        t = 0.01
        expected = series_expm(a, t)
        got = dp.matrix_exponential_closed_form(ref_params, t)
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_rejects_bad_time(self, ref_params):
        with pytest.raises(ValueError):
            dp.matrix_exponential_closed_form(ref_params, math.nan)
        with pytest.raises(ValueError):
            dp.matrix_exponential_closed_form(ref_params, -0.1)


class TestDiscretize:
    def test_short_step_limits(self, ref_params):
        p = dp.VehicleParams(tau=ref_params.tau, phi=0.0)
        m = dp.discretize(p, 1e-12)
        assert np.allclose(m.Phi, np.eye(3), atol=1e-11)
        assert np.allclose(m.Gamma, 0.0, atol=1e-10)  # Gamma ~ Ts/tau to first order

    def test_gamma_against_simpson_quadrature(self, ref_params):
        ts = 0.01
        a, b = system_matrices(ref_params)
        n = 10_000  # composite Simpson panels
        sigma = np.linspace(0.0, ts, 2 * n + 1)
        values = np.stack(
            [dp.matrix_exponential_closed_form(ref_params, s) @ b for s in sigma]
        )
        weights = np.ones(2 * n + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        quad = (ts / (2 * n) / 3.0) * (weights[:, None] * values).sum(axis=0)
        m = dp.discretize(ref_params, ts)
        assert np.allclose(m.Gamma, quad, atol=1e-10)

    def test_one_step_matches_augmented_continuous_solution(self, rng):
        # augmented system [x; u] with constant u gives the exact step
        for _ in range(20):
            tau = rng.uniform(0.03, 1.5)
            ts = rng.uniform(1e-3, 0.1)
            p = dp.VehicleParams(tau=tau, phi=0.0)
            a, b = system_matrices(p)
            aug = np.zeros((4, 4))
            aug[:3, :3] = a
            aug[:3, 3] = b
            exact = scipy.linalg.expm(aug * ts)
            m = dp.discretize(p, ts)
            x0 = rng.normal(size=3)
            u = rng.normal()
            got = m.Phi @ x0 + m.Gamma * u
            want = (exact @ np.append(x0, u))[:3]
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("tau", [10.0, 1e3, 1e10, 1e200])
    def test_long_engine_lag_against_exact_series(self, tau):
        """tau >> Ts: the entries whose closed forms cancel (and whose tau^2
        overflows at 1e200) agree with exact rational arithmetic."""
        p = dp.VehicleParams(tau=tau, phi=0.0)
        m = dp.discretize(p, 0.01)
        assert dp.matrix_exponential_closed_form(p, 0.01)[0, 2] == m.Phi[0, 2]
        got = (m.Phi[0, 2], m.Gamma[0], m.Gamma[1])
        for g, want in zip(got, zoh_series_reference(tau, 0.01)):
            assert abs(Fraction(g) - want) <= 2e-15 * abs(want)

    def test_model_invariants(self, ref_params):
        ts = 0.01
        m = dp.discretize(ref_params, ts)
        assert m.Phi[0, 1] == ts
        assert m.Phi[0, 0] == 1.0 and m.Phi[1, 1] == 1.0
        assert m.Phi[1, 0] == 0.0 and m.Phi[2, 0] == 0.0 and m.Phi[2, 1] == 0.0
        assert m.Phi[2, 2] == pytest.approx(math.exp(-ts / ref_params.tau), rel=1e-16)

    @settings(max_examples=60, deadline=None)
    @given(log_tau=st.floats(-3.0, 3.0), ts=st.floats(1e-3, 0.05), d=st.integers(0, 300))
    @example(log_tau=math.log10(0.067), ts=0.01, d=300)  # Ts / tau >= 0.01: closed form
    @example(log_tau=1.0, ts=0.01, d=300)  # Ts / tau < 0.01: series
    def test_unit_upper_triangular_pattern_is_exact(self, log_tau, ts, d):
        """simulator.run leaves out the products by these entries, which is
        bit-identical only if they are exact: Phi and prediction_weights'
        Phi^d hold 0.0 below the diagonal and 1.0 at [0, 0] and [1, 1]."""
        model = dp.discretize(dp.VehicleParams(tau=10.0**log_tau, phi=0.0), ts)
        phi_d, _ = prediction_weights(model, d)
        for m in (model.Phi, phi_d):
            assert m[1, 0] == 0.0 and m[2, 0] == 0.0 and m[2, 1] == 0.0
            assert m[0, 0] == 1.0 and m[1, 1] == 1.0

    def test_delay_granularity(self):
        p = dp.VehicleParams(tau=0.067, phi=0.15)
        assert dp.dynamics.delay_steps(p, 0.01) == 15
        with pytest.raises(DelayGranularityError):
            dp.discretize(p, 0.02)
        with pytest.raises(DelayGranularityError):
            dp.dynamics.delay_steps(dp.VehicleParams(0.067, 0.155), 0.01)

    def test_delay_window_bounded(self):
        """At most MAX_SAMPLES buffered inputs, checked before any is built."""
        most = dp.VehicleParams(0.067, 1e4)  # 1e4 / 0.01 = 10^6 samples
        assert dp.dynamics.delay_steps(most, 0.01) == dp.dynamics.MAX_SAMPLES
        with pytest.raises(ValueError, match="exceeds"):
            dp.dynamics.delay_steps(dp.VehicleParams(0.067, 1e300), 0.01)


class TestStep:
    def test_equilibrium(self, ref_params):
        m = dp.discretize(ref_params, 0.01)
        out = dp.step(m, dp.VehicleState(), 0.0)
        assert (out.q, out.v, out.a) == (0.0, 0.0, 0.0)

    def test_constant_velocity_coasting(self, ref_params):
        m = dp.discretize(ref_params, 0.01)
        out = dp.step(m, dp.VehicleState(q=0.0, v=5.0, a=0.0), 0.0)
        assert out.q == pytest.approx(0.05, abs=1e-15)
        assert out.v == 5.0
        assert out.a == 0.0

    def test_held_input_first_order_response(self, ref_params):
        m = dp.discretize(ref_params, 0.01)
        x = dp.VehicleState()
        for _ in range(100):
            x = dp.step(m, x, 1.0)
        assert x.a == pytest.approx(1.0 - math.exp(-1.0 / 0.067), abs=1e-12)


class TestOpenLoopStepResponse:
    def test_zero_before_the_delay(self, ref_params):
        r = dp.open_loop_step_response(ref_params, 1.0, 0.3, 0.001)
        k149 = int(round(0.149 / 0.001))
        assert r.a[k149] == 0.0
        assert np.all(r.a[: k149 + 1] == 0.0)

    def test_analytic_value_one_time_constant_in(self, ref_params):
        r = dp.open_loop_step_response(ref_params, 1.0, 0.3, 0.001)
        k = int(round((0.15 + 0.067) / 0.001))
        assert r.a[k] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)

    def test_zero_input_stays_zero(self, ref_params):
        r = dp.open_loop_step_response(ref_params, 0.0, 0.5, 0.01)
        assert np.all(r.q == 0.0) and np.all(r.v == 0.0) and np.all(r.a == 0.0)


@settings(max_examples=50, deadline=None)
@given(
    tau=st.floats(0.02, 2.0),
    ts=st.floats(1e-3, 0.05),
)
def test_semigroup_property(tau, ts):
    p = dp.VehicleParams(tau=tau, phi=0.0)
    one = dp.discretize(p, ts)
    two = dp.discretize(p, 2.0 * ts)
    assert np.allclose(two.Phi, one.Phi @ one.Phi, rtol=1e-12, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_discrete_matches_continuous_closed_form(seed):
    """Chained steps with arbitrary held inputs equal the continuous solution."""
    rng = np.random.default_rng(seed)
    tau = rng.uniform(0.05, 1.0)
    ts = rng.uniform(0.002, 0.05)
    n = int(rng.integers(1, 60))
    p = dp.VehicleParams(tau=tau, phi=0.0)
    m = dp.discretize(p, ts)
    a, b = system_matrices(p)
    aug = np.zeros((4, 4))
    aug[:3, :3] = a
    aug[:3, 3] = b
    exact_step = scipy.linalg.expm(aug * ts)

    us = rng.normal(size=n)
    x = dp.VehicleState(*rng.normal(size=3))
    y = x.as_array()
    for u in us:
        x = dp.step(m, x, u)
        y = (exact_step @ np.append(y, u))[:3]
    assert np.allclose(x.as_array(), y, rtol=1e-12, atol=1e-12)


def test_position_row_is_exact_velocity_integral(ref_params, rng):
    """q increments reproduce the closed-form integral of v over the step."""
    ts = 0.01
    tau = ref_params.tau
    m = dp.discretize(ref_params, ts)
    # integral over one step of v(sigma) for v-row dynamics:
    # int v = v0*Ts + a0*int tau(1-e^(-s/tau)) + u*int (s - tau(1-e^(-s/tau)))
    em = 1.0 - math.exp(-ts / tau)
    int_v_coeff = ts
    int_a_coeff = tau * ts - tau * tau * em
    int_u_coeff = 0.5 * ts * ts - tau * ts + tau * tau * em
    for _ in range(50):
        x = rng.normal(size=3)
        u = rng.normal()
        q_inc = (m.Phi @ x + m.Gamma * u)[0] - x[0]
        want = int_v_coeff * x[1] + int_a_coeff * x[2] + int_u_coeff * u
        assert q_inc == pytest.approx(want, rel=1e-12, abs=1e-14)
