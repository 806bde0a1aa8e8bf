import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delayplatoon as dp
from delayplatoon.predictor import predict
from oracles import predict_acceleration_continuous


def simulate_forward(model, x, history):
    """d-step simulation oracle consuming the buffered inputs in order."""
    for u in history.samples:
        x = dp.step(model, x, u)
    return x


class TestPredict:
    def test_zero_horizon_returns_state(self, ref_params):
        model = dp.discretize(dp.VehicleParams(0.067, 0.0), 0.01)
        x = dp.VehicleState(1.0, 2.0, 3.0)
        assert predict(model, x, dp.InputHistory((), 0.01)) == x

    def test_constant_buffer_closed_form(self, ref_params):
        ts, u0 = 0.01, 0.7
        tau, phi = ref_params.tau, ref_params.phi
        model = dp.discretize(ref_params, ts)
        hist = dp.InputHistory.constant(u0, 15, ts)
        out = predict(model, dp.VehicleState(), hist)
        em = 1.0 - math.exp(-phi / tau)
        assert out.a == pytest.approx(u0 * em, abs=1e-12)
        assert out.v == pytest.approx(u0 * (phi - tau * em), abs=1e-12)

    def test_matches_forward_simulation(self, ref_params, rng):
        ts = 0.01
        model = dp.discretize(ref_params, ts)
        for _ in range(200):
            x = dp.VehicleState(*rng.normal(size=3))
            hist = dp.InputHistory(tuple(rng.normal(size=15)), ts)
            got = predict(model, x, hist)
            want = simulate_forward(model, x, hist)
            err = max(
                abs(got.q - want.q), abs(got.v - want.v), abs(got.a - want.a)
            )
            assert err <= 1e-12

    def test_sample_period_mismatch(self, ref_params):
        model = dp.discretize(ref_params, 0.01)
        with pytest.raises(dp.HistoryDepthError):
            predict(model, dp.VehicleState(), dp.InputHistory((0.0,) * 15, 0.005))


class TestPredictAccelerationContinuous:
    def test_pure_decay(self):
        p = dp.VehicleParams(tau=0.1, phi=0.1)
        hist = dp.InputHistory((0.0,) * 10, 0.01)
        out = predict_acceleration_continuous(p, 1.0, hist)
        assert out == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_constant_history_segment_integral(self, ref_params):
        u0 = -0.4
        hist = dp.InputHistory.constant(u0, 15, 0.01)
        out = predict_acceleration_continuous(ref_params, 0.0, hist)
        want = u0 * (1.0 - math.exp(-ref_params.phi / ref_params.tau))
        assert out == pytest.approx(want, abs=1e-12)

    def test_agrees_with_discrete_prediction(self, ref_params, rng):
        ts = 0.01
        model = dp.discretize(ref_params, ts)
        for _ in range(1000):
            a_now = rng.normal()
            hist = dp.InputHistory(tuple(rng.normal(size=15)), ts)
            x = dp.VehicleState(0.0, 0.0, a_now)
            discrete = predict(model, x, hist).a
            continuous = predict_acceleration_continuous(ref_params, a_now, hist)
            assert abs(discrete - continuous) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_prediction_is_affine(seed):
    rng = np.random.default_rng(seed)
    ts = 0.01
    p = dp.VehicleParams(tau=rng.uniform(0.05, 0.5), phi=0.1)
    model = dp.discretize(p, ts)
    d = 10
    x1, x2 = rng.normal(size=3), rng.normal(size=3)
    h1, h2 = rng.normal(size=d), rng.normal(size=d)
    alpha, beta = rng.normal(), rng.normal()

    def pred(x, h):
        return predict(
            model, dp.VehicleState(*x), dp.InputHistory(tuple(h), ts)
        ).as_array()

    combined = pred(alpha * x1 + beta * x2, alpha * h1 + beta * h2)
    superposed = alpha * pred(x1, h1) + beta * pred(x2, h2)
    assert np.allclose(combined, superposed, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_shift_consistency(seed):
    """Predicting d steps equals one step plus a (d-1)-step prediction."""
    rng = np.random.default_rng(seed)
    ts = 0.01
    p = dp.VehicleParams(tau=rng.uniform(0.05, 0.5), phi=0.0)
    model = dp.discretize(p, ts)
    d = int(rng.integers(2, 20))
    x = dp.VehicleState(*rng.normal(size=3))
    hist = dp.InputHistory(tuple(rng.normal(size=d)), ts)

    full = predict(model, x, hist)
    stepped = dp.step(model, x, hist.samples[0])
    rest = dp.InputHistory(hist.samples[1:], ts)
    via_step = predict(model, stepped, rest)
    assert np.allclose(
        full.as_array(), via_step.as_array(), rtol=1e-12, atol=1e-12
    )
