"""Analytic references that the tests compare the package against."""

import math

import numpy as np
import scipy.linalg
import scipy.special

from delayplatoon.controllers import ControllerGains, validate_gains
from delayplatoon.errors import DegreeError


def dch_rightmost_root(h_v: float, phi: float) -> complex:
    """Rightmost root of lambda + e^{-phi lambda} / h_v in closed form.

    lambda = W(-phi / h_v) / phi for every branch W of the Lambert function;
    the principal branch W_0 has the largest real part (Shinozaki & Mori,
    Automatica 2006).  Returned with Im >= 0.  At the branch point -1/e
    (h_v = e phi, a double root) scipy's iteration divides by W' = inf and
    returns nan; W_0(-1/e) = -1 there.
    """
    x = -phi / h_v
    w = complex(scipy.special.lambertw(x, 0))
    if not np.isfinite(w) and abs(x + math.exp(-1.0)) <= 1e-15:
        w = -1.0
    return complex(w.real, abs(w.imag)) / phi


def error_dynamics_reference(
    rho_bar: int,
    gains: ControllerGains,
    e0: float,
    horizon: float,
    ts: float,
) -> np.ndarray:
    """Analytic e(t) at the sample grid for the closed-loop error ODE.

    The controllers realize e' = -k_p e (rho_bar 1), e'' = -k_d e' - k_p e
    (rho_bar 2) or e''' = -k_dd e'' - k_d e' - k_p e (rho_bar 3) from
    initial condition (e0, 0, 0).  Evaluated through the exponential of the
    companion matrix, which also covers repeated or complex eigenvalues.
    """
    violations = validate_gains(rho_bar, gains)
    if violations:
        raise ValueError("invalid gains: " + "; ".join(violations))
    if rho_bar == 1:
        companion = np.array([[-gains.k_p]])
    elif rho_bar == 2:
        companion = np.array([[0.0, 1.0], [-gains.k_p, -gains.k_d]])
    elif rho_bar == 3:
        companion = np.array(
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-gains.k_p, -gains.k_d, -gains.k_dd]]
        )
    else:
        raise DegreeError(f"unsupported relative degree {rho_bar}")
    n = int(round(horizon / ts))
    step_matrix = scipy.linalg.expm(companion * ts)
    y = np.zeros(companion.shape[0])
    y[0] = e0
    series = np.empty(n + 1)
    series[0] = y[0]
    for k in range(n):
        y = step_matrix @ y
        series[k + 1] = y[0]
    return series
