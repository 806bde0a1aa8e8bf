"""Analytic references that the tests compare the package against."""

import numpy as np
import scipy.linalg

from delayplatoon.controllers import ControllerGains, validate_gains
from delayplatoon.errors import DegreeError


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
