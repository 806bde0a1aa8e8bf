"""Exact d-step-ahead prediction of the ego state over the delay horizon.

With a zero-order hold and an integer delay d = phi/Ts, the state at t + phi
is an exact function of the current state and the d buffered inputs:

    x(k + d) = Phi^d x(k) + sum_{j=1..d} Phi^{j-1} Gamma u(k - j)

so no approximation is involved.  ``run`` computes the weights once per
follower and run; ``predict`` computes them on each call and multiplies
them by ``InputHistory.samples``, oldest first, the order of W's columns.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import DiscreteModel, InputHistory, VehicleState
from .errors import HistoryDepthError

__all__ = ["predict", "prediction_weights"]


def prediction_weights(model: DiscreteModel, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """(Phi^depth, W) with W @ history.samples the forced response at t + phi.

    W's columns are oldest first, as in InputHistory.samples: column m
    multiplies u(k - (depth - m)), so its weight is Phi^{depth-1-m} Gamma.
    """
    phi_d = np.eye(3)
    w = np.zeros((3, depth))
    for j in range(1, depth + 1):  # phi_d = Phi^{j-1} at loop entry
        w[:, depth - j] = phi_d @ model.Gamma
        phi_d = model.Phi @ phi_d
    return phi_d, w


def predict(model: DiscreteModel, x: VehicleState, history: InputHistory) -> VehicleState:
    """State at t + depth*Ts, exact for the ZOH discrete system."""
    if not math.isclose(history.sample_period, model.Ts, rel_tol=1e-12):
        raise HistoryDepthError(
            f"history sample period {history.sample_period} != model Ts {model.Ts}"
        )
    if history.depth == 0:
        return x
    phi_d, w = prediction_weights(model, history.depth)
    xh = phi_d @ x.as_array() + w @ history.samples
    return VehicleState.from_array(xh)
