import numpy as np
import pytest

import delayplatoon as dp


@pytest.fixture
def ref_params():
    return dp.VehicleParams(tau=0.067, phi=0.15)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
