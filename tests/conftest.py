import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import delayplatoon as dp

# CI selects this profile (--hypothesis-profile=ci) so that a failing draw
# prints its @reproduce_failure blob in the log; it changes nothing else
settings.register_profile("ci", print_blob=True)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture
def ref_params():
    return dp.VehicleParams(tau=0.067, phi=0.15)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, loaded from its path (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]
