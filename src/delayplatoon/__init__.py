"""Delay-aware spacing policies and decentralized platoon controllers.

The vehicle model is a third-order longitudinal chain with an engine time
constant and an actuation input delay.  Spacing policies are expressed in
current and exactly-predicted ego states, which makes decentralized tracking
controllers implementable and ties string stability to the policy choice.

The namespace is lazy (PEP 562): ``import delayplatoon`` loads no submodule
and not numpy.  A name of ``__all__`` or a submodule name is imported on its
first access and then stored in the module dict, so later lookups are plain
attribute reads.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("analysis", (
            "QuasiPolynomial", "l2_string_stability_check", "properness_root_check",
            "rightmost_root", "stability_region_boundary", "string_stability_sweep",
            "transfer_magnitude",
        )),
        ("controllers", (
            "ControlInputs", "ControllerGains", "ControllerSpec", "control", "validate_gains",
        )),
        ("dynamics", (
            "DiscreteModel", "InputHistory", "VehicleParams", "VehicleState", "discretize",
            "matrix_exponential_closed_form", "step",
        )),
        ("errors", (
            "ChannelError", "DegreeError", "DelayGranularityError", "HistoryDepthError",
            "RefinementError", "ScenarioError",
        )),
        ("predictor", ("predict",)),
        ("scenario", ("Scenario", "parse_scenario")),
        ("simulator", (
            "LeaderProfile", "LeaderSegment", "MeasurementOptions", "PlatoonConfig",
            "TrajectoryLog", "VehicleSetup", "leader_input", "open_loop_step_response", "run",
        )),
        ("spacing", (
            "PolicyKind", "PolicyRows", "SpacingPolicy", "StabilityVerdict", "is_proper",
            "is_string_stable", "policy_rows", "relative_degrees", "solvability_check",
        )),
    )
    for name in names
}
_SUBMODULES = frozenset(("analysis", "cli", "controllers", "dynamics", "errors",
                         "predictor", "scenario", "simulator", "spacing"))

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
