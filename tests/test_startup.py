"""The package namespace is lazy, and each subcommand imports only what it runs.

`import delayplatoon` loads no submodule; a name is imported on its first
access.  Each test lists the modules a fresh interpreter
has loaded when it is done, so none measures time.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest
from test_scenario_cli import child_env

import delayplatoon as dp

# the names `delayplatoon` exports, by the submodule that defines them
EXPORTED = {
    "analysis": [
        "QuasiPolynomial", "l2_string_stability_check", "properness_root_check",
        "rightmost_root", "stability_region_boundary", "string_stability_sweep",
        "transfer_magnitude",
    ],
    "controllers": ["ControlInputs", "ControllerGains", "ControllerSpec", "control", "validate_gains"],
    "dynamics": [
        "DiscreteModel", "InputHistory", "VehicleParams", "VehicleState", "discretize",
        "matrix_exponential_closed_form", "step",
    ],
    "errors": [
        "ChannelError", "DegreeError", "DelayGranularityError", "HistoryDepthError",
        "RefinementError", "ScenarioError",
    ],
    "predictor": ["predict"],
    "scenario": ["Scenario", "parse_scenario"],
    "simulator": [
        "LeaderProfile", "LeaderSegment", "MeasurementOptions", "PlatoonConfig", "TrajectoryLog",
        "VehicleSetup", "leader_input", "open_loop_step_response", "run",
    ],
    "spacing": [
        "PolicyKind", "PolicyRows", "SpacingPolicy", "StabilityVerdict", "is_proper",
        "is_string_stable", "policy_rows", "relative_degrees", "solvability_check",
    ],
}
SCENARIO = Path(dp.__file__).resolve().parent / "scenarios" / "paper_extended.scn"


# names every module loaded, on the last line of stderr, when the child exits
LIST_AT_EXIT = (
    "import atexit, sys; "
    "atexit.register(lambda: print(' '.join(sorted(sys.modules)), file=sys.stderr)); "
)


def loaded_modules(code: str, argv, cwd) -> set[str]:
    """Modules a fresh interpreter has loaded when `python -c code argv...` exits."""
    result = subprocess.run(
        [sys.executable, "-c", LIST_AT_EXIT + code, *argv],
        capture_output=True, text=True, env=child_env(), cwd=cwd,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stderr.splitlines()[-1].split())


def command_modules(argv, cwd) -> set[str]:
    """Modules loaded by `python -m delayplatoon argv...`, run as runpy runs it."""
    return loaded_modules(
        "import runpy; runpy.run_module('delayplatoon', run_name='__main__', alter_sys=True)",
        argv, cwd,
    )


class TestNamespace:
    def test_all_is_the_exported_names(self):
        assert dp.__all__ == [name for names in EXPORTED.values() for name in names]

    @pytest.mark.parametrize("module", list(EXPORTED))
    def test_each_name_is_the_submodule_attribute(self, module):
        sub = importlib.import_module(f"delayplatoon.{module}")
        for name in EXPORTED[module]:
            assert getattr(dp, name) is getattr(sub, name), name
            assert getattr(sub, name).__module__ == sub.__name__, name

    def test_star_import_and_dir_list_every_name(self):
        namespace = {}
        exec("from delayplatoon import *", namespace)
        assert set(dp.__all__) <= set(namespace)
        assert set(dp.__all__) | {"__version__", "analysis", "cli"} <= set(dir(dp))

    def test_a_resolved_name_is_stored_in_the_module_dict(self):
        vars(dp).pop("VehicleParams", None)
        params = dp.VehicleParams
        assert vars(dp)["VehicleParams"] is params

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            dp.no_such_name  # noqa: B018


class TestImportFootprint:
    def test_import_loads_no_submodule_and_not_numpy(self, tmp_path):
        loaded = loaded_modules("import delayplatoon", [], tmp_path)
        assert "delayplatoon" in loaded
        assert not {m for m in loaded if m.startswith(("delayplatoon.", "numpy"))}

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "ext", "--hv", "1.2", "--ha", "0.25"],
            ["sweep", "sweep.csv", "dch", "--hv", "0.4", "--points", "64"],
            ["region", "region.csv", "--phi", "0.15", "--points", "16"],
        ],
        ids=["analyze", "sweep", "region"],
    )
    def test_analysis_commands_load_no_simulator_stack(self, tmp_path, argv):
        loaded = command_modules(argv, tmp_path)
        assert {f"delayplatoon.{m}" for m in ("spacing", "dynamics", "errors", "analysis")} <= loaded
        assert not loaded & {f"delayplatoon.{m}" for m in ("simulator", "scenario", "controllers", "predictor")}
        assert "configparser" not in loaded

    def test_simulate_loads_no_analysis(self, tmp_path):
        loaded = command_modules(["simulate", str(SCENARIO), "out.csv"], tmp_path)
        assert {f"delayplatoon.{m}" for m in ("scenario", "simulator", "controllers", "predictor")} <= loaded
        assert "delayplatoon.analysis" not in loaded

    def test_predict_demo_loads_neither_analysis_nor_simulator_stack(self, tmp_path):
        (tmp_path / "u.txt").write_text("0.5\n" * 15)
        loaded = command_modules(["predict-demo", "u.txt"], tmp_path)
        assert "delayplatoon.predictor" in loaded
        assert not loaded & {
            f"delayplatoon.{m}" for m in ("analysis", "simulator", "scenario", "controllers")
        }
