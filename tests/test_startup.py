"""The package namespace is lazy, and each subcommand imports only what it runs.

`import delayplatoon` loads no submodule; a name is imported on its first
access.  `analyze` on the DCH or constant policy, and on an extended tuning
that the closed-form sufficient pair proves string stable, and `simulate` of
a platoon without a constant-policy follower load no numpy, and run the same
where numpy cannot be imported, as does the certified root search for any
degree.  Each test lists the modules a
fresh interpreter has loaded when it is done, or compares what it prints,
so none measures time.
"""

import importlib
import math
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
SCENARIOS = Path(dp.__file__).resolve().parent / "scenarios"
SCENARIO = SCENARIOS / "paper_extended.scn"
HEADWAY_SCENARIOS = ["paper_dch.scn", "paper_extended.scn"]


# names every module loaded, on the last line of stderr, when the child exits
LIST_AT_EXIT = (
    "import atexit, sys; "
    "atexit.register(lambda: print(' '.join(sorted(sys.modules)), file=sys.stderr)); "
)


RUN_MAIN = "import runpy; runpy.run_module('delayplatoon', run_name='__main__', alter_sys=True)"

# a meta-path finder that refuses numpy, so the child runs as if it were not installed
WITHOUT_NUMPY = (
    "import sys\n"
    "class NoNumpy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.partition('.')[0] == 'numpy':\n"
    "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
    "sys.meta_path.insert(0, NoNumpy())\n"
)


def loaded_modules(code: str, argv, cwd, exit_code: int = 0) -> set[str]:
    """Modules a fresh interpreter has loaded when `python -c code argv...`
    exits, with exit_code."""
    result = subprocess.run(
        [sys.executable, "-c", LIST_AT_EXIT + code, *argv],
        capture_output=True, text=True, env=child_env(), cwd=cwd,
    )
    assert result.returncode == exit_code, result.stderr
    return set(result.stderr.splitlines()[-1].split())


def command_modules(argv, cwd, exit_code: int = 0) -> set[str]:
    """Modules loaded by `python -m delayplatoon argv...`, run as runpy runs it."""
    return loaded_modules(RUN_MAIN, argv, cwd, exit_code)


def numpy_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m.partition(".")[0] == "numpy"}


def run_command(argv, cwd, without_numpy: bool = False) -> subprocess.CompletedProcess:
    """`python -m delayplatoon argv...` in a fresh interpreter, run as runpy
    runs it, with numpy importable or not."""
    code = (WITHOUT_NUMPY if without_numpy else "") + RUN_MAIN
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=child_env(), cwd=cwd,
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

    @pytest.mark.parametrize(
        ("argv", "exit_code"),
        [
            (["analyze", "dch", "--hv", "0.4", "--phi", "0.15"], 0),
            (["analyze", "dch", "--hv", "0.2", "--phi", "0.15"], 1),
            (["analyze", "constant"], 0),
            (["analyze", "dch"], 2),
            (["analyze", "dch", "--hv", "nan"], 2),
            (["analyze", "ext", "--hv", "1", "--ha", "0.4", "--phi", "0.15"], 0),
        ],
        ids=["dch-stable", "dch-unstable", "constant", "dch-no-hv", "dch-nan", "ext-sufficient"],
    )
    def test_dch_and_constant_analyze_load_no_numpy(self, tmp_path, argv, exit_code):
        loaded = command_modules(argv, tmp_path, exit_code)
        assert "delayplatoon.analysis" in loaded
        assert not numpy_modules(loaded)

    def test_analysis_modules_load_no_numpy(self, tmp_path):
        loaded = loaded_modules(
            "import delayplatoon.cli, delayplatoon.analysis, delayplatoon.dynamics, "
            "delayplatoon.spacing", [], tmp_path,
        )
        assert not numpy_modules(loaded)

    def test_simulate_loads_no_analysis(self, tmp_path):
        loaded = command_modules(["simulate", str(SCENARIO), "out.csv"], tmp_path)
        assert {f"delayplatoon.{m}" for m in ("scenario", "simulator", "controllers", "predictor")} <= loaded
        assert "delayplatoon.analysis" not in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", str(SCENARIO), "out.csv"],
            ["analyze", "ext", "--hv", "1.2", "--ha", "0.25"],
            ["sweep", "sweep.csv", "dch", "--hv", "0.4", "--points", "64"],
            ["region", "region.csv", "--phi", "0.15", "--points", "16"],
            ["predict-demo", "u.txt"],
        ],
        ids=["simulate", "analyze", "sweep", "region", "predict-demo"],
    )
    def test_no_command_loads_dataclasses(self, tmp_path, argv):
        """Records are plain classes on _record.Record: no command pays for
        generating and compiling data-class methods at import."""
        (tmp_path / "u.txt").write_text("0.5\n" * 15)
        assert "dataclasses" not in command_modules(argv, tmp_path)

    @pytest.mark.parametrize("name", HEADWAY_SCENARIOS)
    def test_headway_simulate_loads_no_numpy(self, tmp_path, name):
        """A platoon without a constant-policy follower steps, checks and
        writes its CSV on floats."""
        loaded = command_modules(["simulate", str(SCENARIOS / name), "out.csv"], tmp_path)
        assert "delayplatoon.simulator" in loaded
        assert not numpy_modules(loaded)

    def test_constant_policy_simulate_loads_numpy(self, tmp_path):
        """Its prediction weights are numpy's, whose rounding the constant
        policy's logged tracking error is."""
        argv = ["simulate", str(SCENARIOS / "paper_constant.scn"), "out.csv"]
        assert numpy_modules(command_modules(argv, tmp_path))

    def test_predict_demo_loads_neither_analysis_nor_simulator_stack(self, tmp_path):
        (tmp_path / "u.txt").write_text("0.5\n" * 15)
        loaded = command_modules(["predict-demo", "u.txt"], tmp_path)
        assert "delayplatoon.predictor" in loaded
        assert not loaded & {
            f"delayplatoon.{m}" for m in ("analysis", "simulator", "scenario", "controllers")
        }


class TestWithoutNumpy:
    """A child in which numpy cannot be imported: `analyze` on the DCH and
    constant policies, and on extended tunings inside the closed-form
    sufficient pair (h_a >= 2 h_v phi, h_v^2 >= 2 h_a), prints the same
    bytes with the same exit code, `simulate` of a platoon without a
    constant-policy follower writes the same CSV bytes too, and a command
    that needs numpy fails as a runtime error (exit 3), among them an
    extended tuning whose string-stability verdict needs the cell search
    and the simulation of a constant-policy follower."""

    @pytest.mark.parametrize(
        ("argv", "exit_code"),
        [
            (["analyze", "dch", "--hv", "0.4", "--phi", "0.15"], 0),
            (["analyze", "dch", "--hv", "0.2", "--phi", "0.15"], 1),  # not string stable
            (["analyze", "dch", "--hv", "0.05", "--phi", "0.15", "--tau", "0.2"], 1),  # not proper
            (["analyze", "dch", "--hv", repr(math.e * 0.15), "--phi", "0.15"], 0),  # double root
            (["analyze", "dch", "--hv", "1e-300"], 1),  # root check inconclusive
            (["analyze", "dch", "--hv", "1e300", "--phi", "3"], 0),
            (["analyze", "dch", "--hv", "0.5", "--phi", "0"], 0),
            (["analyze", "constant", "--tau", "0.3"], 0),
            (["analyze", "dch", "--hv", "nan"], 2),
            (["analyze", "ext", "--hv", "1", "--ha", "0.4", "--phi", "0.15"], 0),
            (["analyze", "ext", "--hv", "1", "--ha", "0.4", "--phi", "0"], 0),
            (["analyze", "ext", "--hv", "3e15", "--ha", "1e30"], 0),  # real pair near -4e-16
            (["analyze", "ext", "--hv", "2e15", "--ha", "1e30"], 0),  # near-double pair at -1e-15
            (["analyze", "ext", "--hv", "0.7986497819171271", "--ha", "0.22953249406101414",
              "--phi", "0.1281767307815797"], 0),  # on the double-root curve
        ],
        ids=["stable", "unstable", "improper", "double-root", "inconclusive", "huge-hv",
             "no-delay", "constant", "nan", "ext", "ext-no-delay", "ext-huge-ha",
             "ext-huge-ha-double", "ext-double-root"],
    )
    def test_analyze_prints_the_same(self, tmp_path, argv, exit_code):
        bare = run_command(argv, tmp_path, without_numpy=True)
        normal = run_command(argv, tmp_path)
        assert normal.returncode == exit_code, normal.stderr
        assert (bare.returncode, bare.stdout, bare.stderr) == (
            normal.returncode, normal.stdout, normal.stderr)

    @pytest.mark.parametrize(
        "call",
        [
            "rightmost_root(QuasiPolynomial((1.0, 3.0, 3.0, 1.0), (0.5,), 0.1))",  # no seeds
            "rightmost_root(QuasiPolynomial((81.87593433407136, 11.138911333363279, 1.0),"
            " (3.306375739372413, 12.045629447760332), 5.025251915295323))",  # pair the seeds miss
            "properness_root_check(SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY,"
            " h_v=0.6931607802462655, h_a=0.1752277099416815),"
            " VehicleParams(0.067, 0.11445344078030294))",  # double root moved by Schröder
        ],
        ids=["degree-3", "subdivided", "double-root"],
    )
    def test_root_search_certifies(self, tmp_path, call):
        """The box subdivision and Schröder's step run on math and cmath
        alone, and give the same root."""
        code = (
            "from delayplatoon.analysis import QuasiPolynomial, properness_root_check, rightmost_root\n"
            "from delayplatoon.dynamics import VehicleParams\n"
            "from delayplatoon.spacing import PolicyKind, SpacingPolicy\n"
            f"print(repr({call}))\n"
        )
        bare = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY + code],
                              capture_output=True, text=True, env=child_env(), cwd=tmp_path)
        assert bare.returncode == 0, bare.stderr
        normal = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, env=child_env(), cwd=tmp_path)
        assert bare.stdout == normal.stdout
        assert "RefinementError" not in bare.stdout and bare.stdout.strip()

    @pytest.mark.parametrize("name", HEADWAY_SCENARIOS)
    def test_headway_simulate_writes_the_same(self, tmp_path, name):
        (tmp_path / "bare").mkdir()
        (tmp_path / "normal").mkdir()
        argv = ["simulate", str(SCENARIOS / name), "out.csv"]
        bare = run_command(argv, tmp_path / "bare", without_numpy=True)
        normal = run_command(argv, tmp_path / "normal")
        assert normal.returncode == 0, normal.stderr
        assert (bare.returncode, bare.stdout, bare.stderr) == (
            normal.returncode, normal.stdout, normal.stderr)
        csv = (tmp_path / "bare" / "out.csv").read_bytes()
        assert csv == (tmp_path / "normal" / "out.csv").read_bytes()
        assert csv.count(b"\n") == 1202

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", str(SCENARIOS / "paper_constant.scn"), "out.csv"],
            ["sweep", "sweep.csv", "dch", "--hv", "0.4", "--points", "64"],
            ["region", "region.csv", "--phi", "0.15", "--points", "16"],
            ["predict-demo", "u.txt"],
            ["analyze", "ext", "--hv", "1.2", "--ha", "0.25"],
        ],
        ids=["simulate", "sweep", "region", "predict-demo", "analyze-ext"],
    )
    def test_commands_that_need_numpy_exit_3(self, tmp_path, argv):
        (tmp_path / "u.txt").write_text("0.5\n" * 15)
        result = run_command(argv, tmp_path, without_numpy=True)
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith("error: ModuleNotFoundError: No module named 'numpy'")
        assert not any(tmp_path.glob("*.csv"))
