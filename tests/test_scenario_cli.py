import importlib.resources
import math

import numpy as np
import pytest

import delayplatoon as dp
from delayplatoon.cli import main
from delayplatoon.errors import DelayGranularityError, ScenarioError
from delayplatoon.scenario import load_scenario_text
from delayplatoon.spacing import PolicyKind

MINIMAL = """
[sim]
ts = 0.01
horizon = 1.0

[vehicle.0]
tau = 0.067
phi = 0.15

[vehicle.1]
tau = 0.067
phi = 0.15

[policy.1]
kind = ext
h_v = 1.2
h_a = 0.25

[controller.1]
k_p = 0.2

[leader]
segments =
    pulse 1.0 0.0
"""


def bundled(name: str):
    return importlib.resources.files("delayplatoon") / "scenarios" / name


def read_csv(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    return header, rows


class TestScenarioParsing:
    def test_minimal_scenario(self):
        scenario = load_scenario_text(MINIMAL)
        assert len(scenario.config.vehicles) == 2
        assert scenario.config.policies[0].kind is PolicyKind.DELAYED_EXTENDED_HEADWAY
        assert scenario.profile.total_duration == 1.0

    @pytest.mark.parametrize(
        "name", ["paper_constant.scn", "paper_dch.scn", "paper_extended.scn"]
    )
    def test_bundled_scenarios_parse(self, name):
        scenario = dp.parse_scenario(bundled(name))
        assert scenario.config.ts == 0.01
        assert scenario.config.vehicles[0].params.tau == 0.067
        assert scenario.config.vehicles[0].params.phi == 0.15

    def test_unknown_key_rejected_with_line_number(self):
        text = MINIMAL.replace("ts = 0.01", "ts = 0.01\nwarp = 9")
        with pytest.raises(ScenarioError, match=r"warp.*line 4"):
            load_scenario_text(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError, match="unknown section"):
            load_scenario_text(MINIMAL + "\n[telemetry]\nrate = 1\n")

    def test_missing_controller_section(self):
        text = MINIMAL.replace("[controller.1]\nk_p = 0.2\n", "")
        with pytest.raises(ScenarioError, match=r"controller\.1"):
            load_scenario_text(text)

    def test_non_contiguous_vehicles(self):
        text = MINIMAL.replace("[vehicle.1]", "[vehicle.2]").replace(
            "[policy.1]", "[policy.2]"
        ).replace("[controller.1]", "[controller.2]")
        with pytest.raises(ScenarioError, match="contiguous"):
            load_scenario_text(text)

    def test_policy_for_undefined_vehicle(self):
        with pytest.raises(ScenarioError, match="not a follower"):
            load_scenario_text(MINIMAL + "\n[policy.7]\nkind = ext\n")

    def test_bad_number(self):
        with pytest.raises(ScenarioError, match="not a number"):
            load_scenario_text(MINIMAL.replace("k_p = 0.2", "k_p = fast"))

    def test_bad_segment(self):
        with pytest.raises(ScenarioError, match="segment"):
            load_scenario_text(MINIMAL.replace("pulse 1.0 0.0", "pulse 1.0"))

    def test_granularity_error_names_vehicle(self):
        text = MINIMAL.replace("phi = 0.15\n\n[policy.1]", "phi = 0.155\n\n[policy.1]")
        with pytest.raises(DelayGranularityError, match="vehicle 1"):
            load_scenario_text(text)

    def test_invalid_gains_reported(self):
        with pytest.raises(ScenarioError, match=r"controller\.1"):
            load_scenario_text(MINIMAL.replace("k_p = 0.2", "k_p = -0.2"))

    def test_constant_pre_history(self):
        text = MINIMAL.replace("tau = 0.067\nphi = 0.15\n\n[policy.1]",
                               "tau = 0.067\nphi = 0.15\nu_hist = 0.3\n\n[policy.1]")
        scenario = load_scenario_text(text)
        assert scenario.config.vehicles[1].history.samples == (0.3,) * 15


class TestSimulateCommand:
    def test_bundled_extended_meets_tracking_bound(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["simulate", str(bundled("paper_extended.scn")), str(out)]) == 0
        header, rows = read_csv(out)
        assert header[:9] == ["t", "q0", "v0", "a0", "u0", "q1", "v1", "a1", "u1"]
        assert header[9:] == ["e1", "delta1", "deltaref1"]
        e = rows[:, header.index("e1")]
        assert np.max(np.abs(e)) <= 5e-3

    def test_csv_round_trips_exactly(self, tmp_path):
        scenario = dp.parse_scenario(bundled("paper_dch.scn"))
        log = dp.run(scenario.config, scenario.profile)
        out = tmp_path / "out.csv"
        assert main(["simulate", str(bundled("paper_dch.scn")), str(out)]) == 0
        header, rows = read_csv(out)
        assert np.array_equal(rows[:, 0], log.t)
        assert np.array_equal(rows[:, header.index("q1")], log.q[:, 1])
        assert np.array_equal(rows[:, header.index("e1")], log.e[:, 0])

    def test_zero_scenario_writes_zero_body(self, tmp_path):
        scn = tmp_path / "zero.scn"
        scn.write_text(MINIMAL)
        out = tmp_path / "out.csv"
        assert main(["simulate", str(scn), str(out)]) == 0
        _, rows = read_csv(out)
        assert np.all(rows[:, 1:] == 0.0)

    def test_granularity_failure_exit_code(self, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text(MINIMAL.replace("phi = 0.15\n\n[policy.1]", "phi = 0.155\n\n[policy.1]"))
        assert main(["simulate", str(scn), str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert "DelayGranularityError" in err and "vehicle 1" in err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.scn"), str(tmp_path / "o.csv")]) == 2

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "out.csv"
        code = main(["simulate", str(bundled("paper_dch.scn")), str(out)])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        import subprocess, sys

        out = tmp_path / "out.csv"
        result = subprocess.run(
            [sys.executable, "-m", "delayplatoon", "simulate",
             str(bundled("paper_extended.scn")), str(out)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert out.exists()


class TestAnalyzeCommand:
    def test_affirmative(self, capsys):
        assert main(["analyze", "dch", "--hv", "0.4", "--phi", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "proper (closed form): yes" in out
        assert "string stable: yes" in out

    def test_string_unstable(self, capsys):
        assert main(["analyze", "dch", "--hv", "0.25", "--phi", "0.15"]) == 1
        out = capsys.readouterr().out
        assert "string stable: no" in out
        assert "proper (closed form): yes" in out

    def test_extended_sweep_path(self, capsys):
        code = main(["analyze", "ext", "--hv", "1.2", "--ha", "0.25", "--phi", "0.15"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep" in out
        assert "witness omega" in out

    def test_constant_policy(self, capsys):
        assert main(["analyze", "constant", "--phi", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "always proper" in out


class TestRegionCommand:
    def test_single_phi_endpoints(self, tmp_path):
        out = tmp_path / "region.csv"
        assert main(["region", str(out), "--phi", "0.15", "--points", "400"]) == 0
        header, rows = read_csv(out)
        assert header == ["hv_over_ha", "one_over_ha"]
        assert rows[0] == pytest.approx((0.0, 0.0), abs=1e-9)
        assert rows[-1][0] == pytest.approx(math.pi / 0.3, abs=1e-9)
        assert abs(rows[-1][1]) <= 1e-9

    def test_two_points(self, tmp_path):
        out = tmp_path / "region.csv"
        assert main(["region", str(out), "--phi", "0.15", "--points", "2"]) == 0
        _, rows = read_csv(out)
        assert rows.shape == (2, 2)

    def test_family_is_nested(self, tmp_path):
        out = tmp_path / "region.csv"
        code = main(
            ["region", str(out), "--phi", "0.1", "--phi", "0.15", "--phi", "0.2",
             "--points", "100"]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["phi", "hv_over_ha", "one_over_ha"]
        by_phi = {phi: rows[rows[:, 0] == phi][:, 1:] for phi in (0.1, 0.15, 0.2)}
        assert np.all(by_phi[0.2][1:, 0] < by_phi[0.15][1:, 0])
        assert np.all(by_phi[0.15][1:-1, 1] < by_phi[0.1][1:-1, 1])


class TestSweepCommand:
    def test_constant_policy_flat(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(out), "constant", "--phi", "0.15"]) == 0
        _, rows = read_csv(out)
        assert np.all(rows[:, 1] == 1.0)

    def test_unstable_dch_reports_peak(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(out), "dch", "--hv", "0.29", "--phi", "0.15"]) == 0
        stdout = capsys.readouterr().out
        assert "peak_magnitude" in stdout
        summary = [ln for ln in out.read_text().splitlines() if ln.startswith("#")][0]
        peak = float(summary.split("peak_magnitude = ")[1])
        assert peak > 1.0

    def test_dc_gain_at_smallest_omega(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(out), "dch", "--hv", "0.4", "--phi", "0.15"]) == 0
        _, rows = read_csv(out)
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-6)

    def test_custom_range(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", str(out), "ext", "--hv", "1.2", "--ha", "0.25", "--phi", "0.15",
             "--omega-min", "0.1", "--omega-max", "10.0", "--points", "64"]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 64
        assert rows[0, 0] == pytest.approx(0.1) and rows[-1, 0] == pytest.approx(10.0)


class TestPredictDemoCommand:
    def test_zero_inputs(self, tmp_path, capsys):
        f = tmp_path / "u.txt"
        f.write_text("0.0\n" * 15)
        assert main(["predict-demo", str(f)]) == 0
        assert "max discrepancy: 0" in capsys.readouterr().out

    def test_random_inputs_exact(self, tmp_path, rng):
        f = tmp_path / "u.txt"
        f.write_text("\n".join(str(x) for x in rng.normal(size=15)))
        assert main(["predict-demo", str(f), "--q0", "1.0", "--v0", "-2.0"]) == 0

    def test_non_integer_delay_rejected(self, tmp_path):
        f = tmp_path / "u.txt"
        f.write_text("0.0\n" * 15)
        assert main(["predict-demo", str(f), "--ts", "0.02"]) == 2

    def test_wrong_sample_count(self, tmp_path):
        f = tmp_path / "u.txt"
        f.write_text("0.0\n" * 7)
        assert main(["predict-demo", str(f)]) == 2


class TestExitCodeContract:
    @pytest.mark.parametrize(
        "argv,code",
        [
            (["analyze", "dch", "--hv", "1e-300"], 3),  # root search fails: runtime
            (["analyze", "dch", "--hv", "nan"], 2),
            (["sweep", "<out>", "dch", "--hv", "0.4", "--omega-min", "1", "--points", "1"], 2),
            (["analyze", "dch", "--hv", "1e-308"], 3),  # p overflows on the contour
        ],
    )
    def test_failures_never_exit_1(self, tmp_path, capsys, argv, code):
        argv = [str(tmp_path / "o.csv") if a == "<out>" else a for a in argv]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_import_loads_neither_scipy_nor_numba():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(dp.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c",
         "import delayplatoon, sys; "
         "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'numba'))))"],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert result.stdout.strip() == "[]"
