import contextlib
import importlib.resources
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import delayplatoon as dp
from delayplatoon import analysis, cli
from delayplatoon.cli import main, write_csv
from delayplatoon.errors import DelayGranularityError, RefinementError, ScenarioError
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


def child_env():
    """Environment for a child interpreter that imports the delayplatoon
    under test, whether or not it is installed."""
    src = str(Path(dp.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath)


def read_csv(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    return header, rows


# every numeric or flag key of MINIMAL, and the optional [sim] keys
SWEPT_KEYS = [
    ("sim", "ts"), ("sim", "horizon"), ("vehicle.0", "tau"), ("vehicle.0", "phi"),
    ("vehicle.1", "tau"), ("vehicle.1", "phi"), ("policy.1", "h_v"), ("policy.1", "h_a"),
    ("controller.1", "k_p"), ("sim", "radar_rate_hz"), ("sim", "v2v_rate_hz"),
    ("sim", "radar_hold"), ("sim", "clamp"),
]
SWEPT_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e400", "x", ""]


def with_value(text: str, section: str, key: str, value: str) -> str:
    """text with `key = value` in [section], replacing the key's line or adding one."""
    lines = text.splitlines()
    start = lines.index(f"[{section}]") + 1
    end = next((k for k in range(start, len(lines)) if lines[k].startswith("[")), len(lines))
    hit = [k for k in range(start, end) if lines[k].split("=")[0].strip() == key]
    if hit:
        lines[hit[0]] = f"{key} = {value}"
    else:
        lines.insert(start, f"{key} = {value}")
    return "\n".join(lines) + "\n"


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

    def test_sample_count_bounded(self, tmp_path, capsys):
        scn = tmp_path / "long.scn"
        scn.write_text(MINIMAL.replace("horizon = 1.0", "horizon = 1e9"))
        out = tmp_path / "out.csv"
        assert main(["simulate", str(scn), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err and not out.exists()

    def test_log_size_bounded(self, tmp_path, capsys):
        """Ten vehicles for 164,180 samples (under MAX_SAMPLES) would log
        more than 11 MAX_SAMPLES values: a usage error before any run."""
        vehicles = "".join(f"[vehicle.{i}]\ntau = 0.067\nphi = 0.15\n\n" for i in range(10))
        followers = "".join(
            f"[policy.{i}]\nkind = ext\nh_v = 1.2\nh_a = 0.25\n\n[controller.{i}]\nk_p = 0.2\n\n"
            for i in range(1, 10)
        )
        scn = tmp_path / "ten.scn"
        scn.write_text(
            "[sim]\nts = 0.01\nhorizon = 1641.79\n\n" + vehicles + followers
            + "[leader]\nsegments =\n    pulse 1.0 0.0\n"
        )
        out = tmp_path / "out.csv"
        assert main(["simulate", str(scn), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ScenarioError: ") and len(err.splitlines()) == 1
        assert "164180 samples of 67 logged columns" in err and not out.exists()

    def test_delay_longer_than_any_run_rejected(self, tmp_path, capsys):
        """phi / ts = 1e302 is rejected before any input history is built."""
        scn = tmp_path / "long_delay.scn"
        scn.write_text(with_value(MINIMAL, "vehicle.1", "phi", "1e300"))
        out = tmp_path / "out.csv"
        assert main(["simulate", str(scn), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ScenarioError: [vehicle.1]: phi / Ts = 1e+302 exceeds")
        assert len(err.splitlines()) == 1 and not out.exists()

    def test_huge_engine_lag_simulates(self, tmp_path):
        """tau = 1e200: the ZOH entries come from their series, no tau^2."""
        scn = tmp_path / "huge_tau.scn"
        scn.write_text(with_value(MINIMAL, "vehicle.1", "tau", "1e200"))
        out = tmp_path / "out.csv"
        assert main(["simulate", str(scn), str(out)]) == 0
        _, rows = read_csv(out)
        assert rows.shape[0] == 101 and np.all(np.isfinite(rows))

    def test_non_finite_history_rejected(self, tmp_path, capsys):
        scn = tmp_path / "nan.scn"
        scn.write_text(MINIMAL.replace("\n\n[policy.1]", "\nu_hist = nan\n\n[policy.1]"))
        out = tmp_path / "out.csv"
        assert main(["simulate", str(scn), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ScenarioError: [vehicle.1]") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_tiny_engine_lag_simulates(self, tmp_path):
        scn = tmp_path / "tiny_tau.scn"
        scn.write_text(with_value(MINIMAL, "vehicle.1", "tau", "1e-200"))
        out = tmp_path / "out.csv"
        assert main(["simulate", str(scn), str(out)]) == 0
        _, rows = read_csv(out)
        assert rows.shape[0] == 101 and np.all(np.isfinite(rows))

    def test_diverging_run_exits_3_without_csv(self, tmp_path, capsys):
        """k_p = k_d = 1e300 drives the follower's input to inf within 0.2 s:
        a crash (exit 3) naming the first non-finite sample, and no file."""
        text = bundled("paper_constant.scn").read_text()
        text = re.sub(r"(?m)^k_p = .*$", "k_p = 1e300", text)
        text = re.sub(r"(?m)^k_d = .*$", "k_d = 1e300", text)
        scn = tmp_path / "diverging.scn"
        scn.write_text(text)
        out = tmp_path / "out.csv"
        assert main(["simulate", str(scn), str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: RuntimeError: the run diverged: u1 = inf at t = 0.19 s")
        assert len(err.splitlines()) == 1 and not out.exists()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("bogus_key = 1\n" + MINIMAL, "File contains no section headers. file: '<string>',"
             " line: 1 'bogus_key = 1\\n'"),
            (MINIMAL.replace("[sim]\n", "[sim]\nno equals sign\n"),
             "Source contains parsing errors: '<string>' [line 3]: 'no equals sign\\n'"),
        ],
        ids=["key-before-any-section", "line-without-a-value"],
    )
    def test_parser_error_is_one_line(self, tmp_path, capsys, text, message):
        """configparser words these errors over three lines; simulate prints
        them on the one error line (found by fuzzing the bundled files)."""
        scn, out = tmp_path / "bad.scn", tmp_path / "out.csv"
        scn.write_text(text)
        assert main(["simulate", str(scn), str(out)]) == 2
        assert capsys.readouterr().err == f"error: ScenarioError: scenario parse error: {message}\n"
        assert not out.exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.scn"), str(tmp_path / "o.csv")]) == 2

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "out.csv"
        code = main(["simulate", str(bundled("paper_dch.scn")), str(out)])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "out.csv"
        result = subprocess.run(
            [sys.executable, "-m", "delayplatoon", "simulate",
             str(bundled("paper_extended.scn")), str(out)],
            capture_output=True, text=True, env=child_env(),
        )
        assert result.returncode == 0
        assert out.exists()

    @pytest.mark.parametrize("value", SWEPT_VALUES)
    @pytest.mark.parametrize("section,key", SWEPT_KEYS)
    def test_rejected_value_exits_2_located_once(self, tmp_path, capsys, section, key, value):
        scn = tmp_path / "s.scn"
        scn.write_text(with_value(MINIMAL, section, key, value))
        out = tmp_path / "out.csv"
        code = main(["simulate", str(scn), str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("error: ") and len(err.splitlines()) == 1
            assert len(re.findall(r"\[(?:sim|leader|[a-z]+\.\d+)\]", err)) <= 1, err
            assert len(re.findall(r"\(line \d+\)", err)) <= 1, err
            assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0", "1e400"])
    def test_rejected_sample_period_names_sim(self, tmp_path, capsys, value):
        scn = tmp_path / "s.scn"
        scn.write_text(with_value(MINIMAL, "sim", "ts", value))
        assert main(["simulate", str(scn), str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ScenarioError: [sim]: ")


class TestAnalyzeCommand:
    def test_affirmative(self, capsys):
        assert main(["analyze", "dch", "--hv", "0.4", "--phi", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "proper (closed form): yes" in out
        assert "string stable: yes" in out

    @pytest.mark.parametrize(
        "h_v,phi,root",
        [
            ("3000", "1000", "-0.000619061+0j"),
            ("30000", "10000", "-6.19061e-05+0j"),
            ("150000", "50000", "-1.23812e-05+0j"),
            ("300000", "100000", "-6.19061e-06+0j"),
        ],
    )
    def test_long_delay_root_check_is_certified(self, capsys, h_v, phi, root):
        """h_v = 3 phi: proper, with the rightmost root -0.619 / phi.  The
        box margin, divided by phi, keeps the chain roots 2 pi / phi apart
        out of the box, which took in thousands of them and stopped at
        the evaluation cap."""
        assert main(["analyze", "dch", "--hv", h_v, "--phi", phi]) == 0
        out = capsys.readouterr().out
        assert f"proper (root check): yes [rightmost root {root}]" in out

    def test_tiny_headway_root_check_is_certified(self, capsys):
        """h_v / phi = 1e-20: the chain roots W_1, W_2, ... of the Lambert
        function share the box with the rightmost root W_0(-phi / h_v) /
        phi.  Listed from the branches, the root check agrees with the
        closed form; the generator's seeds missed them, and the check read
        "inconclusive [RefinementError: winding count 28 != 2 roots found".
        """
        assert main(["analyze", "dch", "--hv", "1.5e-21", "--phi", "0.15"]) == 1
        out = capsys.readouterr().out
        assert "proper (closed form): no [margins=(-0.3,)]" in out
        assert "proper (root check): no [rightmost root 282.028+20.4611j]" in out
        assert out.splitlines()[-1] == "verdict: not proper, not string stable"

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

    @pytest.mark.parametrize("tau", ["1e200", "1e-200"])
    def test_extreme_engine_lag(self, capsys, tau):
        """The relative degrees come from the rows' zero pattern, so no power
        of tau over- or underflows."""
        assert main(["analyze", "dch", "--hv", "1", "--tau", tau]) == 0
        assert "relative degrees: rho=inf, rho_bar=2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["--hv", "1", "--ha", "1e8", "--phi", "0.15"], ["--hv", "2e5", "--ha", "1e12", "--phi", "1e5"]],
        ids=["ha-1e8", "ha-1e12"],
    )
    def test_low_band_of_a_large_acceleration_headway(self, capsys, argv):
        """|T| > 1 near 1/sqrt(h_a), below 1e-3 rad/s: proper, but not
        string stable."""
        assert main(["analyze", "ext", *argv]) == 1
        out = capsys.readouterr().out
        assert "proper (closed form): yes" in out
        assert "string stable: no [sweep, " in out
        assert out.splitlines()[-1] == "verdict: not string stable"

    @pytest.mark.parametrize(
        "argv,line,verdict",
        [
            (["--hv", "2.00001e11", "--ha", "2.00001e11", "--phi", "2.00001e11"],
             "string stable: inconclusive [RefinementError: peak not certified",
             "verdict: not proper"),
            (["--hv", "40", "--ha", "35", "--phi", "2e6"],
             "string stable: no [sweep, witness omega=1.13933, |T|=1.812956",
             "verdict: not proper, not string stable"),
        ],
        ids=["2.00001e11", "phi-2e6"],
    )
    def test_uncertified_sweep_follows_closed_form(self, capsys, argv, line, verdict):
        """Long tails: the cell search on [0, w_t] spans w_t phi = 2e11 and
        2.8e6 radians of phase.  The first cannot be decided within the
        point budget and is reported as inconclusive (the old log grid
        stopped at 3e-10 rad/s and read "yes"); the second has a witness
        among the first 273 points (the old sweep was inconclusive).  Either
        way the closed form's "not proper" gives the verdict, exit 1."""
        assert main(["analyze", "ext", *argv]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert "proper (closed form): no" in out
        assert any(ln.startswith(line) for ln in out.splitlines()), out
        assert out.splitlines()[-1] == verdict

    @pytest.mark.parametrize(
        "argv",
        [
            ["--hv", "0.23101297000831597", "--ha", "0.026683496156031546",
             "--phi", "0.06664844128899693"],
            ["--hv", "1.8738174228603839", "--ha", "1.7555958671075653",
             "--phi", "0.5477974412378556"],
        ],
        ids=["phi-0.067", "phi-0.55"],
    )
    def test_flat_top_near_zero_is_certified(self, capsys, argv):
        """h_v^2 = 2 h_a (to rounding) with h_a < 2 h_v phi: proper, and
        max |T| = 1 approached as omega -> 0, where D - 1 ~ omega^4 is flat.
        A 4,096-point start with a 20,000-point budget did not certify it."""
        assert main(["analyze", "ext", *argv]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "string stable: yes [sweep, " in out
        assert out.splitlines()[-1] == "verdict: proper and string stable"

    def test_uncertified_sweep_on_a_proper_tuning_exits_3(self, capsys, monkeypatch):
        """No verdict without the cell search where the closed form says
        proper and its sufficient pair fails."""
        def uncertified(*args):
            raise RefinementError("peak not certified within 20000 points")

        monkeypatch.setattr(analysis, "extended_string_stability", uncertified)
        assert main(["analyze", "ext", "--hv", "1.2", "--ha", "0.25"]) == 3
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == (
            "string stable: inconclusive [RefinementError: peak not certified within 20000 points]"
        )
        assert err == "error: RefinementError: peak not certified within 20000 points\n"

    def test_overflowing_top_frequency_gives_a_finite_peak(self, capsys):
        """10 / h_v overflows at h_v = 1e-320, which the cell search never
        needs: it spans [0, w_t], w_t = sqrt(2), and stops at its first
        witness of 1 / |1 - w^2 e^{i w phi}| > 1 instead of refining the
        peak (6.74729856 at 0.988966)."""
        assert main(["analyze", "ext", "--hv", "1e-320", "--ha", "1"]) == 1
        out = capsys.readouterr().out
        assert "string stable: no [sweep, witness omega=0.972272, |T|=6.58501" in out
        policy = dp.SpacingPolicy(dp.PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1e-320, h_a=1.0)
        params = dp.VehicleParams(0.067, 0.15)
        verdict = dp.is_string_stable(policy, params)
        magnitude = dp.transfer_magnitude(policy, params, verdict.witness_omega)
        assert verdict.peak_magnitude == magnitude > 1.0 + analysis.SWEEP_TOL

    @pytest.mark.parametrize(
        "argv,omega",
        [
            (["--hv", "0.20183505447551872", "--ha", "3.0445314849422877e-05",
              "--phi", "0.29195701276220537"], 6633.82),
            (["--hv", "0.2", "--ha", "5e-4", "--phi", "0.3"], 403.127),
        ],
        ids=["w-6634", "w-403"],
    )
    def test_peak_beyond_the_sweep_grid_is_a_witness(self, capsys, argv, omega):
        """|T| exceeds 1 near h_v / h_a, past the sweep grid's top of max(10
        / h_v, 20 pi / phi), about 216 rad/s here, so the grid-limited
        verdict read "yes".  The cell search spans [0, w_t] and prints a
        witness that transfer_magnitude confirms."""
        assert main(["analyze", "ext", *argv]) == 1
        out = capsys.readouterr().out
        assert f"string stable: no [sweep, witness omega={omega:.6g}, |T|=" in out
        assert out.splitlines()[-1] == "verdict: not proper, not string stable"
        values = dict(zip(argv[::2], map(float, argv[1::2])))
        policy = dp.SpacingPolicy(
            dp.PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=values["--hv"], h_a=values["--ha"]
        )
        params = dp.VehicleParams(0.067, values["--phi"])
        verdict = dp.is_string_stable(policy, params)
        assert verdict.witness_omega > analysis.default_sweep_grid(policy, params)[-1]
        magnitude = dp.transfer_magnitude(policy, params, verdict.witness_omega)
        assert verdict.peak_magnitude == magnitude > 1.0 + analysis.SWEEP_TOL
        assert analysis.string_stability_sweep(policy, params).stable  # the grid's range only

    def test_improper_tuning_below_one_on_all_frequencies_reads_yes(self, capsys):
        """Not proper, yet |T(i w)| <= 1 + 1e-9 on all of [0, inf), which the
        cell search proves: it reads "string stable: yes" next to "verdict:
        not proper".  Its poles lie in the right half-plane, so it has no
        finite L2 gain; this stays "yes" until a "not proper => not string
        stable" gate decides such tunings before the frequency response."""
        assert main(["analyze", "ext", "--hv", "0.24", "--ha", "1.6e-4", "--phi", "0.088"]) == 1
        out = capsys.readouterr().out
        assert "proper (closed form): no" in out
        assert "string stable: yes [sweep, peak omega=0, |T|=1]" in out
        assert out.splitlines()[-1] == "verdict: not proper"

    @pytest.mark.parametrize("h_a", ["1e20", "1e28", "1e305"])
    def test_huge_acceleration_headway_is_never_a_root_check_no(self, h_a):
        """At h_a >= 1e20 the internal roots sit near +-i h_a^{-1/2}: within
        rounding of the axis (1e20), or too small for the generator's
        eigenvalues to seed them (1e28, 1e305).  The root check says it
        cannot answer, and the closed form decides.  |T| exceeds 1 near
        1/sqrt(h_a), which the sweep grid reaches: not string stable."""
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "delayplatoon",
             "analyze", "ext", "--hv", "1", "--ha", h_a],
            capture_output=True, text=True, env=child_env(),
        )
        assert result.returncode == 1, result.stderr
        assert result.stderr == ""
        assert "proper (closed form): yes" in result.stdout
        root_line = [ln for ln in result.stdout.splitlines() if ln.startswith("proper (root check)")]
        assert len(root_line) == 1
        assert root_line[0].startswith("proper (root check): inconclusive [")
        assert "string stable: no [sweep, " in result.stdout
        assert result.stdout.splitlines()[-1] == "verdict: not string stable"


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

    def test_overflowing_boundary_rejected(self, tmp_path, capsys):
        out = tmp_path / "region.csv"
        assert main(["region", str(out), "--phi", "1e-300", "--points", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

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

    def test_overflowing_extended_magnitude_is_zero_without_warning(self, tmp_path, capsys):
        """h_a w^2 overflows at h_a = 1e305: |T| is 0 there, with no warning;
        the peak lies near 1/sqrt(h_a), and analyze says not string stable."""
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(out), "ext", "--hv", "1", "--ha", "1e305"]) == 0
        assert main(["analyze", "ext", "--hv", "1", "--ha", "1e305"]) == 1
        stdout, err = capsys.readouterr()
        assert err == ""
        assert stdout.splitlines()[-1] == "verdict: not string stable"
        _, rows = read_csv(out)
        assert rows[-1, 1] == 0.0 and rows[:, 1].max() > 1.0

    def test_default_grid_ascends_below_1e_3(self, tmp_path, capsys):
        """max(10/h_v, 20 pi/phi) < 1e-3: the omega column still ascends."""
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(out), "dch", "--hv", "1e5", "--phi", "1e5", "--points", "4"]) == 0
        _, rows = read_csv(out)
        assert np.all(np.diff(rows[:, 0]) > 0.0) and rows[-1, 0] < 1e-3

    @pytest.mark.parametrize(
        "argv", [["dch", "--hv", "1e-310"], ["ext", "--hv", "1e-310", "--ha", "0.5"]],
        ids=["dch", "ext"],
    )
    def test_overflowing_top_frequency_is_capped(self, tmp_path, capsys, argv):
        """10 / h_v overflows to inf: the default grid stops at 1e308 and
        every row and the peak stay finite."""
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(out)] + argv) == 0
        stdout, err = capsys.readouterr()
        assert err == "" and "nan" not in stdout and "inf" not in stdout
        _, rows = read_csv(out)
        assert np.all(np.isfinite(rows)) and rows[-1, 0] == 1e308

    @pytest.mark.parametrize(
        "argv,floor",
        [
            (["dch", "--hv", "0.011", "--phi", "0.165", "--points", "16"], 17.4),
            (["dch", "--hv", "0.05", "--phi", "100"], 5315.0),
        ],
        ids=["16-points", "phi-100"],
    )
    def test_peak_between_grid_points_is_found(self, tmp_path, capsys, argv, floor):
        """Peaks that the grid steps over: the golden-section search of each
        grid maximum printed 1.136 and 45.1 here."""
        assert main(["sweep", str(tmp_path / "sweep.csv")] + argv) == 0
        assert float(capsys.readouterr().out.split("peak_magnitude = ")[1]) >= floor

    def test_overflowing_magnitude_is_not_nan(self, tmp_path, capsys):
        """At phi = 0, h_a w^2 = inf makes 1/T = (-inf, nan): |T| = 0 there,
        and the peak stays at the grid's first point."""
        argv = ["ext", "--hv", "1", "--ha", "1e305", "--phi", "0", "--omega-max", "1e200",
                "--points", "64"]
        assert main(["sweep", str(tmp_path / "sweep.csv")] + argv) == 0
        assert capsys.readouterr().out == (
            "peak_omega = 0.001, peak_magnitude = 1.0000000000000001e-299\n"
        )

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["sweep", "<out>", "dch", "--hv", "1e-310", "--phi", "2", "--points", "8"], 0),
            (["analyze", "ext", "--hv", "1e-310", "--ha", "1", "--phi", "550"], 1),
            (["sweep", "<out>", "dch", "--hv", "1", "--phi", "550", "--omega-max", "1e308",
              "--points", "8"], 2),
        ],
        ids=["default-grid", "analyze", "custom-range"],
    )
    def test_overflowing_phase_never_reads_nan(self, tmp_path, capsys, argv, code):
        """sin(w phi) is NaN once w phi overflows: the default grid stops at
        1e308 / phi, and a custom range that reaches past it is rejected."""
        out = tmp_path / "sweep.csv"
        assert main([str(out) if a == "<out>" else a for a in argv]) == code
        stdout, err = capsys.readouterr()
        assert "nan" not in stdout
        if code == 2:
            assert "omega-max phi" in err and not out.exists()
        elif argv[0] == "sweep":
            _, rows = read_csv(out)
            assert err == "" and np.all(np.isfinite(rows)) and math.isfinite(rows[-1, 0] * 2.0)
        else:
            assert "string stable: no [sweep, witness omega=" in stdout

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

    def test_points_honoured_on_default_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(out), "dch", "--hv", "0.4", "--points", "100"]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 100


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

    LARGE_POSITION = ["--q0", "1e6", "--v0", "20", "--a0", "0.3"]

    def test_large_position_is_exact(self, tmp_path, capsys):
        """The discrepancy at q of about 1e6, 2.3e-10, is 2 ulps of q: the
        check is relative to each component's magnitude."""
        f = tmp_path / "u.txt"
        f.write_text("0.5\n" * 15)
        assert main(["predict-demo", str(f), *self.LARGE_POSITION]) == 0
        assert "max discrepancy: 2.3283064365386963e-10" in capsys.readouterr().out

    def test_perturbed_predictor_is_inexact(self, tmp_path, monkeypatch):
        f = tmp_path / "u.txt"
        f.write_text("0.5\n" * 15)
        predict = cli.predict

        def perturbed(*args):
            x = predict(*args)
            return dp.VehicleState(x.q * (1.0 + 1e-9), x.v * (1.0 + 1e-9), x.a * (1.0 + 1e-9))

        monkeypatch.setattr(cli, "predict", perturbed)
        assert main(["predict-demo", str(f), *self.LARGE_POSITION]) == 1
        assert main(["predict-demo", str(f)]) == 1

    def test_overflowing_state_exits_3_without_warning(self, tmp_path, capsys):
        """Ts = 1e139 over 14 samples overflows Phi^d: a runtime error with
        one line and no RuntimeWarning (warnings are errors here)."""
        f = tmp_path / "u.txt"
        f.write_text("0.0\n" * 13 + "-1e+31\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["predict-demo", str(f), "--ts=1e+139", "--phi=1.4000000000000001e+140"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: RuntimeError: the state overflowed float64 (q must be finite)\n"
        )

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
            (["sweep", "<missing>", "dch", "--hv", "0.4"], 3),  # unwritable output
            (["analyze", "dch", "--hv", "nan"], 2),
            (["sweep", "<out>", "dch", "--hv", "0.4", "--omega-min", "1", "--points", "1"], 2),
            (["region", "<missing>", "--phi", "0.15"], 3),  # unwritable output
            (["predict-demo", "<nan-inputs>"], 2),
            (["predict-demo", "<inputs>", "--q0", "nan"], 2),
            (["sweep", "<out>", "dch", "--hv", "0.4", "--omega-min", "1", "--omega-max", "inf"], 2),
        ],
    )
    def test_failures_never_exit_1(self, tmp_path, capsys, argv, code):
        paths = {"<out>": tmp_path / "o.csv", "<missing>": tmp_path / "missing" / "o.csv",
                 "<inputs>": tmp_path / "u.txt", "<nan-inputs>": tmp_path / "nan.txt"}
        paths["<inputs>"].write_text("0.0\n" * 15)
        paths["<nan-inputs>"].write_text("0.0\n" * 14 + "nan\n")
        argv = [str(paths.get(a, a)) for a in argv]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert code == 3 or not paths["<out>"].exists()

    @pytest.mark.parametrize(
        "argv,verdict",
        [
            pytest.param(  # more Lambert-W branches reach the box than are listed
                ["analyze", "dch", "--hv", "1e-300", "--phi", "0.15"],
                "verdict: not proper, not string stable", id="argv0",
            ),
            pytest.param(  # the same, 1 / h_v near the largest float
                ["analyze", "dch", "--hv", "1e-308", "--phi", "0.15"],
                "verdict: not proper, not string stable", id="argv1",
            ),
            pytest.param(  # the pseudospectral generator overflows
                ["analyze", "ext", "--hv", "1e300", "--ha", "1e-300"],
                "verdict: not proper", id="argv2",
            ),
            pytest.param(  # 1 / h_v overflows to inf, and so does -phi / h_v
                ["analyze", "dch", "--hv", "1e-320", "--phi", "0.15"],
                "verdict: not proper, not string stable", id="argv3",
            ),
            pytest.param(  # no seed converges to the unstable pair near +-1e-14 i
                ["analyze", "ext", "--hv", "0.1", "--ha", "1e28", "--phi", "0.15"],
                "verdict: not proper, not string stable", id="argv4",
            ),
        ],
    )
    def test_uncertified_root_check_follows_closed_form(self, capsys, argv, verdict):
        """A root search that cannot answer is reported as inconclusive, and
        the exit code follows the closed-form verdicts: here not proper."""
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert "proper (closed form): no" in out
        assert "proper (root check): inconclusive [" in out
        assert out.splitlines()[-1] == verdict


def magnitudes(signed: bool = True):
    """Ordinary values, zero, and m * 10^e with |e| up to 300."""
    sign = st.sampled_from([-1.0, 1.0] if signed else [1.0])
    return st.one_of(
        st.floats(-10.0 if signed else 0.0, 10.0),
        st.builds(lambda s, m, e: s * m * 10.0 ** e, sign, st.floats(1.0, 9.99), st.integers(-300, 300)),
    )


@st.composite
def scenario_texts(draw):
    """Scenario text for 1-4 vehicles and every policy, with gains, lags,
    headways, rates, states, histories and leader amplitudes from 1e-300 to
    1e300, holds and clamp, and horizons of at most 2 s."""
    positive = magnitudes(signed=False).filter(lambda x: x > 0.0)
    ts = draw(st.sampled_from([0.005, 0.01, 0.02]))
    sections = {"sim": {
        "ts": ts, "horizon": draw(st.floats(0.001, 2.0)), "radar_hold": draw(st.booleans()),
        "v2v_hold": draw(st.booleans()), "clamp": draw(st.booleans()),
        "radar_rate_hz": draw(positive), "v2v_rate_hz": draw(positive),
    }}
    nv = draw(st.integers(1, 4))
    for i in range(nv):
        sections[f"vehicle.{i}"] = {
            "tau": draw(positive), "phi": draw(st.integers(0, 20)) * ts,
            "q0": -20.0 * i + draw(magnitudes()), "v0": draw(magnitudes()),
            "a0": draw(magnitudes()), "u_hist": draw(magnitudes()),
        }
    for i in range(1, nv):
        kind = draw(st.sampled_from(["constant", "dch", "ext"]))
        policy = {"kind": kind, "standstill": draw(magnitudes(signed=False))}
        gains = {"k_p": draw(positive)}
        if kind != "constant":
            policy["h_v"] = draw(positive)
        if kind == "ext":
            policy["h_a"] = draw(positive)
        else:
            gains["k_d"] = draw(positive)
        if kind == "constant":  # k_dd < k_p k_d is the stable range
            gains["k_dd"] = draw(st.one_of(
                positive, st.floats(0.05, 0.95).map(lambda r: r * gains["k_p"] * gains["k_d"])))
        sections[f"policy.{i}"], sections[f"controller.{i}"] = policy, gains
    segments = []
    for _ in range(draw(st.integers(1, 3))):
        duration = draw(st.floats(0.01, 2.0))
        if draw(st.booleans()):
            segments.append(f"cruise {duration} {draw(magnitudes())} {draw(positive)}")
        else:
            segments.append(f"pulse {duration} {draw(magnitudes())}")
    lines = []
    for name, keys in sections.items():
        lines += [f"[{name}]"] + [f"{k} = {v}" for k, v in keys.items()] + [""]
    lines += ["[leader]", "segments ="] + [f"    {s}" for s in segments]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(scenario_texts())
def test_simulate_exit_code_contract(text):
    """simulate on any scenario exits 0, 2 or 3, never 1, with no traceback
    and no RuntimeWarning; on 0 it writes a CSV of finite numbers, on 2 or 3
    no file and one error line."""
    assert_simulate_contract(text)


BUNDLED = ["paper_constant.scn", "paper_dch.scn", "paper_extended.scn"]
CORRUPT_NUMBERS = ["nan", "inf", "-inf", "-1", "0", "1e400", "1e-300", "1e300", "x", "", "1.2.3"]


@st.composite
def malformed_scenarios(draw):
    """A bundled scenario after one to three edits: a line deleted,
    duplicated or swapped with another, a number corrupted (to a value of
    CORRUPT_NUMBERS or by one changed digit), an unknown key inserted, or a
    whole section removed."""
    lines = bundled(draw(st.sampled_from(BUNDLED))).read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "swap", "number", "key", "section"]))
        if edit == "delete" and len(lines) > 1:
            del lines[k]
        elif edit == "duplicate":
            lines.insert(k, lines[k])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        elif edit == "number":
            numbers = list(re.finditer(r"-?\d+(\.\d*)?(e-?\d+)?", lines[k]))
            if numbers:
                hit = draw(st.sampled_from(numbers))
                digit = draw(st.sampled_from("0123456789"))
                at = draw(st.integers(hit.start(), hit.end() - 1))
                changed = (hit.group()[: at - hit.start()] + digit
                           + hit.group()[at - hit.start() + 1:])
                value = draw(st.sampled_from(CORRUPT_NUMBERS + [changed]))
                lines[k] = lines[k][: hit.start()] + value + lines[k][hit.end():]
        elif edit == "key":
            lines.insert(k, "bogus_key = 1")
        elif edit == "section":
            heads = [i for i, line in enumerate(lines) if line.startswith("[")] + [len(lines)]
            h = draw(st.integers(0, len(heads) - 2))
            del lines[heads[h]:heads[h + 1]]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(malformed_scenarios())
def test_malformed_bundled_scenarios_keep_the_exit_code_contract(text):
    """simulate on a damaged bundled scenario exits 0, 2 or 3, never 1, with
    no traceback and no RuntimeWarning, and on 2 or 3 with one error line
    and no CSV."""
    assert_simulate_contract(text)


def assert_simulate_contract(text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        scn, out = Path(tmp) / "s.scn", Path(tmp) / "out.csv"
        scn.write_text(text)
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(["simulate", str(scn), str(out)])
        err = stderr.getvalue()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], err
        assert code in (0, 2, 3), err
        if code == 0:
            assert err == ""
            _, rows = read_csv(out)
            assert np.all(np.isfinite(rows))
        else:
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err
            assert "Traceback" not in err and not out.exists()


def policy_values():
    """0, negative values, 1e-320 to 1e308, inf and nan, as argv text; three
    in four draws are positive, so that most argvs pass validation."""
    positive = st.builds(
        lambda m, e: repr(m * 10.0 ** e), st.floats(1.0, 9.99), st.integers(-320, 307)
    )
    special = st.sampled_from(["0", "-1", "-1e-300", "inf", "-inf", "nan", "1e308", "1e-320"])
    return st.one_of(special, positive, positive, positive)


@st.composite
def analysis_argvs(draw):
    """analyze or sweep argv: any policy kind, every headway, lag and delay
    from policy_values, 2 to 64 points and optional sweep bounds."""
    command = draw(st.sampled_from(["analyze", "sweep"]))
    argv = [command] + (["<out>"] if command == "sweep" else [])
    argv.append(draw(st.sampled_from(["constant", "dch", "ext"])))
    for flag in ("--hv", "--ha", "--tau", "--phi"):
        if flag in ("--hv", "--ha") or draw(st.booleans()):  # the headways default to 0
            argv.append(f"{flag}={draw(policy_values())}")  # "=": argparse reads -1e-300 as a flag
    if command == "sweep":
        argv += ["--points", str(draw(st.integers(2, 64)))]
        for flag in ("--omega-min", "--omega-max"):
            if draw(st.booleans()):
                argv.append(f"{flag}={draw(policy_values())}")
    return argv


@settings(max_examples=200, deadline=None)
@given(analysis_argvs())
def test_analysis_exit_code_contract(argv):
    """analyze and sweep exit 0, 1, 2 or 3, 1 only after a `verdict: not`
    line, with no traceback and no RuntimeWarning (warnings are errors
    here); a sweep that exits 0 writes finite rows and prints no nan, and
    one that exits 2 or 3 writes no file."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main([str(out) if a == "<out>" else a for a in argv])
        printed, err = stdout.getvalue(), stderr.getvalue()
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err and "Warning" not in err, err
        if code == 1:
            assert printed.splitlines()[-1].startswith("verdict: not"), printed
        if argv[0] == "sweep" and code == 0:
            assert "nan" not in printed
            _, rows = read_csv(out)
            assert np.all(np.isfinite(rows))
        if code in (2, 3):
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err
            assert not out.exists()


@st.composite
def region_argvs(draw):
    """region argv and no input file: one to three --phi from
    policy_values and an optional --points up to 10,000."""
    argv = ["region", "<out>"]
    argv += [f"--phi={draw(policy_values())}" for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        argv.append(f"--points={draw(st.integers(-2, 10_000))}")
    return argv, None


@st.composite
def predict_demo_argvs(draw):
    """predict-demo argv and its input file: Ts, tau and phi from
    policy_values or, mostly, a valid Ts with phi = k Ts (k <= 30); an
    initial state from magnitudes; k inputs, or one fewer or one more, each
    from magnitudes or, one in ten, non-finite or not a number."""
    ts = draw(st.one_of(st.sampled_from([0.005, 0.01, 0.02]).map(repr), policy_values()))
    k = draw(st.integers(0, 30))
    multiple = repr(k * float(ts))
    argv = ["predict-demo", "<inputs>", f"--ts={ts}",
            f"--phi={draw(st.one_of(st.just(multiple), st.just(multiple), policy_values()))}"]
    for flag in ("--tau", "--q0", "--v0", "--a0"):
        if draw(st.booleans()):
            value = draw(policy_values() if flag == "--tau" else magnitudes().map(repr))
            argv.append(f"{flag}={value}")
    bad = st.sampled_from(["nan", "inf", "-inf", "x"])
    token = st.integers(0, 9).flatmap(lambda r: bad if r == 0 else magnitudes().map(repr))
    n = max(0, k + draw(st.sampled_from([0, 0, 0, -1, 1])))
    return argv, "".join(f"{draw(token)}\n" for _ in range(n))


@settings(max_examples=300, deadline=None)
@given(st.one_of(region_argvs(), predict_demo_argvs()))
@example((["predict-demo", "<inputs>", "--ts=1e+139", "--phi=1.4000000000000001e+140"],
          "0.0\n" * 13 + "-1e+31\n"))
def test_region_and_predict_demo_exit_code_contract(case):
    """region and predict-demo exit 0, 1, 2 or 3, with no traceback and no
    RuntimeWarning (warnings are errors here); 1 only from predict-demo
    after its printed discrepancy; a region that exits 0 writes finite
    rows; on 2 or 3 one error line and no file written."""
    argv, inputs = case
    with tempfile.TemporaryDirectory() as tmp:
        out, path = Path(tmp) / "out.csv", Path(tmp) / "u.txt"
        if inputs is not None:
            path.write_text(inputs)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main([{"<out>": str(out), "<inputs>": str(path)}.get(a, a) for a in argv])
        printed, err = stdout.getvalue(), stderr.getvalue()
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err and "Warning" not in err, err
        if code == 1:
            assert argv[0] == "predict-demo", printed
            assert printed.splitlines()[-1].startswith("max discrepancy: "), printed
        if argv[0] == "region" and code == 0:
            _, rows = read_csv(out)
            assert np.all(np.isfinite(rows))
        if code in (2, 3):
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err
            assert sorted(p.name for p in Path(tmp).iterdir()) == ([] if inputs is None else ["u.txt"])


def csv_text(header: str, rows, footer: str = "") -> str:
    """The README's CSV format: a header line, then one line per row with
    every value at 17 significant digits."""
    lines = [header] + [",".join(f"{x:.17g}" for x in row) for row in rows]
    return "\n".join(lines + ([footer] if footer else [])) + "\n"


def trajectory_writer(tmp_path):
    # two vehicles, two samples; values that need all 17 digits, signed zero
    # and extreme exponents
    vals = iter([0.1, -0.0, 1 / 3, 2.5e-300, -7.0, 1e22, math.pi, -1e-7, 0.3] * 3)
    cols = {name: np.array([[next(vals) for _ in range(nc)] for _ in range(2)])
            for name, nc in (("q", 2), ("v", 2), ("a", 2), ("u", 2), ("e", 1),
                             ("delta", 1), ("delta_ref", 1))}
    log = dp.TrajectoryLog(t=np.array([0.0, 0.01]), ts=0.01, **cols)
    write_csv(log, tmp_path / "out.csv")
    rows = [
        [log.t[k]]
        + [getattr(log, c)[k, i] for i in range(2) for c in "qvau"]
        + [log.e[k, 0], log.delta[k, 0], log.delta_ref[k, 0]]
        for k in range(2)
    ]
    return csv_text("t,q0,v0,a0,u0,q1,v1,a1,u1,e1,delta1,deltaref1", rows)


def region_writer(phis):
    def write(tmp_path):
        argv = ["region", str(tmp_path / "out.csv"), "--points", "5"]
        assert main(argv + [a for phi in phis for a in ("--phi", repr(phi))]) == 0
        curves = [analysis.stability_region_boundary(phi, 5) for phi in phis]
        if len(phis) == 1:
            return csv_text("hv_over_ha,one_over_ha", curves[0])
        rows = [(phi, x, y) for phi, curve in zip(phis, curves) for x, y in curve]
        return csv_text("phi,hv_over_ha,one_over_ha", rows)
    return write


def sweep_writer(tmp_path):
    assert main(["sweep", str(tmp_path / "out.csv"), "dch", "--hv", "0.29", "--points", "6"]) == 0
    policy = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.29)
    params = dp.VehicleParams(tau=0.067, phi=0.15)
    grid = analysis.default_sweep_grid(policy, params, 6)
    peak_w, peak_m, mags = analysis.refined_peak(policy, params, grid)
    footer = f"# peak_omega = {peak_w:.17g}, peak_magnitude = {peak_m:.17g}"
    return csv_text("omega,magnitude", zip(grid, mags), footer)


@pytest.mark.parametrize(
    "writer",
    [trajectory_writer, region_writer([0.15]), region_writer([0.1, 0.2]), sweep_writer],
    ids=["simulate", "region-1", "region-2", "sweep"],
)
def test_csv_bytes_follow_the_17_digit_format(tmp_path, capsys, writer):
    expected = writer(tmp_path)
    assert (tmp_path / "out.csv").read_text() == expected


@pytest.mark.parametrize("name", ["paper_constant.scn", "paper_dch.scn", "paper_extended.scn"])
def test_csv_bytes_equal_savetxt(tmp_path, monkeypatch, name):
    """The one-format writer gives np.savetxt's bytes on every bundled run."""
    tables = []
    write_table = cli._write_table
    monkeypatch.setattr(cli, "_write_table", lambda *args: tables.append(args) or write_table(*args))
    assert main(["simulate", str(bundled(name)), str(tmp_path / "out.csv")]) == 0
    (_, table, header), = tables
    with open(tmp_path / "savetxt.csv", "w") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", header=header, comments="")
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def test_csv_blocks_equal_savetxt(tmp_path):
    """Tables longer than one block of rows, with a footer, keep np.savetxt's bytes."""
    rng = np.random.default_rng(5)
    rows = 2 * cli._CSV_BLOCK_ROWS + 3
    table = rng.standard_normal((rows, 3)) * 10.0 ** rng.uniform(-300, 300, (rows, 3))
    table[0] = (-0.0, 0.1, 1e22)
    cli._write_table(tmp_path / "out.csv", table, "x,y,z", "# end")
    with open(tmp_path / "savetxt.csv", "w") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", header="x,y,z", footer="# end", comments="")
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def test_import_loads_neither_scipy_nor_numba():
    result = subprocess.run(
        [sys.executable, "-c",
         "import delayplatoon, sys; "
         "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'numba'))))"],
        capture_output=True, text=True, check=True, env=child_env(),
    )
    assert result.stdout.strip() == "[]"
