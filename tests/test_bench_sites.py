"""The call sites that perfbench/tracer.py wraps exist in the package.

The traced benchmark run replaces each (module, attribute) of tracer.SITES
with a recording wrapper; a refactor that drops one of those names would
break that run with an AttributeError.
"""

import importlib.util
from pathlib import Path

import pytest

import delayplatoon as dp
from delayplatoon import analysis, cli
from delayplatoon.spacing import PolicyKind

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_site_is_callable():
    tracer = load_tracer()
    assert tracer.SITES
    for module, attr, name, _ in tracer.SITES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_root_check_calls_rightmost_root_through_the_module(monkeypatch):
    """The traced analysis.rightmost_root metrics count one call per
    properness_root_check, for either headway policy."""
    calls = []
    search = analysis.rightmost_root
    monkeypatch.setattr(analysis, "rightmost_root", lambda qp: calls.append(qp) or search(qp))
    params = dp.VehicleParams(0.067, 0.15)
    for policy in (
        dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.4),
        dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1.2, h_a=0.25),
    ):
        before = len(calls)
        analysis.properness_root_check(policy, params)
        assert len(calls) == before + 1
    assert [len(qp.a) for qp in calls] == [2, 3]


def test_sweeps_call_refined_peak_through_the_module(monkeypatch, tmp_path, capsys):
    """The traced analysis.refined_peak metrics count one call per
    string_stability_sweep and per `sweep` command, for either headway
    policy."""
    from delayplatoon.cli import main

    calls = []
    refine = analysis.refined_peak
    monkeypatch.setattr(
        analysis, "refined_peak", lambda *args: calls.append(args[0].kind) or refine(*args)
    )
    params = dp.VehicleParams(0.067, 0.15)
    for policy in (
        dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.4),
        dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1.2, h_a=0.25),
    ):
        before = len(calls)
        analysis.string_stability_sweep(policy, params)
        assert len(calls) == before + 1
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", out, "dch", "--hv", "0.4", "--points", "64"]) == 0
    assert main(["sweep", out, "ext", "--hv", "1.2", "--ha", "0.25", "--points", "64"]) == 0
    assert calls == [PolicyKind.DELAYED_CONSTANT_HEADWAY, PolicyKind.DELAYED_EXTENDED_HEADWAY] * 2


def test_run_calls_the_traced_model_sites_through_the_module(monkeypatch):
    """The traced dynamics.discretize and predictor.prediction_weights
    metrics count one call of each per constant-policy follower in each
    simulator.run: the leader and the headway followers take their
    coefficients from dynamics.zoh_coefficients and their own recursion."""
    from delayplatoon import simulator

    calls = []
    discretize, weights = simulator.discretize, simulator.prediction_weights
    monkeypatch.setattr(
        simulator, "discretize", lambda *args: calls.append("discretize") or discretize(*args)
    )
    monkeypatch.setattr(
        simulator, "prediction_weights", lambda *args: calls.append("weights") or weights(*args)
    )
    params = dp.VehicleParams(0.067, 0.15)
    C, D, E = (
        dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT),
        dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, h_v=0.4),
        dp.SpacingPolicy(PolicyKind.DELAYED_EXTENDED_HEADWAY, h_v=1.2, h_a=0.25),
    )
    gains = {
        C: dp.ControllerGains(k_p=1.0, k_d=3.0, k_dd=1.0),
        D: dp.ControllerGains(k_p=0.2, k_d=0.6866),
        E: dp.ControllerGains(k_p=0.2),
    }
    for followers in [(), (C,), (D,), (E,), (C, D, E), (D, C, E), (E, E, C), (C, C, D)]:
        calls.clear()
        specs = tuple(dp.ControllerSpec(p, gains[p], ego=params, predecessor=params) for p in followers)
        vehicles = (dp.VehicleSetup(params),) * (len(followers) + 1)
        config = dp.PlatoonConfig(vehicles, followers, specs, 0.01, 0.5)
        simulator.run(config, dp.LeaderProfile((dp.LeaderSegment.pulse(0.5, 0.1),)))
        assert calls == ["discretize", "weights"] * followers.count(C)


SCENARIO = Path(dp.__file__).resolve().parent / "scenarios" / "paper_extended.scn"
# the subcommand that calls each traced cli site
CLI_SITE_ARGV = {
    "discretize": ["predict-demo", "<inputs>"],
    "predict": ["predict-demo", "<inputs>"],
    "is_proper": ["analyze", "ext", "--hv", "1.2", "--ha", "0.25"],
    "is_string_stable": ["analyze", "ext", "--hv", "1.2", "--ha", "0.25"],
    "parse_scenario": ["simulate", str(SCENARIO), "<out>"],
    "write_csv": ["simulate", str(SCENARIO), "<out>"],
    "cmd_simulate": ["simulate", str(SCENARIO), "<out>"],
    "cmd_analyze": ["analyze", "dch", "--hv", "0.4"],
    "cmd_sweep": ["sweep", "<out>", "dch", "--hv", "0.4", "--points", "64"],
    "cmd_region": ["region", "<out>", "--phi", "0.15", "--points", "16"],
    "cmd_predict_demo": ["predict-demo", "<inputs>"],
}


@pytest.mark.parametrize(
    "attr", [attr for module, attr, _, _ in load_tracer().SITES if module.__name__ == "delayplatoon.cli"]
)
def test_cli_sites_see_the_commands_calls(monkeypatch, tmp_path, capsys, attr):
    """Each traced cli site, patched as the tracer patches it, sees the call
    of the subcommand that uses it when that runs through cli.main."""
    calls = []
    original = getattr(cli, attr)
    monkeypatch.setattr(cli, attr, lambda *args: calls.append(attr) or original(*args))
    (tmp_path / "u.txt").write_text("0.5\n" * 15)
    paths = {"<inputs>": str(tmp_path / "u.txt"), "<out>": str(tmp_path / "out.csv")}
    assert cli.main([paths.get(a, a) for a in CLI_SITE_ARGV[attr]]) == 0
    assert calls == [attr]
