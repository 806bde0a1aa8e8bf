"""The call sites that perfbench/tracer.py wraps exist in the package.

The traced benchmark run replaces each (module, attribute) of tracer.SITES
with a recording wrapper; a refactor that drops one of those names would
break that run with an AttributeError.
"""

import importlib.util
from pathlib import Path

import delayplatoon as dp
from delayplatoon import analysis
from delayplatoon.spacing import PolicyKind

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_site_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
