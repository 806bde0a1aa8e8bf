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
