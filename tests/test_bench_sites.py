"""The call sites that perfbench/tracer.py wraps exist in the package.

The traced benchmark run replaces each (module, attribute) of tracer.SITES
with a recording wrapper; a refactor that drops one of those names would
break that run with an AttributeError.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_site_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SITES
    for module, attr, name, _ in tracer.SITES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"
