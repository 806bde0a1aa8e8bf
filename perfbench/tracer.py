"""Span recorder for the traced benchmark run.

The recorder replaces a public package function, at every module namespace
that calls it, with a wrapper that records one span per call: name, start,
end, parent span, optional attributes and the exception type if it raised.
Spans stay in memory and are written out when the run ends.  The wrappers
are installed only for the traced phase and removed afterwards, so the
untraced phases run the package exactly as shipped.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

from delayplatoon import analysis, cli, predictor, simulator, spacing


def _run_attrs(config, profile):
    nv = len(config.vehicles)
    return {"nv": nv, "vsteps": nv * (int(round(config.horizon / config.ts)) + 1)}


def _csv_attrs(log, path):
    return {"rows": len(log.t)}


# (module namespace that holds the call site, attribute, span name, attrs)
SITES = (
    (simulator, "run", "simulator.run", _run_attrs),
    (simulator, "discretize", "dynamics.discretize", None),
    (cli, "discretize", "dynamics.discretize", None),
    (simulator, "prediction_weights", "predictor.prediction_weights", None),
    (predictor, "prediction_weights", "predictor.prediction_weights", None),
    (cli, "predict", "predictor.predict", None),
    (analysis, "l2_string_stability_check", "analysis.l2_string_stability_check", None),
    (analysis, "properness_root_check", "analysis.properness_root_check", None),
    (analysis, "rightmost_root", "analysis.rightmost_root", None),
    (analysis, "string_stability_sweep", "analysis.string_stability_sweep", None),
    (analysis, "refined_peak", "analysis.refined_peak", None),
    (analysis, "stability_region_boundary", "analysis.stability_region_boundary", None),
    (spacing, "is_proper", "spacing.is_proper", None),
    (cli, "is_proper", "spacing.is_proper", None),
    (spacing, "is_string_stable", "spacing.is_string_stable", None),
    (cli, "is_string_stable", "spacing.is_string_stable", None),
    (cli, "parse_scenario", "scenario.parse_scenario", None),
    (cli, "write_csv", "cli.write_csv", _csv_attrs),
    (cli, "cmd_simulate", "cli.main.simulate", None),
    (cli, "cmd_analyze", "cli.main.analyze", None),
    (cli, "cmd_sweep", "cli.main.sweep", None),
    (cli, "cmd_region", "cli.main.region", None),
    (cli, "cmd_predict_demo", "cli.main.predict-demo", None),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in SITES))


class SpanRecorder:
    """In-memory spans: [name, start, end, parent index, attrs, error]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent,
                    attrs(*args, **kwargs) if attrs else None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every call site for the duration of the block."""
        saved = []
        try:
            for module, attr, name, attrs in SITES:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, attrs))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, self time in ms, errors raised."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "self_ms": 0.0, "errors": 0})
        for idx, (name, start, end, _, _, error) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_ms"] += (end - start - child_time[idx]) * 1e3
            entry["errors"] += error is not None
        return dict(out)

    def rate(self, name: str, key: str, select=lambda attrs: True) -> float:
        """Sum of attrs[key] over the spans of name per second spent in them."""
        amount = busy = 0.0
        for span_name, start, end, _, attrs, _ in self.spans:
            if span_name == name and select(attrs):
                amount += attrs[key]
                busy += end - start
        return amount / busy if busy > 0.0 else 0.0

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "attrs": a, "error": err}
            for n, s, e, p, a, err in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)
