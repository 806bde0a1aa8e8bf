"""Scenario files: plain-text INI sections describing a platoon run.

Schema (all units SI; unknown sections or keys are rejected):

    [sim]          ts, horizon, and optional flags radar_hold, v2v_hold,
                   clamp plus radar_rate_hz / v2v_rate_hz overrides
    [vehicle.I]    tau, phi, q0, v0, a0, optional u_hist (constant
                   pre-history value); I = 0..N contiguous, 0 is the leader
    [policy.I]     kind (constant | dch | ext), h_v, h_a, standstill
    [controller.I] k_p, k_d, k_dd (those the policy's law uses)
    [leader]       segments: one per line, either
                   "cruise DURATION V_REF GAIN" or "pulse DURATION AMPLITUDE"

Every rejected value raises ScenarioError("[section]: ... (line N)") naming
the section and line once; a phi that is not a multiple of ts raises
DelayGranularityError naming the vehicle.  _SCHEMA is the one table of keys
and defaults, _read the one place that reads raw values, and _located the
one place that tags a constructor's ValueError with its section and line.
"""

from __future__ import annotations

import configparser
import contextlib
import re
from pathlib import Path

from ._record import Record
from .controllers import ControllerGains, ControllerSpec
from .dynamics import InputHistory, VehicleParams, VehicleState, delay_steps
from .errors import DelayGranularityError, ScenarioError
from .simulator import (
    LeaderProfile,
    LeaderSegment,
    MeasurementOptions,
    PlatoonConfig,
    VehicleSetup,
)
from .spacing import PolicyKind, SpacingPolicy

__all__ = ["Scenario", "parse_scenario", "load_scenario_text"]

# Keys per section kind.  A type marks a required key read as that type;
# any other value is the default, and its type says how to read the key.
_SCHEMA = {
    "sim": {
        "ts": float, "horizon": float, "radar_hold": False, "v2v_hold": False,
        "clamp": False, "radar_rate_hz": 16.7, "v2v_rate_hz": 25.0,
    },
    "vehicle": {"tau": float, "phi": float, "q0": 0.0, "v0": 0.0, "a0": 0.0, "u_hist": 0.0},
    "policy": {"kind": str, "h_v": 0.0, "h_a": 0.0, "standstill": 0.0},
    "controller": {"k_p": float, "k_d": 0.0, "k_dd": 0.0},
    "leader": {"segments": str},
}

_SEGMENTS = {
    "cruise": ("cruise DURATION V_REF GAIN", LeaderSegment.cruise),
    "pulse": ("pulse DURATION AMPLITUDE", LeaderSegment.pulse),
}


class Scenario(Record):
    config: PlatoonConfig
    profile: LeaderProfile


class _LineIndex:
    """Maps (section, key) to the 1-based line number for error messages."""

    def __init__(self, text: str):
        self.lines: dict[tuple[str, str], int] = {}
        section = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            m = re.match(r"\[([^\]]+)\]", stripped)
            if m:
                section = m.group(1).strip()
                self.lines[(section, "")] = lineno
                continue
            m = re.match(r"([^=:#;]+)[=:]", stripped)
            if m and section is not None:
                self.lines[(section, m.group(1).strip().lower())] = lineno

    def where(self, section: str, key: str = "") -> str:
        lineno = self.lines.get((section, key))
        return f" (line {lineno})" if lineno is not None else ""


def _read(parser, index: _LineIndex, section: str) -> dict:
    """The section's values by _SCHEMA, defaults filled in."""
    if not parser.has_section(section):
        raise ScenarioError(f"missing required section [{section}]")
    schema = _SCHEMA[section.partition(".")[0]]
    for key in parser.options(section):
        if key not in schema:
            raise ScenarioError(f"[{section}]: unknown key {key!r}{index.where(section, key)}")
    values = {}
    for key, default in schema.items():
        required = isinstance(default, type)
        if not parser.has_option(section, key):
            if required:
                raise ScenarioError(
                    f"[{section}]: missing required key {key!r}{index.where(section)}"
                )
            values[key] = default
            continue
        kind = default if required else type(default)
        raw = parser.get(section, key)
        try:
            values[key] = parser.getboolean(section, key) if kind is bool else kind(raw)
        except ValueError:
            noun = "a boolean" if kind is bool else "a number"
            raise ScenarioError(
                f"[{section}]: {key} = {raw!r} is not {noun}{index.where(section, key)}"
            ) from None
    return values


@contextlib.contextmanager
def _located(index: _LineIndex, section: str):
    """Report a constructor's ValueError as a ScenarioError naming the section
    and line; ScenarioError and DelayGranularityError pass unchanged."""
    try:
        yield
    except (ScenarioError, DelayGranularityError):
        raise
    except ValueError as exc:
        raise ScenarioError(f"[{section}]: {exc}{index.where(section)}") from None


def _parse_segments(text_value: str) -> LeaderProfile:
    segments = []
    for line in filter(None, (ln.strip() for ln in text_value.splitlines())):
        kind, *values = line.split()
        try:
            if kind.lower() not in _SEGMENTS:
                raise ValueError(f"unknown kind {kind!r}, expected one of {sorted(_SEGMENTS)}")
            form, make = _SEGMENTS[kind.lower()]
            if len(values) != form.count(" "):
                raise ValueError(f"the segment form is {form!r}")
            segments.append(make(*map(float, values)))
        except ValueError as exc:
            raise ValueError(f"bad leader segment {line!r}: {exc}") from None
    return LeaderProfile(tuple(segments))


def load_scenario_text(text: str) -> Scenario:
    """Parse scenario text; see parse_scenario for the file-path variant."""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    index = _LineIndex(text)
    try:
        parser.read_string(text)
    except configparser.Error as exc:  # its messages span lines: one line here
        raise ScenarioError(f"scenario parse error: {' '.join(str(exc).split())}") from None

    numbered = {}
    for name in parser.sections():
        m = re.fullmatch(r"(vehicle|policy|controller)\.(\d+)", name)
        if m:
            numbered[name] = (m.group(1), int(m.group(2)))
        elif name not in ("sim", "leader"):
            raise ScenarioError(f"unknown section [{name}]{index.where(name)}")
    vehicle_ids = sorted(i for kind, i in numbered.values() if kind == "vehicle")
    if not vehicle_ids:
        raise ScenarioError("no [vehicle.N] sections found")
    n_vehicles = len(vehicle_ids)
    if vehicle_ids != list(range(n_vehicles)):
        raise ScenarioError(f"vehicle indices must be contiguous from 0, got {vehicle_ids}")
    for name, (kind, ref) in numbered.items():
        if kind != "vehicle" and not 1 <= ref < n_vehicles:
            raise ScenarioError(
                f"[{name}]: references vehicle {ref}, which is not a follower{index.where(name)}"
            )

    sim = _read(parser, index, "sim")
    with _located(index, "sim"):  # ts once, before any vehicle's delay uses it
        delay_steps(VehicleParams(tau=1.0, phi=0.0), sim["ts"])
    vehicles = []
    for i in range(n_vehicles):
        section = f"vehicle.{i}"
        v = _read(parser, index, section)
        with _located(index, section):
            params = VehicleParams(tau=v["tau"], phi=v["phi"])
            try:
                depth = delay_steps(params, sim["ts"])
            except DelayGranularityError as exc:
                raise DelayGranularityError(f"vehicle {i}: {exc}") from None
            vehicles.append(VehicleSetup(
                params,
                VehicleState(v["q0"], v["v0"], v["a0"]),
                InputHistory.constant(v["u_hist"], depth, sim["ts"]),
            ))

    controllers = []
    for i in range(1, n_vehicles):
        p = _read(parser, index, f"policy.{i}")
        c = _read(parser, index, f"controller.{i}")
        with _located(index, f"policy.{i}"):
            policy = SpacingPolicy(PolicyKind.parse(p["kind"]), p["h_v"], p["h_a"], p["standstill"])
        with _located(index, f"controller.{i}"):
            controllers.append(ControllerSpec(
                policy=policy,
                gains=ControllerGains(c["k_p"], c["k_d"], c["k_dd"]),
                ego=vehicles[i].params,
                predecessor=vehicles[i - 1].params,
            ))

    with _located(index, "leader"):
        profile = _parse_segments(_read(parser, index, "leader")["segments"])

    with _located(index, "sim"):
        config = PlatoonConfig(
            vehicles=tuple(vehicles),
            policies=tuple(spec.policy for spec in controllers),
            controllers=tuple(controllers),
            ts=sim["ts"],
            horizon=sim["horizon"],
            measurement=MeasurementOptions(
                radar_hold=sim["radar_hold"],
                radar_rate_hz=sim["radar_rate_hz"],
                v2v_hold=sim["v2v_hold"],
                v2v_rate_hz=sim["v2v_rate_hz"],
            ),
            clamp_reverse=sim["clamp"],
        )
    return Scenario(config, profile)


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario file."""
    text = Path(path).read_text()
    return load_scenario_text(text)
