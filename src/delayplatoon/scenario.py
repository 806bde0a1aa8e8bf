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
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass
from pathlib import Path

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

_SIM_KEYS = {
    "ts", "horizon", "radar_hold", "v2v_hold", "clamp",
    "radar_rate_hz", "v2v_rate_hz",
}
_VEHICLE_KEYS = {"tau", "phi", "q0", "v0", "a0", "u_hist"}
_POLICY_KEYS = {"kind", "h_v", "h_a", "standstill"}
_CONTROLLER_KEYS = {"k_p", "k_d", "k_dd"}
_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


@dataclass(frozen=True)
class Scenario:
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


def _get_float(parser, index, section: str, key: str, default=None) -> float:
    if not parser.has_option(section, key):
        if default is None:
            raise ScenarioError(f"[{section}] is missing required key {key!r}{index.where(section)}")
        return default
    raw = parser.get(section, key)
    try:
        return float(raw)
    except ValueError:
        raise ScenarioError(
            f"[{section}] {key} = {raw!r} is not a number{index.where(section, key)}"
        ) from None


def _get_bool(parser, index, section: str, key: str, default: bool = False) -> bool:
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key).strip().lower()
    if raw in _BOOL_TRUE:
        return True
    if raw in _BOOL_FALSE:
        return False
    raise ScenarioError(
        f"[{section}] {key} = {raw!r} is not a boolean{index.where(section, key)}"
    )


def _check_keys(parser, index, section: str, allowed: set[str]):
    for key in parser.options(section):
        if key not in allowed:
            raise ScenarioError(
                f"[{section}] has unknown key {key!r}{index.where(section, key)}"
            )


def _parse_segments(parser, index, text_value: str) -> LeaderProfile:
    segments = []
    for lineno, line in enumerate(text_value.splitlines()):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0].lower()
        where = index.where("leader", "segments")
        try:
            if kind == "cruise":
                if len(tokens) != 4:
                    raise ScenarioError(
                        f"cruise segment needs 'cruise DURATION V_REF GAIN', got {line!r}{where}"
                    )
                segments.append(
                    LeaderSegment.cruise(float(tokens[1]), float(tokens[2]), float(tokens[3]))
                )
            elif kind == "pulse":
                if len(tokens) != 3:
                    raise ScenarioError(
                        f"pulse segment needs 'pulse DURATION AMPLITUDE', got {line!r}{where}"
                    )
                segments.append(LeaderSegment.pulse(float(tokens[1]), float(tokens[2])))
            else:
                raise ScenarioError(f"unknown leader segment kind {kind!r} in {line!r}{where}")
        except ValueError as exc:
            raise ScenarioError(f"bad leader segment {line!r}: {exc}{where}") from None
    if not segments:
        raise ScenarioError("[leader] segments is empty")
    return LeaderProfile(tuple(segments))


def load_scenario_text(text: str) -> Scenario:
    """Parse scenario text; see parse_scenario for the file-path variant."""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    index = _LineIndex(text)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"scenario parse error: {exc}") from None

    sections = set(parser.sections())
    vehicle_ids = []
    for name in sections:
        m = re.fullmatch(r"vehicle\.(\d+)", name)
        if m:
            vehicle_ids.append(int(m.group(1)))
            continue
        if re.fullmatch(r"(policy|controller)\.(\d+)", name):
            continue
        if name not in ("sim", "leader"):
            raise ScenarioError(f"unknown section [{name}]{index.where(name)}")
    for required in ("sim", "leader"):
        if required not in sections:
            raise ScenarioError(f"missing required section [{required}]")
    if not vehicle_ids:
        raise ScenarioError("no [vehicle.N] sections found")
    n_vehicles = max(vehicle_ids) + 1
    if sorted(vehicle_ids) != list(range(n_vehicles)):
        raise ScenarioError(
            f"vehicle indices must be contiguous from 0, got {sorted(vehicle_ids)}"
        )
    for name in sections:
        m = re.fullmatch(r"(policy|controller)\.(\d+)", name)
        if m:
            ref = int(m.group(2))
            if ref < 1 or ref >= n_vehicles:
                raise ScenarioError(
                    f"[{name}] references vehicle {ref}, which is not a follower"
                    f"{index.where(name)}"
                )

    _check_keys(parser, index, "sim", _SIM_KEYS)
    ts = _get_float(parser, index, "sim", "ts")
    horizon = _get_float(parser, index, "sim", "horizon")
    measurement = MeasurementOptions(
        radar_hold=_get_bool(parser, index, "sim", "radar_hold"),
        radar_rate_hz=_get_float(parser, index, "sim", "radar_rate_hz", 16.7),
        v2v_hold=_get_bool(parser, index, "sim", "v2v_hold"),
        v2v_rate_hz=_get_float(parser, index, "sim", "v2v_rate_hz", 25.0),
    )
    clamp = _get_bool(parser, index, "sim", "clamp")

    vehicles = []
    for i in range(n_vehicles):
        section = f"vehicle.{i}"
        _check_keys(parser, index, section, _VEHICLE_KEYS)
        try:
            params = VehicleParams(
                tau=_get_float(parser, index, section, "tau"),
                phi=_get_float(parser, index, section, "phi"),
            )
            depth = delay_steps(params, ts)
        except DelayGranularityError as exc:
            raise DelayGranularityError(f"vehicle {i}: {exc}") from None
        except ValueError as exc:
            raise ScenarioError(f"[{section}]: {exc}{index.where(section)}") from None
        q0, v0, a0, u_hist = (
            _get_float(parser, index, section, key, 0.0)
            for key in ("q0", "v0", "a0", "u_hist")
        )
        try:
            state = VehicleState(q0, v0, a0)
            history = InputHistory.constant(u_hist, depth, ts)
        except ValueError as exc:
            raise ScenarioError(f"[{section}]: {exc}{index.where(section)}") from None
        vehicles.append(VehicleSetup(params, state, history))

    policies = []
    controllers = []
    for i in range(1, n_vehicles):
        psec = f"policy.{i}"
        csec = f"controller.{i}"
        for section in (psec, csec):
            if section not in sections:
                raise ScenarioError(f"missing required section [{section}]")
        _check_keys(parser, index, psec, _POLICY_KEYS)
        _check_keys(parser, index, csec, _CONTROLLER_KEYS)
        if not parser.has_option(psec, "kind"):
            raise ScenarioError(f"[{psec}] is missing required key 'kind'")
        try:
            kind = PolicyKind.parse(parser.get(psec, "kind"))
            policy = SpacingPolicy(
                kind=kind,
                h_v=_get_float(parser, index, psec, "h_v", 0.0),
                h_a=_get_float(parser, index, psec, "h_a", 0.0),
                standstill=_get_float(parser, index, psec, "standstill", 0.0),
            )
        except ValueError as exc:
            raise ScenarioError(f"[{psec}]: {exc}{index.where(psec)}") from None
        gains = ControllerGains(
            k_p=_get_float(parser, index, csec, "k_p"),
            k_d=_get_float(parser, index, csec, "k_d", 0.0),
            k_dd=_get_float(parser, index, csec, "k_dd", 0.0),
        )
        try:
            spec = ControllerSpec(
                policy=policy,
                gains=gains,
                ego=vehicles[i].params,
                predecessor=vehicles[i - 1].params,
            )
        except ValueError as exc:
            raise ScenarioError(f"[{csec}]: {exc}{index.where(csec)}") from None
        policies.append(policy)
        controllers.append(spec)

    if not parser.has_option("leader", "segments"):
        raise ScenarioError("[leader] is missing required key 'segments'")
    _check_keys(parser, index, "leader", {"segments"})
    profile = _parse_segments(parser, index, parser.get("leader", "segments"))

    try:
        config = PlatoonConfig(
            vehicles=tuple(vehicles),
            policies=tuple(policies),
            controllers=tuple(controllers),
            ts=ts,
            horizon=horizon,
            measurement=measurement,
            clamp_reverse=clamp,
        )
    except DelayGranularityError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    return Scenario(config, profile)


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario file."""
    text = Path(path).read_text()
    return load_scenario_text(text)
