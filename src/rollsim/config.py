"""Scenario configuration: YAML files and bundled presets.

Config files carry angles in degrees (y0_deg, setpoint *_deg keys) and are
converted to radians on load. Every section rejects unknown keys so a typo
can't silently fall back to a default. Preset names resolve against
ROLLSIM_CONFIG_DIR first (when set), then the presets bundled with the
package.
"""

from __future__ import annotations

import math
import os
from importlib import resources
from pathlib import Path

import yaml

from .control import GainMatrices, Setpoints
from .magnetics import MagneticParams
from .model import RobotParams, ValidationError, finite_number, load_params
from .simulate import PDSpec, Scenario


class ConfigError(Exception):
    """The config file is missing, malformed, or inconsistent."""


class UnknownPresetError(ConfigError):
    """Scenario argument names no known preset; a usage-level mistake."""


_SCENARIO_KEYS = {"y0_deg", "horizon", "dt", "potential"}
_TOP_KEYS = {"name", "params", "magnetics", "controller", "scenario"}
_CONTROLLER_KEYS = {"kp", "kd", "setpoints", "saturation", "psi_rate",
                    "allow_dense"}
_SETPOINT_KEYS = {"theta_d_deg", "phi_d_deg", "dtheta_d_deg", "dphi_d_deg"}
_MAGNETIC_KEYS = {"enabled", "B_max", "P_max", "A", "mu0"}


def _mapping(node, where):
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(node).__name__}")
    return node


def _check_keys(node, allowed, where):
    unknown = sorted(set(node) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _number(node, where):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(f"{where} must be a number, got {node!r}")
    if not finite_number(node):
        raise ConfigError(f"{where} must be finite, got {node!r}")
    return float(node)


def _number_list(node, count, where):
    if not isinstance(node, (list, tuple)) or len(node) != count:
        raise ConfigError(f"{where} must be a list of {count} numbers")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(node)]


def _bool(node, where):
    if not isinstance(node, bool):
        raise ConfigError(f"{where} must be true or false, got {node!r}")
    return node


def _gain_matrix(node, where):
    if not isinstance(node, (list, tuple)) or len(node) != 2:
        raise ConfigError(f"{where} must be a 2x4 nested list")
    return tuple(tuple(_number_list(row, 4, f"{where}[{i}]")) for i, row in enumerate(node))


def _load_magnetics(section) -> MagneticParams:
    if section is None:
        return MagneticParams()
    _mapping(section, "magnetics")
    _check_keys(section, _MAGNETIC_KEYS, "magnetics")
    kwargs = {}
    if "enabled" in section:
        kwargs["enabled"] = _bool(section["enabled"], "magnetics.enabled")
    for key in ("B_max", "P_max", "A", "mu0"):
        if key in section:
            kwargs[key] = _number(section[key], f"magnetics.{key}")
    try:
        return MagneticParams(**kwargs)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


def _load_controller(section) -> PDSpec | None:
    if section is None:
        return None
    _mapping(section, "controller")
    _check_keys(section, _CONTROLLER_KEYS, "controller")
    for key in ("kp", "kd", "setpoints"):
        if key not in section:
            raise ConfigError(f"controller section requires '{key}'")
    sp = _mapping(section["setpoints"], "controller.setpoints")
    _check_keys(sp, _SETPOINT_KEYS, "controller.setpoints")
    for key in ("theta_d_deg", "phi_d_deg"):
        if key not in sp:
            raise ConfigError(f"controller.setpoints requires '{key}'")

    def rad_pair(key, default=None):
        if key not in sp:
            return default
        vals = _number_list(sp[key], 2, f"controller.setpoints.{key}")
        return tuple(math.radians(v) for v in vals)

    saturation = section.get("saturation")
    if saturation is not None:
        saturation = _number(saturation, "controller.saturation")
    psi_rate = _bool(section["psi_rate"], "controller.psi_rate") \
        if "psi_rate" in section else False
    try:
        gains = GainMatrices(
            Kp=_gain_matrix(section["kp"], "controller.kp"),
            Kd=_gain_matrix(section["kd"], "controller.kd"),
            allow_dense=_bool(section["allow_dense"], "controller.allow_dense")
            if "allow_dense" in section else False)
        setpoints = Setpoints(
            theta_d=rad_pair("theta_d_deg"),
            phi_d=rad_pair("phi_d_deg"),
            dtheta_d=rad_pair("dtheta_d_deg", (0.0, 0.0)),
            dphi_d=rad_pair("dphi_d_deg", (0.0, 0.0)))
        return PDSpec(gains=gains, setpoints=setpoints, saturation=saturation,
                      psi_rate=psi_rate)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


def load_scenario_dict(doc: dict, default_name: str):
    """Build (Scenario, RobotParams, MagneticParams) from a parsed document."""
    _mapping(doc, "config")
    _check_keys(doc, _TOP_KEYS, "config")
    if "scenario" not in doc:
        raise ConfigError("config requires a 'scenario' section")
    sc = _mapping(doc["scenario"], "scenario")
    _check_keys(sc, _SCENARIO_KEYS, "scenario")
    if "y0_deg" not in sc:
        raise ConfigError("scenario requires 'y0_deg'")

    name = doc.get("name", default_name)
    if not isinstance(name, str) or not name:
        raise ConfigError(f"name must be a non-empty string, got {name!r}")
    try:
        params = load_params(doc.get("params"))
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    mag = _load_magnetics(doc.get("magnetics"))
    controller = _load_controller(doc.get("controller"))

    y0 = tuple(math.radians(v)
               for v in _number_list(sc["y0_deg"], 8, "scenario.y0_deg"))
    given = {key: _number(sc[key], f"scenario.{key}")
             for key in ("horizon", "dt") if key in sc}
    if "potential" in sc:
        given["potential"] = sc["potential"]
    try:
        scenario = Scenario(name=name, y0=y0, controller=controller, **given)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    return scenario, params, mag


def preset_dir_override() -> Path | None:
    override = os.environ.get("ROLLSIM_CONFIG_DIR")
    return Path(override) if override else None


def list_presets() -> list[str]:
    """Preset names currently resolvable, override directory included."""
    names = set()
    override = preset_dir_override()
    if override is not None and override.is_dir():
        names.update(p.stem for p in override.glob("*.yaml"))
    pkg_dir = resources.files(__package__) / "presets"
    names.update(p.name[:-5] for p in pkg_dir.iterdir()
                 if p.name.endswith(".yaml"))
    return sorted(names)


def resolve(source: str) -> Path:
    """Map a CLI scenario argument to a config file path.

    Anything that looks like a path (suffix or separator) is taken
    literally; bare names search the override directory, then the bundled
    presets.
    """
    p = Path(source)
    if p.suffix in (".yaml", ".yml") or os.sep in source:
        if not p.is_file():
            raise ConfigError(f"config file not found: {source}")
        return p
    override = preset_dir_override()
    if override is not None:
        candidate = override / f"{source}.yaml"
        if candidate.is_file():
            return candidate
    packaged = resources.files(__package__) / "presets" / f"{source}.yaml"
    try:
        if packaged.is_file():
            return Path(str(packaged))
    except OSError:
        pass
    raise UnknownPresetError(
        f"unknown preset {source!r}; available: {', '.join(list_presets())}")


def load_scenario(source: str):
    """Resolve, parse, and validate one scenario argument."""
    path = resolve(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if doc is None:
        raise ConfigError(f"{path} is empty")
    return load_scenario_dict(doc, default_name=path.stem)
