"""Scenario configuration: YAML files and bundled presets.

This module checks the shape of a document: its sections are mappings,
every section rejects unknown keys so a typo can't silently fall back to a
default, and required keys are present. The values go unchanged to the
types they build (RobotParams, MagneticParams, GainMatrices, Setpoints,
PDSpec, Scenario), which check them; a ValidationError becomes a ConfigError
that starts with the section name. The one value check here is on the
degree lists (y0_deg, setpoint *_deg keys), which are converted to radians
on load. Preset names resolve against ROLLSIM_CONFIG_DIR first (when set),
then the presets bundled with the package.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import yaml

from .control import GainMatrices, Setpoints
from .magnetics import MagneticParams
from .model import ValidationError, finite_numbers, load_params
from .simulate import PDSpec, Scenario


class ConfigError(Exception):
    """The config file is missing, malformed, or inconsistent."""


class UnknownPresetError(ConfigError):
    """Scenario argument names no known preset; a usage-level mistake."""


_SCENARIO_KEYS = {"y0_deg", "horizon", "dt", "potential"}
_TOP_KEYS = {"name", "params", "magnetics", "controller", "scenario"}
_CONTROLLER_KEYS = {"kp", "kd", "setpoints"}
_SETPOINT_KEYS = {"theta_d_deg", "phi_d_deg"}
_MAGNETIC_KEYS = {"enabled", "B_max", "P_max", "A", "mu0"}


def _mapping(node, where):
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(node).__name__}")
    return node


def _check_keys(node, allowed, where):
    # a YAML key may be a number
    unknown = sorted(map(str, set(node) - allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _radians(node, count, where):
    # checked here, not by the type that gets the radians: math.radians
    # takes True as 1 degree
    if not finite_numbers(node, count):
        raise ConfigError(
            f"{where} must be a list of {count} finite numbers, got {node!r}")
    return tuple(map(math.radians, node))


@contextmanager
def _section(name):
    try:
        yield
    except ValidationError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _load_magnetics(section) -> MagneticParams:
    if section is None:
        return MagneticParams()
    _check_keys(_mapping(section, "magnetics"), _MAGNETIC_KEYS, "magnetics")
    with _section("magnetics"):
        return MagneticParams(**section)


def _load_controller(section) -> PDSpec | None:
    if section is None:
        return None
    _check_keys(_mapping(section, "controller"), _CONTROLLER_KEYS, "controller")
    for key in ("kp", "kd", "setpoints"):
        if key not in section:
            raise ConfigError(f"controller section requires '{key}'")
    sp = _mapping(section["setpoints"], "controller.setpoints")
    _check_keys(sp, _SETPOINT_KEYS, "controller.setpoints")
    for key in ("theta_d_deg", "phi_d_deg"):
        if key not in sp:
            raise ConfigError(f"controller.setpoints requires '{key}'")
    # theta_d_deg is Setpoints.theta_d in degrees, and so on
    targets = {key.removesuffix("_deg"):
               _radians(value, 2, f"controller.setpoints.{key}")
               for key, value in sp.items()}
    with _section("controller"):
        return PDSpec(gains=GainMatrices(Kp=section["kp"], Kd=section["kd"]),
                      setpoints=Setpoints(**targets))


def load_scenario_dict(doc: dict, default_name: str):
    """Build (Scenario, RobotParams, MagneticParams) from a parsed document."""
    _check_keys(_mapping(doc, "config"), _TOP_KEYS, "config")
    if "scenario" not in doc:
        raise ConfigError("config requires a 'scenario' section")
    sc = _mapping(doc["scenario"], "scenario")
    _check_keys(sc, _SCENARIO_KEYS, "scenario")
    if "y0_deg" not in sc:
        raise ConfigError("scenario requires 'y0_deg'")

    with _section("params"):
        params = load_params(doc.get("params"))
    mag = _load_magnetics(doc.get("magnetics"))
    controller = _load_controller(doc.get("controller"))
    y0 = _radians(sc["y0_deg"], 8, "scenario.y0_deg")
    given = {key: value for key, value in sc.items() if key != "y0_deg"}
    with _section("scenario"):
        scenario = Scenario(name=doc.get("name", default_name), y0=y0,
                            controller=controller, **given)
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
