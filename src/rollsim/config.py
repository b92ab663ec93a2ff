"""Scenario configuration: YAML files and bundled presets.

This module checks the shape of a document with one check per section: a
mapping with no unknown key, so a typo can't silently fall back to a
default, and with its required keys. The keys of params and magnetics are
the fields of RobotParams and MagneticParams. The values go unchanged to
the types they build (RobotParams, MagneticParams, GainMatrices,
Setpoints, PDSpec, Scenario), which check them; a ValidationError becomes
a ConfigError that starts with the section name. The one value check here
is on the degree lists (y0_deg, setpoint *_deg keys), which are converted
to radians on load. Preset names resolve against ROLLSIM_CONFIG_DIR first
(when set), then the presets bundled with the package.
"""

from __future__ import annotations

import math
import os
import re
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import yaml

from .control import GainMatrices, Setpoints
from .magnetics import MagneticParams
from .model import RobotParams, ValidationError, finite_numbers
from .simulate import PDSpec, Scenario


class ConfigError(Exception):
    """The config file is missing, malformed, or inconsistent."""


class UnknownPresetError(ConfigError):
    """Scenario argument names no known preset; a usage-level mistake."""


class _Loader(yaml.SafeLoader):
    """SafeLoader that reads an exponent float with no dot or no exponent
    sign (1e-3, 1.0e5, 1E+5) as a float, as YAML 1.2 does; YAML 1.1 leaves
    it a string. A quoted "1e-3" stays a string. A key given twice in one
    mapping is an error, where SafeLoader keeps the last value."""

    def construct_mapping(self, node, deep=False):
        # a list, as a key may be unhashable, which SafeLoader then reports
        keys = []
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue  # a << merge key, which SafeLoader expands
            key = self.construct_object(key_node, deep=deep)
            if key in keys:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found repeated key {key!r}", key_node.start_mark)
            keys.append(key)
        return super().construct_mapping(node, deep=deep)


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))

_SCENARIO_KEYS = {"y0_deg", "horizon", "dt", "potential"}
_TOP_KEYS = {"name", "params", "magnetics", "controller", "scenario"}
# every controller and setpoints key is required, in this order
_CONTROLLER_KEYS = ("kp", "kd", "setpoints")
_SETPOINT_KEYS = ("theta_d_deg", "phi_d_deg")


def _mapping(node, where, allowed, required=()):
    """node, if a mapping with keys from allowed and each key of required."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(node).__name__}")
    # a YAML key may be a number
    unknown = sorted(map(str, set(node).difference(allowed)))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    for key in required:
        if key not in node:
            raise ConfigError(f"{where} requires '{key}'")
    return node


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


def _load_fields(cls, doc, name):
    """cls from doc's section name, keyed by cls's fields; default if absent."""
    section = doc.get(name)
    if section is None:
        return cls()
    _mapping(section, name, {f.name for f in fields(cls)})
    with _section(name):
        return cls(**section)


def _load_controller(section) -> PDSpec | None:
    if section is None:
        return None
    _mapping(section, "controller", _CONTROLLER_KEYS, _CONTROLLER_KEYS)
    sp = _mapping(section["setpoints"], "controller.setpoints",
                  _SETPOINT_KEYS, _SETPOINT_KEYS)
    # theta_d_deg is Setpoints.theta_d in degrees, and so on
    targets = {key.removesuffix("_deg"):
               _radians(value, 2, f"controller.setpoints.{key}")
               for key, value in sp.items()}
    with _section("controller"):
        return PDSpec(gains=GainMatrices(Kp=section["kp"], Kd=section["kd"]),
                      setpoints=Setpoints(**targets))


def load_scenario_dict(doc: dict, default_name: str):
    """Build (Scenario, RobotParams, MagneticParams) from a parsed document."""
    _mapping(doc, "config", _TOP_KEYS, ("scenario",))
    sc = _mapping(doc["scenario"], "scenario", _SCENARIO_KEYS, ("y0_deg",))
    params = _load_fields(RobotParams, doc, "params")
    mag = _load_fields(MagneticParams, doc, "magnetics")
    controller = _load_controller(doc.get("controller"))
    y0 = _radians(sc["y0_deg"], 8, "scenario.y0_deg")
    given = {key: value for key, value in sc.items() if key != "y0_deg"}
    with _section("scenario"):
        scenario = Scenario(name=doc.get("name", default_name), y0=y0,
                            controller=controller, **given)
    return scenario, params, mag


def _preset_dirs() -> list[Path]:
    """Where bare preset names are found: ROLLSIM_CONFIG_DIR first, if set."""
    override = os.environ.get("ROLLSIM_CONFIG_DIR")
    bundled = Path(__file__).with_name("presets")
    return [Path(override), bundled] if override else [bundled]


def list_presets() -> list[str]:
    """Preset names currently resolvable, override directory included."""
    return sorted({p.stem for d in _preset_dirs() for p in d.glob("*.yaml")})


def resolve(source: str) -> Path:
    """Map a CLI scenario argument to a config file path.

    Anything that looks like a path (suffix or separator) is taken
    literally; bare names search the override directory, then the bundled
    presets.
    """
    p = Path(source)
    if p.suffix.lower() in (".yaml", ".yml") or os.sep in source:
        if not p.is_file():
            raise ConfigError(f"config file not found: {source}")
        return p
    for d in _preset_dirs():
        candidate = d / f"{source}.yaml"
        if candidate.is_file():
            return candidate
    raise UnknownPresetError(
        f"unknown preset {source!r}; available: {', '.join(list_presets())}")


def load_scenario(source: str):
    """Resolve, parse, and validate one scenario argument."""
    path = resolve(source)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        # from bytes, PyYAML decodes UTF-8 or UTF-16 as the YAML spec says,
        # and refuses other bytes with a YAMLError
        doc = yaml.load(data, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if doc is None:
        raise ConfigError(f"{path} is empty")
    return load_scenario_dict(doc, default_name=path.stem)
