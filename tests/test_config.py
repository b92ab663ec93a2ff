import numpy as np
import pytest

from rollsim.config import (ConfigError, UnknownPresetError, list_presets,
                            load_scenario, load_scenario_dict, resolve)
from rollsim.magnetics import MagneticParams
from rollsim.model import RobotParams
from rollsim.simulate import Scenario


def test_bundled_presets_present():
    names = list_presets()
    for name in ("freefall", "balancing", "lifting"):
        assert name in names


def test_freefall_preset_contents():
    sc, params, mag = load_scenario("freefall")
    assert sc.name == "freefall"
    assert sc.controller is None
    assert not mag.enabled
    assert sc.horizon == 5.0 and sc.dt == 1e-3
    y0 = np.degrees(sc.y0)
    assert np.allclose(y0, [0, 30, 185, 0, 0, 0, 0, 0])


def test_balancing_preset_contents():
    sc, params, mag = load_scenario("balancing")
    c = sc.controller
    assert c is not None
    assert c.gains.Kp == ((20.0, 0.0, 0.3, 0.0), (0.0, 30.0, 0.0, 0.7))
    assert c.gains.Kd == ((0.1, 0.0, 0.5, 0.0), (0.0, 0.2, 0.0, 0.75))
    assert np.degrees(c.setpoints.theta_d) == pytest.approx([-180.0, -155.0])
    assert np.degrees(c.setpoints.phi_d) == pytest.approx([180.0, 185.0])
    assert sc.horizon == 10.0


def test_lifting_preset_contents():
    sc, params, mag = load_scenario("lifting")
    c = sc.controller
    assert c.gains.Kp == ((1.3, 0.0, 0.3, 0.0), (0.0, 2.5, 0.0, 1.8))
    assert np.degrees(sc.y0[3]) == pytest.approx(-107.19)


def test_unknown_preset_lists_alternatives():
    with pytest.raises(UnknownPresetError, match="balancing"):
        resolve("nosuch")


def test_config_dir_override(tmp_path, monkeypatch):
    custom = tmp_path / "mine.yaml"
    custom.write_text("""
name: mine
scenario:
  y0_deg: [0, 0, 180, 0, 0, 0, 0, 0]
  horizon: 1.0
""")
    monkeypatch.setenv("ROLLSIM_CONFIG_DIR", str(tmp_path))
    sc, _, _ = load_scenario("mine")
    assert sc.name == "mine" and sc.horizon == 1.0
    assert "mine" in list_presets()
    # bundled presets still resolve
    assert resolve("freefall")


@pytest.mark.parametrize("override", ["missing", ""])
def test_bundled_presets_resolve_without_an_override_directory(
        tmp_path, monkeypatch, override):
    # a directory that does not exist, or an empty value, adds no preset
    # and hides none
    monkeypatch.setenv("ROLLSIM_CONFIG_DIR",
                       str(tmp_path / override) if override else "")
    assert list_presets() == ["balancing", "freefall", "lifting"]
    for name in list_presets():
        assert resolve(name).parent.name == "presets"
        assert load_scenario(name)[0].name == name


def test_path_argument_bypasses_preset_search(tmp_path):
    f = tmp_path / "direct.yaml"
    f.write_text("scenario:\n  y0_deg: [0,0,0,0,0,0,0,0]\n")
    sc, _, _ = load_scenario(str(f))
    assert sc.name == "direct"  # falls back to the file stem
    with pytest.raises(ConfigError, match="not found"):
        load_scenario(str(tmp_path / "missing.yaml"))


def _controller(**changes):
    section = {"kp": [[0] * 4] * 2, "kd": [[0] * 4] * 2,
               "setpoints": {"theta_d_deg": [0, 0], "phi_d_deg": [0, 0]},
               **changes}
    return {"scenario": {"y0_deg": [0] * 8}, "controller": section}


@pytest.mark.parametrize("doc,fragment", [
    ({"scenario": {"y0_deg": [0] * 8}, "bogus": 1}, "bogus"),
    ({"scenario": {"y0_deg": [0] * 8, "step": 1}}, "step"),
    ({"scenario": {"y0_deg": [0] * 7}}, "y0_deg"),
    ({"scenario": {"y0_deg": [0] * 8, "dt": -1}}, "dt"),
    ({"scenario": {"y0_deg": [0] * 8, "potential": "x"}}, "potential"),
    ({}, "scenario"),
    ({"scenario": {"y0_deg": [0] * 8}, "params": {"m_p": -1}}, "m_p"),
    ({"scenario": {"y0_deg": [0] * 8}, "params": {"masa": 1}}, "masa"),
    ({"scenario": {"y0_deg": [0] * 8},
      "magnetics": {"enabled": True, "p_max": 1}}, "p_max"),
    ({"scenario": {"y0_deg": [0] * 8},
      "controller": {"kp": [[1, 0, 0, 0], [0, 1, 0, 0]]}}, "kd"),
    ({"scenario": {"y0_deg": [0] * 8, "horizon": "ten"}}, "horizon"),
    ({"scenario": {"y0_deg": [0] * 8, "stage_control": True}},
     "stage_control"),
    ({"scenario": {"y0_deg": [0] * 8},
      "params": {"delta": ["a", 0.0, 0.0, 0.0]}}, "delta"),
    ({"scenario": {"y0_deg": [0] * 8}, "params": {"delta": 5}}, "delta"),
    ({"scenario": {"y0_deg": [0] * 8}, "params": {"m_p": True}}, "m_p"),
    ({"scenario": {"y0_deg": [0] * 8},
      "params": {"delta": [0.0, True, 0.0, 0.0]}}, "delta"),
    ({"scenario": {"y0_deg": [0] * 8, "horizon": 10**400}}, "horizon"),
    # a saturation of any value is refused: the law has no clamp
    *(({"scenario": {"y0_deg": [0] * 8},
        "controller": {"kp": [[0] * 4] * 2, "kd": [[0] * 4] * 2,
                       "setpoints": {"theta_d_deg": [0, 0],
                                     "phi_d_deg": [0, 0]},
                       "saturation": sat}}, "saturation")
      for sat in (-1, 0, float("nan"))),
    # the PD law has one rate channel and one gain structure: the keys
    # that selected others are gone
    *(({"scenario": {"y0_deg": [0] * 8},
        "controller": {"kp": [[0] * 4] * 2, "kd": [[0] * 4] * 2,
                       "setpoints": {"theta_d_deg": [0, 0],
                                     "phi_d_deg": [0, 0]},
                       key: False}}, rf"unknown key\(s\) in controller: {key}")
      for key in ("psi_rate", "allow_dense")),
    # the types check the values; config names the section
    ({"scenario": {"y0_deg": [0] * 8}, "params": 5},
     "^params must be a mapping, got int"),
    ({"scenario": {"y0_deg": [0] * 8}, "magnetics": [1]},
     "magnetics must be a mapping"),
    ({"scenario": {"y0_deg": [0] * 8}, "magnetics": {"enabled": "on"}},
     "^magnetics: enabled"),
    ({"scenario": {"y0_deg": [0] * 8}, "magnetics": {"P_max": 0}},
     "^magnetics: P_max"),
    (_controller(kp=[[1, 0, 0, 0]]), "^controller: Kp"),
    (_controller(kp=[[True, 0, 0, 0], [0, 1, 0, 0]]), "^controller: Kp"),
    (_controller(kd=[[0, 0, "x", 0], [0, 0, 0, 0]]), "^controller: Kd"),
    (_controller(setpoints={"theta_d_deg": [0, 0]}), "phi_d_deg"),
    (_controller(setpoints={"theta_d_deg": [True, 0], "phi_d_deg": [0, 0]}),
     "theta_d_deg"),
    ({"scenario": {"horizon": 1.0}}, "y0_deg"),
    ({"scenario": {"y0_deg": [0] * 8}, "name": ""}, "^scenario: name"),
    # a number as a key was a TypeError from joining the unknown keys
    ({"scenario": {"y0_deg": [0] * 8}, 1: 2}, "config: 1"),
    ({"scenario": {"y0_deg": [0] * 8}, "params": {2: 0.1}},
     r"unknown key\(s\) in params: 2"),
    # the law has no clamp and constant targets: the keys that set a
    # saturation or rate targets are gone
    ({"scenario": {"y0_deg": [0] * 8},
      "controller": {"kp": [[0] * 4] * 2, "kd": [[0] * 4] * 2,
                     "setpoints": {"theta_d_deg": [0, 0],
                                   "phi_d_deg": [0, 0]},
                     "saturation": 5.0}},
     r"unknown key\(s\) in controller: saturation"),
    *(({"scenario": {"y0_deg": [0] * 8},
        "controller": {"kp": [[0] * 4] * 2, "kd": [[0] * 4] * 2,
                       "setpoints": {"theta_d_deg": [0, 0],
                                     "phi_d_deg": [0, 0], key: [0, 0]}}},
       rf"unknown key\(s\) in controller.setpoints: {key}")
      for key in ("dtheta_d_deg", "dphi_d_deg")),
    # RobotParams refuses these values, and config names the section
    *(({"scenario": {"y0_deg": [0] * 8}, "params": {"delta": delta}},
       "^params: delta")
      for delta in ("0000", [0.1, 0.1, 0.1], {"a": 1}, [0, 10**400, 0, 0])),
    ({"scenario": {"y0_deg": [0] * 8}, "params": {"m_s": 10**400}},
     "^params: m_s"),
    # the name is the stem of the files run writes into its directory
    *(({"scenario": {"y0_deg": [0] * 8}, "name": name}, "^scenario: name")
      for name in ("../escaped", "/tmp/x", "a/b", ".", "..")),
    # the required keys are reported in order
    ({"scenario": {"y0_deg": [0] * 8}, "controller": {"setpoints": {}}},
     "^controller requires 'kp'$"),
    ({"scenario": {"y0_deg": [0] * 8},
      "controller": {"kp": [[1, 0, 0, 0], [0, 1, 0, 0]]}},
     "^controller requires 'kd'$"),
    ({"name": "x"}, "^config requires 'scenario'$"),
])
def test_rejects_malformed_documents(doc, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_scenario_dict(doc, default_name="t")


@pytest.mark.parametrize("text,fragment", [("", "is empty"),
                                           ("scenario: [", "invalid YAML")])
def test_rejects_an_empty_or_unparsable_file(tmp_path, text, fragment):
    f = tmp_path / "bad.yaml"
    f.write_text(text)
    with pytest.raises(ConfigError, match=fragment):
        load_scenario(str(f))


def test_absent_keys_take_the_scenario_defaults():
    sc, params, mag = load_scenario_dict({"scenario": {"y0_deg": [0] * 8}},
                                         "d")
    assert sc == Scenario(name="d", y0=(0.0,) * 8)
    assert params == RobotParams()
    assert mag == MagneticParams()


def test_controller_section_full():
    doc = {
        "scenario": {"y0_deg": [0] * 8, "horizon": 2.0},
        "controller": {
            "kp": [[1, 0, 0.5, 0], [0, 2, 0, 0.5]],
            "kd": [[0.1, 0, 0.2, 0], [0, 0.1, 0, 0.2]],
            "setpoints": {"theta_d_deg": [10, -10], "phi_d_deg": [180, 185]},
        },
    }
    sc, _, _ = load_scenario_dict(doc, default_name="c")
    c = sc.controller
    assert c.setpoints.theta_d[0] == pytest.approx(np.radians(10))
    assert c.setpoints.phi_d[1] == pytest.approx(np.radians(185))


def test_controller_gain_sparsity_enforced_through_config():
    doc = {
        "scenario": {"y0_deg": [0] * 8},
        "controller": {
            "kp": [[1, 1, 0, 0], [0, 1, 0, 1]],
            "kd": [[0, 0, 0, 0], [0, 0, 0, 0]],
            "setpoints": {"theta_d_deg": [0, 0], "phi_d_deg": [0, 0]},
        },
    }
    with pytest.raises(ConfigError, match=r"Kp\[0\]\[1\]"):
        load_scenario_dict(doc, default_name="c")


def test_magnetics_section():
    doc = {
        "scenario": {"y0_deg": [0] * 8},
        "magnetics": {"enabled": True, "B_max": 0.1, "P_max": 0.05},
    }
    sc, _, mag = load_scenario_dict(doc, default_name="m")
    assert mag.enabled and not hasattr(sc, "magnetics")  # the one switch
    assert mag.B_max == 0.1 and mag.P_max == 0.05
    assert mag.A == 0.0025  # untouched default
