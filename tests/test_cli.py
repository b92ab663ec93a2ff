import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from rollsim import _core, cli
from rollsim.cli import main
from rollsim.config import load_scenario
from rollsim.output import format_csv
from rollsim.simulate import run


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_unknown_preset_is_usage_error(capsys):
    code, _, err = run_cli(["run", "nosuch"], capsys)
    assert code == 2
    assert "nosuch" in err and "freefall" in err


def test_run_freefall(tmp_path, capsys):
    out = tmp_path / "ff.csv"
    code, text, _ = run_cli(["run", "freefall", "--out", str(out)], capsys)
    assert code == 0
    assert out.exists() and out.with_suffix(".gp").exists()
    assert len(out.read_text().splitlines()) == 5002  # header + 5001 rows
    assert "Topple" in text
    assert "exit status 0" in text


def test_run_dt_override_row_count(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code, _, _ = run_cli(["run", "balancing", "--dt", "5e-4",
                          "--horizon", "0.5", "--out", str(out)], capsys)
    assert code == 0
    assert len(out.read_text().splitlines()) == 1002


@pytest.mark.parametrize("preset,common,switch,changes", [
    # the tips first couple at 0.4864 s of this run
    ("lifting", {"dt": 2e-4, "horizon": 0.5}, ("magnetics", "on", "off"),
     ({}, {"enabled": True})),
    ("freefall", {"horizon": 0.05},
     ("potential", "geometry-consistent", "paper-verbatim"),
     ({"potential": "geometry-consistent"}, {})),
])
def test_run_overrides_reach_the_run(tmp_path, capsys, preset, common, switch,
                                     changes):
    # the CSV of each setting is that of the library run with the
    # (Scenario, MagneticParams) fields replaced, and the two CSVs differ
    options = [arg for key, value in common.items()
               for arg in (f"--{key}", str(value))]
    option, on, off = switch
    texts = []
    for value in (on, off):
        out = tmp_path / f"{value}.csv"
        code, _, _ = run_cli(["run", preset, *options, f"--{option}", value,
                              "--out", str(out)], capsys)
        assert code == 0
        texts.append(out.read_text())
    sc, p, m = load_scenario(preset)
    sc = replace(sc, **common)
    assert texts[0] == format_csv(run(replace(sc, **changes[0]), p,
                                      replace(m, **changes[1])))
    assert texts[1] == format_csv(run(sc, p, m))
    assert texts[0] != texts[1]


def test_run_rejects_bad_dt(tmp_path, capsys):
    code, _, _ = run_cli(["run", "freefall", "--dt", "-1"], capsys)
    assert code == 2
    code, _, err = run_cli(["run", "freefall", "--dt", "abc"], capsys)
    assert code == 2 and "not a number: 'abc'" in err


def test_run_without_out_writes_to_the_working_directory(tmp_path,
                                                         monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, text, _ = run_cli(["run", "freefall", "--horizon", "0.01"], capsys)
    assert code == 0
    assert "wrote freefall.csv and freefall.gp" in text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["freefall.csv",
                                                          "freefall.gp"]


def test_run_out_below_a_file_is_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "ff.csv"
    code, _, err = run_cli(["run", "freefall", "--horizon", "0.01",
                            "--out", str(out)], capsys)
    assert code == 3
    assert err.startswith(f"cannot write {out}")


def test_run_summary_lists_the_first_eight_events(tmp_path, capsys):
    code, text, _ = run_cli(["run", "lifting", "--out", str(tmp_path)],
                            capsys)
    assert code == 4
    assert ("  events (443): Topple @ 0.084 s; GroundPenetration @ 0.084 s; "
            in text)
    # the coupling is off: no coupling event is among them
    assert ("Topple @ 0.553 s; GroundPenetration @ 0.553 s; ... 435 more\n"
            in text)


def test_run_multiple_scenarios_into_directory(tmp_path, capsys):
    code, _, _ = run_cli(["run", "freefall", "lifting", "--horizon", "0.5",
                          "--out", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "freefall.csv").exists()
    assert (tmp_path / "lifting.csv").exists()


def test_run_out_ending_in_a_separator_is_a_directory(tmp_path, capsys):
    # the directory does not exist yet, so only the separator says what it is
    out = tmp_path / "newdir"
    code, _, _ = run_cli(["run", "freefall", "--horizon", "0.1",
                          "--out", str(out) + os.sep], capsys)
    assert code == 0
    assert (out / "freefall.csv").is_file() and (out / "freefall.gp").is_file()


def test_run_refuses_repeated_scenario_names(tmp_path, capsys):
    # lifting renamed freefall would overwrite freefall.csv: nothing may
    # run or be written
    other = tmp_path / "other.yaml"
    lifting = (Path(__file__).resolve().parent.parent / "src" / "rollsim"
               / "presets" / "lifting.yaml")
    other.write_text(lifting.read_text().replace("name: lifting",
                                                 "name: freefall"))
    out = tmp_path / "d"
    code, text, err = run_cli(["run", "freefall", str(other), "--out",
                               str(out)], capsys)
    assert code == 2
    assert text == "" and "'freefall'" in err
    assert not out.exists()


def test_run_determinism_bitwise(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli(["run", "freefall", "--out", str(a)], capsys)[0] == 0
    assert run_cli(["run", "freefall", "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario:\n  y0_deg: [0,0,0,0,0,0,0,0]\nparams:\n  m_p: -1\n")
    code, _, err = run_cli(["run", str(bad)], capsys)
    assert code == 3
    assert "m_p" in err


def test_run_refuses_a_name_that_is_not_printable(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text('name: "a\\nb"\nscenario:\n  y0_deg: [0,0,0,0,0,0,0,0]\n')
    code, _, err = run_cli(["run", str(bad), "--out", str(tmp_path)],
                             capsys)
    assert code == 3
    assert err.startswith("config error:") and "printable" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.yaml"]


@pytest.mark.parametrize("params", ["delta: 5", "delta: [a, 0.0, 0.0, 0.0]",
                                    "m_p: true"])
def test_malformed_params_exit_code(tmp_path, capsys, params):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario:\n  y0_deg: [0,0,0,0,0,0,0,0]\n"
                   f"params:\n  {params}\n")
    code, _, err = run_cli(["run", str(bad)], capsys)
    assert code == 3
    assert err.startswith("config error:") and params.split(":")[0] in err


@pytest.mark.parametrize("key", ["psi_rate", "allow_dense", "saturation",
                                 "dtheta_d_deg", "dphi_d_deg"])
def test_removed_controller_switch_exit_code(tmp_path, capsys, key):
    # the rate targets were setpoints keys, the others controller keys
    if key.endswith("_deg"):
        where, setpoint, switch = "controller.setpoints", f", {key}: [0,0]", ""
    else:
        where, setpoint, switch = "controller", "", f"  {key}: 1\n"
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario:\n  y0_deg: [0,0,0,0,0,0,0,0]\n"
                   "controller:\n  kp: [[1,0,0,0],[0,1,0,0]]\n"
                   "  kd: [[0,0,0,0],[0,0,0,0]]\n"
                   "  setpoints: {theta_d_deg: [0,0], phi_d_deg: [0,0]"
                   f"{setpoint}}}\n" + switch)
    code, _, err = run_cli(["run", str(bad)], capsys)
    assert code == 3
    assert f"unknown key(s) in {where}: {key}" in err


def test_run_with_more_samples_than_memory_is_config_error(capsys):
    # 5e12 samples of 8 doubles, 291 TiB: beyond a 47-bit address space, so
    # the allocation fails at once without touching memory
    code, _, err = run_cli(["run", "freefall", "--dt", "1e-12"], capsys)
    assert code == 3
    assert "horizon 5.0" in err and "dt 1e-12" in err
    assert "5000000000001 samples" in err


@pytest.mark.parametrize("argv", [["--horizon", "1e18"],
                                  ["--horizon", "1e300", "--dt", "1e-300"]])
def test_run_with_more_samples_than_an_array_holds_is_config_error(argv,
                                                                    capsys):
    # numpy refuses 1e21 samples with ValueError, not MemoryError, and
    # 1e300 / 1e-300 overflows the sample count to inf: both were tracebacks
    code, _, err = run_cli(["run", "freefall", *argv], capsys)
    assert code == 3
    assert "samples, more than memory holds" in err


FREEFALL = (Path(__file__).resolve().parent.parent / "src" / "rollsim"
            / "presets" / "freefall.yaml")


@pytest.mark.parametrize("field,size", [("horizon: 5.0", "horizon: 1.0e18"),
                                        ("dt: 0.001", "dt: 1e-12")])
def test_run_refused_for_a_later_scenario_writes_nothing(tmp_path, capsys,
                                                         field, size):
    # freefall would stream its CSV while it runs; the second scenario's
    # samples, too many for an array or for memory, are refused first
    big = tmp_path / "big.yaml"
    text = FREEFALL.read_text().replace("name: freefall", "name: big")
    big.write_text(text.replace(field, size))
    out = tmp_path / "d"
    code, text, err = run_cli(["run", "freefall", str(big), "--out",
                               str(out)], capsys)
    assert code == 3
    assert text == "" and "samples, more than memory holds" in err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.yaml"]


@pytest.mark.parametrize("name", ["res.gp", "res.GP", "a\nb.csv",
                                  "tab\t.csv"])
def test_run_refuses_an_out_the_script_would_break(tmp_path, capsys, name):
    # res.gp: the script would overwrite the CSV, and so would res.gp next
    # to res.GP where file names ignore case; a newline would end the
    # script's comment line early and split its plot commands
    out = tmp_path / name
    code, text, err = run_cli(["run", "freefall", "--horizon", "0.01",
                               "--out", str(out)], capsys)
    assert code == 2
    assert text == "" and err.startswith("usage error: --out")
    assert list(tmp_path.iterdir()) == []


def test_errata_deterministic_files(tmp_path, capsys):
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    for d in (d1, d2):
        code, text, _ = run_cli(["errata", "--samples", "150", "--seed", "7",
                                 "--out", str(d)], capsys)
        assert code == 0
        assert "a_11" in text
    assert (d1 / "errata.txt").read_bytes() == (d2 / "errata.txt").read_bytes()
    j1 = json.loads((d1 / "errata.json").read_text())
    j2 = json.loads((d2 / "errata.json").read_text())
    assert j1 == j2
    assert j1["entries"][0]["name"] == "a_11"


def test_in_process_calls_stay_independent(tmp_path, capsys):
    # main builds one parser per process; no option, default or error of
    # one call reaches the next
    assert cli._build_parser() is cli._build_parser()
    out = tmp_path / "ff.csv"
    rows = []
    for dt in (["--dt", "2e-3"], []):
        code, _, _ = run_cli(["run", "freefall", *dt, "--horizon", "0.01",
                              "--out", str(out)], capsys)
        assert code == 0
        rows.append(len(out.read_text().splitlines()) - 1)
    assert rows == [6, 11]

    seeds = []
    for name, seed in (("seven", ["--seed", "7"]), ("default", [])):
        code, _, _ = run_cli(["errata", *seed, "--out", str(tmp_path / name)],
                             capsys)
        assert code == 0
        report = json.loads((tmp_path / name / "errata.json").read_text())
        seeds.append(report["seed"])
    assert seeds == [7, 42]

    code, _, err = run_cli(["run", "freefall", "--dt", "-1"], capsys)
    assert code == 2 and "must be positive" in err
    code, _, _ = run_cli(["run", "freefall", "--horizon", "0.01", "--out",
                          str(out)], capsys)
    assert code == 0


def test_errata_rejects_zero_samples(capsys):
    code, _, _ = run_cli(["errata", "--samples", "0"], capsys)
    assert code == 2


def test_errata_rejects_a_negative_seed(tmp_path, capsys):
    # numpy's default_rng refuses it with a ValueError traceback
    out = tmp_path / "e"
    code, text, err = run_cli(["errata", "--seed", "-1", "--out", str(out)],
                              capsys)
    assert code == 2
    assert text == "" and "--seed must be at least 0" in err
    assert not out.exists()


def test_errata_with_more_samples_than_an_array_holds_is_usage_error(
        tmp_path, capsys):
    # numpy refuses 1e18 states of 4 doubles with ValueError before it
    # allocates anything
    out = tmp_path / "e"
    code, text, err = run_cli(["errata", "--samples", str(10**18), "--out",
                               str(out)], capsys)
    assert code == 2
    assert text == "" and f"--samples {10**18} needs more" in err
    assert not out.exists()


def test_errata_that_runs_out_of_memory_is_usage_error(tmp_path, capsys,
                                                       monkeypatch):
    # a size numpy indexes but cannot allocate raises MemoryError; raised
    # here without allocating
    def no_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "errata_compare", no_memory)
    out = tmp_path / "e"
    code, text, err = run_cli(["errata", "--samples", "100000000000",
                               "--out", str(out)], capsys)
    assert code == 2
    assert text == "" and "--samples 100000000000 needs more" in err
    assert not out.exists()


def test_errata_unwritable_out_is_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, _, err = run_cli(["errata", "--samples", "3", "--out", str(taken)],
                           capsys)
    assert code == 3
    assert err.startswith(f"cannot write {taken}")


@pytest.mark.parametrize("option", [["--seed", "1"], ["--jobs", "2"]])
def test_run_rejects_removed_options(option, capsys):
    code, _, err = run_cli(["run", "freefall", "--horizon", "0.01", *option],
                           capsys)
    assert code == 2
    assert "unrecognized arguments" in err


def test_validate_default_params(capsys):
    code, text, _ = run_cli(["validate"], capsys)
    assert code == 0
    assert text.count("PASS") == 5
    assert "FAIL" not in text


def test_validate_conservative_mode(tmp_path, capsys):
    cfg = tmp_path / "cons.yaml"
    cfg.write_text(
        "scenario:\n  y0_deg: [0,0,185,0,0,0,0,0]\n"
        "params:\n  delta: [0, 0, 0, 0]\n")
    code, text, _ = run_cli(["validate", str(cfg)], capsys)
    assert code == 0
    assert "conservative" in text


def test_validate_reports_a_failed_check(tmp_path, capsys):
    # g = 1e5 spins the 1 s run up past the power-balance tolerance
    cfg = tmp_path / "heavy.yaml"
    cfg.write_text("scenario:\n  y0_deg: [0,0,185,0,0,0,0,0]\n"
                   "params: {g: 100000.0}\n")
    code, text, _ = run_cli(["validate", str(cfg)], capsys)
    assert code == 4
    assert "FAIL  power balance" in text
    assert text.endswith("1 check(s) failed\n")


def _skewed(M):
    # an antisymmetric change: qd M qd and the spectrum keep their values
    M[0, 1] += 1e-6
    M[1, 0] -= 1e-6
    return M


@pytest.mark.parametrize("name,check,broken", [
    ("mass_matrix", "mass matrix symmetric",
     lambda f: lambda par, q: _skewed(f(par, q))),
    ("mass_matrix", "mass matrix positive definite",
     lambda f: lambda par, q: -f(par, q)),
    ("kinetic", "kinetic energy quadratic form",
     lambda f: lambda par, q, qd: f(par, q, qd) * (1.0 + 1e-9)),
    ("gravity", "gravity vs difference of potential",
     lambda f: lambda par, q, variant: f(par, q, variant) + 1e-6),
], ids=["asymmetric", "indefinite", "kinetic", "gravity"])
def test_validate_fails_each_sampled_state_check(monkeypatch, capsys, name,
                                                  check, broken):
    # each check of the sampled states can fail: one _core function broken
    monkeypatch.setattr(_core, name, broken(getattr(_core, name)))
    code, text, _ = run_cli(["validate"], capsys)
    assert code == 4
    assert f"FAIL  {check}  (" in text
    assert "PASS  power balance" in text


def test_validate_rejects_corrupt_config(tmp_path, capsys):
    cfg = tmp_path / "neg.yaml"
    cfg.write_text("scenario:\n  y0_deg: [0,0,0,0,0,0,0,0]\nparams:\n  m_s: -2\n")
    code, _, err = run_cli(["validate", str(cfg)], capsys)
    assert code == 3 and "m_s" in err
