import json
from dataclasses import replace

import pytest

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


def test_run_multiple_scenarios_into_directory(tmp_path, capsys):
    code, _, _ = run_cli(["run", "freefall", "lifting", "--horizon", "0.5",
                          "--out", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "freefall.csv").exists()
    assert (tmp_path / "lifting.csv").exists()


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


@pytest.mark.parametrize("params", ["delta: 5", "delta: [a, 0.0, 0.0, 0.0]",
                                    "m_p: true"])
def test_malformed_params_exit_code(tmp_path, capsys, params):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario:\n  y0_deg: [0,0,0,0,0,0,0,0]\n"
                   f"params:\n  {params}\n")
    code, _, err = run_cli(["run", str(bad)], capsys)
    assert code == 3
    assert err.startswith("config error:") and params.split(":")[0] in err


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


def test_errata_rejects_zero_samples(capsys):
    code, _, _ = run_cli(["errata", "--samples", "0"], capsys)
    assert code == 2


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


def test_validate_rejects_corrupt_config(tmp_path, capsys):
    cfg = tmp_path / "neg.yaml"
    cfg.write_text("scenario:\n  y0_deg: [0,0,0,0,0,0,0,0]\nparams:\n  m_s: -2\n")
    code, _, err = run_cli(["validate", str(cfg)], capsys)
    assert code == 3 and "m_s" in err
