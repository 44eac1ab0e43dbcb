"""End-to-end tests for the command line interface."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ohmcov
from ohmcov import (
    ConstantScalar,
    DiagonalAnisotropic,
    Drude,
    FrameSample,
    ParseError,
    Wavevector4,
    boost_sigma_direct,
    save_model,
)
from ohmcov import cli
from ohmcov.cli import SWEEP_COLUMNS, load_sweep_csv, main, tabulated_from_sweep
from ohmcov.verify import rel_error


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def model_path(tmp_path, model, name="model.json"):
    path = tmp_path / name
    save_model(model, path)
    return str(path)


def as_complex(pairs):
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


# -- transform ---------------------------------------------------------------


def test_transform_zero_velocity(tmp_path, capsys):
    path = model_path(tmp_path, DiagonalAnisotropic((2.0, 3.0j, 1.0 + 1.0j)))
    code, out, err = run_cli(
        capsys, "transform", "--model", path, "--velocity", "0,0,0", "--omega", "2", "--k", "1,0,0"
    )
    assert code == 0
    record = json.loads(out)
    assert record["omega"] == 2.0
    assert record["k"] == [1.0, 0.0, 0.0]
    assert record["omega_prime"] == 2.0
    assert record["gamma"] == 1.0
    np.testing.assert_array_equal(as_complex(record["sigma"]), as_complex(record["sigma_prime"]))
    assert record["residual"] < 1e-12


def test_transform_csv_row(tmp_path, capsys):
    path = model_path(tmp_path, ConstantScalar(2.0))
    code, out, err = run_cli(
        capsys, "transform", "--model", path, "--velocity", "0.3,0,0", "--omega", "1", "--k", "0.2,0,0",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    assert len(rows[0]) == 46
    assert rows[0][:9] == ["omega", "kx", "ky", "kz", "omega_prime", "kpx", "kpy", "kpz", "gamma"]
    assert float(rows[1][0]) == 1.0


def test_transform_k_zero_eigenvalues(tmp_path, capsys):
    path = model_path(tmp_path, ConstantScalar(2.0))
    code, out, _ = run_cli(
        capsys, "transform", "--model", path, "--velocity", "0.6,0,0", "--omega", "1", "--k", "0,0,0"
    )
    assert code == 0
    sp = as_complex(json.loads(out)["sigma_prime"])
    np.testing.assert_allclose(sp, np.diag([2.5, 1.6, 1.6]), rtol=1e-12, atol=1e-15)


def test_transform_superluminal_exit_2(tmp_path, capsys):
    path = model_path(tmp_path, ConstantScalar(2.0))
    code, out, err = run_cli(
        capsys, "transform", "--model", path, "--velocity", "1.5,0,0", "--omega", "1", "--k", "0,0,0"
    )
    assert code == 2
    assert "speed of light" in err


def test_transform_resonance_exit_3(tmp_path, capsys):
    path = model_path(tmp_path, ConstantScalar(2.0))
    code, out, err = run_cli(
        capsys, "transform", "--model", path, "--velocity", "0.5,0,0", "--omega", "1", "--k", "2,0,0"
    )
    assert code == 3
    assert "omega=1.0" in err


def test_static_point_is_reported_before_the_velocity(tmp_path, capsys):
    """transform evaluates the model before it checks the velocity; sweep
    checks the velocity before it visits any point."""
    path = model_path(tmp_path, Drude(2.0, 0.5))
    point = ["--model", path, "--velocity=1.5,0,0", "--omega=0", "--k=0,0,0"]
    code, out, err = run_cli(capsys, "transform", *point)
    assert (code, out) == (3, "")
    assert err == "error: at omega=0.0 k=[0.0, 0.0, 0.0]: |omega| = 0.0 is below the static floor 1.0e-14\n"
    code, out, err = run_cli(capsys, "sweep", *point)
    assert (code, out) == (2, "")
    assert err == "error: |v| = 1.5 is at or above the speed of light c = 1.0\n"


def test_transform_missing_model_exit_2(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "transform", "--model", str(tmp_path / "absent.json"), "--omega", "1", "--k", "0,0,0"
    )
    assert code == 2
    assert "absent.json" in err


def test_transform_invalid_model_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "drude",')
    code, out, err = run_cli(capsys, "transform", "--model", str(bad), "--omega", "1", "--k", "0,0,0")
    assert code == 2
    assert "line" in err


BIG = "1" + "0" * 400  # an integer literal beyond float range
IDENTITY = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(3)] for i in range(3)]


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"type": "constant-scalar", "sigma0": ["BIG", 0.0]}, "big.json.sigma0[0]"),
        ({"type": "drude", "sigma0": [1.0, 0.0], "tau": "BIG"}, "big.json.tau"),
        (
            {"type": "tabulated", "samples": [
                {"omega": 1.0, "k": [0.0, 0.0, 0.0], "sigma": IDENTITY},
                {"omega": 2.0, "k": [0.0, 0.0, 0.0], "sigma": [IDENTITY[0], [[0, 0], [1, "BIG"], [0, 0]], IDENTITY[2]]},
            ]},
            "big.json.samples[1].sigma[1][1][1]",
        ),
        (
            {"type": "tabulated", "samples": [{"omega": 1.0, "k": [0.0, "BIG", 0.0], "sigma": IDENTITY}]},
            "big.json.samples[0].k[1]",
        ),
    ],
    ids=["constant", "drude", "tabulated-sigma", "tabulated-k"],
)
def test_transform_overflowing_integer_exit_2(tmp_path, capsys, doc, where):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc).replace('"BIG"', BIG))
    code, out, err = run_cli(capsys, "transform", f"--model={path}", "--omega=1", "--k=0,0,0")
    assert (code, out) == (2, "")
    assert err == f"error: {tmp_path / where}: expected a real number, got an integer beyond float range\n"


def test_transform_overlong_integer_exit_2(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"type": "constant-scalar", "sigma0": [1%s, 0.0]}' % ("0" * 5000))
    code, out, err = run_cli(capsys, "transform", f"--model={path}", "--omega=1", "--k=0,0,0")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: unreadable number: ")


def test_transform_output_file(tmp_path, capsys):
    path = model_path(tmp_path, ConstantScalar(1.0))
    dest = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "transform", "--model", path, "--omega", "1", "--k", "0,0,0", "--output", str(dest)
    )
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["gamma"] == 1.0


# -- sweep -------------------------------------------------------------------


def test_sweep_drude_closed_form(tmp_path, capsys):
    path = model_path(tmp_path, Drude(2.0, 0.5))
    omegas = [float(w) for w in range(1, 11)]
    code, out, err = run_cli(
        capsys, "sweep", "--model", path, "--velocity", "0,0,0",
        "--omega", ",".join(str(w) for w in omegas), "--k", "0,0,0",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(csv.reader(io.StringIO(out)))[0] == SWEEP_COLUMNS
    assert len(rows) == 10
    for row, w in zip(rows, omegas):
        assert float(row["omega"]) == w
        expected = 2.0 / (1.0 - 1.0j * w * 0.5)
        got = complex(float(row["sp00_re"]), float(row["sp00_im"]))
        assert abs(got - expected) < 1e-14
        assert float(row["sp01_re"]) == 0.0


def test_sweep_is_omega_major(tmp_path, capsys):
    path = model_path(tmp_path, ConstantScalar(1.0))
    code, out, _ = run_cli(
        capsys, "sweep", "--model", path, "--omega", "1,2", "--k", "0.1,0,0;0.2,0,0"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(r["omega"]) for r in rows] == [1.0, 1.0, 2.0, 2.0]
    assert [float(r["kx"]) for r in rows] == [0.1, 0.2, 0.1, 0.2]


def test_sweep_skips_resonant_row(tmp_path, capsys):
    path = model_path(tmp_path, ConstantScalar(1.0))
    code, out, err = run_cli(
        capsys, "sweep", "--model", path, "--velocity", "0.5,0,0", "--omega", "1,2", "--k", "2,0,0"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(r["omega"]) for r in rows] == [2.0]
    assert "BoostResonance" in err
    assert "omega=1.0" in err


def test_sweep_all_skipped_exit_3(tmp_path, capsys):
    path = model_path(tmp_path, ConstantScalar(1.0))
    code, out, err = run_cli(
        capsys, "sweep", "--model", path, "--velocity", "0.5,0,0", "--omega", "1", "--k", "2,0,0"
    )
    assert code == 3
    assert out == ""
    assert "every grid point was skipped" in err


def test_sweep_structured_format(tmp_path, capsys):
    path = model_path(tmp_path, ConstantScalar(1.0))
    code, out, _ = run_cli(
        capsys, "sweep", "--model", path, "--velocity", "0.5,0,0", "--omega", "1,2", "--k", "2,0,0",
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 1
    assert len(doc["skipped"]) == 1
    assert doc["skipped"][0]["omega"] == 1.0


def test_sweep_no_grid_exit_2(tmp_path, capsys):
    path = model_path(tmp_path, ConstantScalar(1.0))
    code, _, err = run_cli(capsys, "sweep", "--model", path)
    assert code == 2
    assert "grid" in err


# -- config files ------------------------------------------------------------


def test_config_file_with_relative_model(tmp_path, capsys):
    subdir = tmp_path / "cfg"
    subdir.mkdir()
    save_model(Drude(2.0, 0.5), subdir / "m.json")
    config = {
        "c": 1.0,
        "model": "m.json",
        "velocity": [0.2, 0.0, 0.0],
        "grid": {"omega": [1.0, 2.0, 3.0], "k": [[0.5, 0.0, 0.0]]},
        "output": {"format": "csv"},
    }
    (subdir / "run.json").write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "sweep", "--config", str(subdir / "run.json"))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3

    # flags override the config grid
    code, out, _ = run_cli(capsys, "sweep", "--config", str(subdir / "run.json"), "--omega", "1.5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(r["omega"]) for r in rows] == [1.5]


def test_config_unknown_key_exit_2(tmp_path, capsys):
    point = {
        "model": {"type": "constant-scalar", "sigma0": [2.0, 0.0]},
        "grid": {"omega": [1.0], "k": [[0.0, 0.0, 0.0]]},
    }
    bad = [
        ("verify", {"freq": [1.0]}, "freq"),
        # wrong JSON types: strings, truncatable floats and booleans are not numbers
        ("verify", {"seed": "abc"}, "seed"),
        ("verify", {"samples": 2.9}, "samples"),
        ("transform", {**point, "velocity": [True, 0.0, 0.0]}, "velocity"),
        ("sweep", {**point, "grid": {"omega": [True], "k": [[0.0, 0.0, 0.0]]}}, "omega"),
        ("sweep", {**point, "grid": {"omega": [1.0], "k": [[0.0, False, 0.0]]}}, "'k'"),
        # integers beyond float range are not numbers either
        ("transform", {**point, "velocity": [0, 10**400, 0]}, "velocity"),
        ("sweep", {**point, "grid": {"omega": [-(10**400)], "k": [[0.0, 0.0, 0.0]]}}, "omega"),
    ]
    cfg = tmp_path / "run.json"
    for command, config, word in bad:
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2, config
        assert word in err


def test_config_inline_model(tmp_path, capsys):
    config = {
        "model": {"type": "constant-scalar", "sigma0": [2.0, 0.0]},
        "grid": {"omega": [1.0], "k": [[0.0, 0.0, 0.0]]},
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "transform", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["omega_prime"] == 1.0


# -- ohm ---------------------------------------------------------------------


def test_ohm_zero_velocity_all_forms_agree(tmp_path, capsys):
    path = model_path(tmp_path, ConstantScalar(2.0))
    code, out, err = run_cli(
        capsys, "ohm", "--model", path, "--velocity", "0,0,0",
        "--omega", "1", "--k", "0.5,0,0", "--E", "1,0,0",
    )
    assert code == 0
    record = json.loads(out)
    assert record["drift"] == record["textbook"]["drift"]
    assert record["textbook"]["diff_generalized_textbook"] == 0.0
    assert record["textbook"]["diff_generalized_nonrel"] == 0.0
    assert record["textbook"]["diff_textbook_nonrel"] == 0.0


def test_ohm_perpendicular_boost(tmp_path, capsys):
    # E and k along x, v along y: B = 0, E perpendicular to v, so the
    # generalized and textbook drifts are both gamma sigma E
    path = model_path(tmp_path, ConstantScalar(2.0))
    code, out, err = run_cli(
        capsys, "ohm", "--model", path, "--velocity", "0,0.6,0",
        "--omega", "1", "--k", "1,0,0", "--E", "3,0,0",
    )
    assert code == 0
    record = json.loads(out)
    drift = as_complex([record["drift"]])[0]
    np.testing.assert_allclose(drift, [1.25 * 2.0 * 3.0, 0.0, 0.0], rtol=1e-12, atol=1e-13)
    assert record["textbook"]["diff_generalized_textbook"] < 1e-12
    assert record["textbook"]["diff_textbook_nonrel"] == pytest.approx(1.5, rel=1e-12)


def test_ohm_anisotropic_with_textbook_flag_exit_2(tmp_path, capsys):
    path = model_path(tmp_path, DiagonalAnisotropic((1.0, 2.0, 3.0)))
    code, _, err = run_cli(
        capsys, "ohm", "--model", path, "--velocity", "0.1,0,0",
        "--omega", "1", "--k", "0.5,0,0", "--E", "1,0,0", "--textbook",
    )
    assert code == 2
    assert "scalar" in err


def test_ohm_anisotropic_without_flag_omits_textbook(tmp_path, capsys):
    path = model_path(tmp_path, DiagonalAnisotropic((1.0, 2.0, 3.0)))
    code, out, err = run_cli(
        capsys, "ohm", "--model", path, "--velocity", "0.1,0,0",
        "--omega", "1", "--k", "0.5,0,0", "--E", "1,0,0",
    )
    assert code == 0
    assert json.loads(out)["textbook"] is None
    assert "textbook outputs omitted" in err


def test_ohm_csv_blank_textbook_columns(tmp_path, capsys):
    path = model_path(tmp_path, DiagonalAnisotropic((1.0, 2.0, 3.0)))
    code, out, _ = run_cli(
        capsys, "ohm", "--model", path, "--velocity", "0.1,0,0",
        "--omega", "1", "--k", "0.5,0,0", "--E", "1,0,0", "--format", "csv",
    )
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert row["tbx_re"] == ""
    assert row["diff_textbook_nonrel"] == ""
    assert float(row["jx_re"]) != 0.0


def test_ohm_resonance_exit_3(tmp_path, capsys):
    path = model_path(tmp_path, ConstantScalar(1.0))
    code, _, err = run_cli(
        capsys, "ohm", "--model", path, "--velocity", "0.5,0,0",
        "--omega", "1", "--k", "2,0,0", "--E", "0,1,0",
    )
    assert code == 3
    assert "omega=1.0" in err


def test_ohm_continuity_in_output(tmp_path, capsys):
    path = model_path(tmp_path, Drude(2.0, 0.3))
    code, out, _ = run_cli(
        capsys, "ohm", "--model", path, "--velocity", "0.3,0.2,0",
        "--omega", "2", "--k", "0.4,0.1,0", "--E", "1,2,0.5",
    )
    assert code == 0
    record = json.loads(out)
    j = as_complex([record["j"]])[0]
    rho = complex(*record["rho"])
    kvec = np.array(record["k"])
    assert abs(record["omega"] * rho - kvec @ j) < 1e-12 * (abs(rho) + np.max(np.abs(j)) + 1)


# -- verify ------------------------------------------------------------------


def test_verify_small_run_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "--samples", "25", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = [s["name"] for s in doc["suites"]]
    assert names == [
        "oracle_equivalence",
        "round_trip",
        "gauge_invariance",
        "continuity",
        "ohm_covariance",
        "textbook_specialization",
    ]
    assert all(s["passed"] for s in doc["suites"])


def test_verify_inject_fault_exit_1(capsys):
    code, out, err = run_cli(capsys, "verify", "--samples", "25", "--seed", "1", "--inject-fault")
    assert code == 1
    assert "oracle_equivalence" in err
    doc = json.loads(out)
    assert doc["passed"] is False


def test_verify_bad_samples_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--samples", "0")
    assert code == 2
    assert "samples" in err


def test_verify_negative_seed_flag_exit_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--samples", "5", "--seed=-1")
    assert code == 2 and out == ""
    assert "seed must be non-negative, got -1" in err


def test_verify_negative_seed_in_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": -5, "samples": 5}))
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "seed must be non-negative, got -5" in err


def test_verify_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--samples", "20", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "verify", "--samples", "20", "--seed", "7")
    assert code1 == code2 == 0

    def strip_timing(text):
        doc = json.loads(text)
        for suite in doc["suites"]:
            suite.pop("seconds")
        return doc

    assert strip_timing(out1) == strip_timing(out2)


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--samples", "10", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    assert all(r["passed"] == "True" for r in rows)


# -- sweep round trip through the file format --------------------------------


def test_sweep_reload_and_boost_back(tmp_path, capsys):
    model = Drude(2.0, 0.5)
    path = model_path(tmp_path, model)
    dest = tmp_path / "sweep.csv"
    v = np.array([0.3, 0.0, 0.0])
    code, _, err = run_cli(
        capsys, "sweep", "--model", path, "--velocity", "0.3,0,0",
        "--omega", "1,2,3,4,5", "--k", "0.7,0,0", "--output", str(dest),
    )
    assert code == 0
    records = load_sweep_csv(dest)
    assert len(records) == 5
    tab = tabulated_from_sweep(records)

    worst = 0.0
    for rec in records:
        at_prime = rec["at_prime"]
        np.testing.assert_array_equal(tab.evaluate(at_prime), rec["sigma_prime"])
        back = boost_sigma_direct(FrameSample(tab.evaluate(at_prime), at_prime), -v)
        worst = max(worst, rel_error(back.sigma, model.evaluate(rec["at"])))
        worst = max(worst, rel_error(back.at.four(), rec["at"].four()))
    assert worst < 1e-9


@pytest.mark.parametrize(
    "row, message",
    [
        (["1.0"] * 9 + ["x"] + ["0.0"] * 17, "line 3, column sp00_im: expected a number, got 'x'"),
        (["1.0"] * 20, "line 3, column sp20_re: expected a number, got the end of the row"),
    ],
    ids=["not a number", "short row"],
)
def test_load_sweep_csv_bad_row_is_a_parse_error(row, message):
    good = ",".join(["1.0"] * len(SWEEP_COLUMNS))
    text = "\n".join([",".join(SWEEP_COLUMNS), good, ",".join(row), good]) + "\n"
    with pytest.raises(ParseError) as info:
        load_sweep_csv(io.StringIO(text))
    assert str(info.value) == message


# -- module entry point ------------------------------------------------------


def test_module_invocation_help():
    # the child imports the package under test, installed or not
    src = str(Path(ohmcov.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "ohmcov", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "transform" in proc.stdout
    assert "verify" in proc.stdout


def test_repeated_main_calls_share_no_state(tmp_path, capsys, monkeypatch):
    """In one process, each main call gives what the first call of a fresh
    process gives; the argument parser is built once per process."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal width
    model = model_path(tmp_path, Drude(2.0 + 0.5j, 0.7))
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "drude", "sigma0": [1.0, 0.0]}')
    point = [f"--model={model}", "--velocity=0.3,0.1,0", "--omega=2", "--k=0.4,0,0.2"]
    calls = [
        ["transform", *point],
        ["ohm", *point, "--E=1,0,0.5", "--format=csv"],
        ["transform", *point, "--bogus=1"],  # argparse exits with 2
        ["transform", f"--model={bad}", "--omega=1", "--k=0,0,0"],
        ["verify", "--samples=20", "--seed=3", "--format=csv"],
        ["transform", *point],
    ]
    src = str(Path(ohmcov.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def without_seconds(argv, out):  # verify's last column is its timing
        return [row[:-1] for row in csv.reader(io.StringIO(out))] if argv[0] == "verify" else out

    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "ohmcov", *argv], capture_output=True, text=True, env=env)
        assert (code, without_seconds(argv, out), err) == (
            fresh.returncode, without_seconds(argv, fresh.stdout), fresh.stderr
        ), argv
        assert code == (2 if argv in calls[2:4] else 0)
    assert cli._build_parser.cache_info().misses == 1
