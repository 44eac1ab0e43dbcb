"""End-to-end tests for the command line interface."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ohmcov
from ohmcov import ConstantScalar, DiagonalAnisotropic, Drude, save_model
from ohmcov import cli
from ohmcov.cli import SWEEP_COLUMNS, main


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


def test_transform_out_of_range_exit_3(tmp_path, capsys):
    """OutOfRange exits 3 as the other DomainErrors do, with the point's prefix."""
    assert set(ohmcov.DomainError.__subclasses__()) == {ohmcov.BoostResonance, ohmcov.StaticFrequency, ohmcov.OutOfRange}
    table = ohmcov.Tabulated([(ohmcov.Wavevector4(w, [0.0, 0.0, 0.0]), w * np.eye(3)) for w in (1.0, 3.0)])
    path = model_path(tmp_path, table)
    code, out, err = run_cli(capsys, "transform", "--model", path, "--velocity=0,0,0", "--omega=5", "--k=0,0,0")
    assert (code, out) == (3, "")
    assert err == ("error: at omega=5.0 k=[0.0, 0.0, 0.0]: omega = 5.0 outside the tabulated span [1.0, 3.0] "
                   "at k = [0.0, 0.0, 0.0]\n")


def test_velocity_is_checked_before_the_point(tmp_path, capsys):
    """Every point command checks its inputs, the velocity among them, before it computes anything at a point:
    a superluminal velocity at a static point exits 2 on the velocity, in transform as in sweep."""
    path = model_path(tmp_path, Drude(2.0, 0.5))
    point = ["--model", path, "--velocity=1.5,0,0", "--omega=0", "--k=0,0,0"]
    for command in ("transform", "sweep"):
        code, out, err = run_cli(capsys, command, *point)
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



def test_transform_overflowing_point_prints_one_error_line(tmp_path, capsys):
    """The replay that finds which check a point fails redoes its overflowing arithmetic without a numpy warning
    (an error under this suite's warning filter): stderr holds the error line alone."""
    path = model_path(tmp_path, Drude(2.0 + 0.5j, 0.7))
    code, out, err = run_cli(
        capsys, "transform", f"--model={path}", "--velocity=0.1,0,0", "--omega=1e308", "--k=1e308,0,0"
    )
    message = "error: at omega=1e+308 k=[1e+308, 0.0, 0.0]: response kernel entries must be finite\n"
    assert (code, out, err) == (2, "", message)


def test_ohm_overflowing_point_passes_the_faraday_check(capsys):
    """At omega = |k| = |E| = 1e300, k x E = 0 and Faraday's law holds.  Its check runs in scaled units, so it
    passes without a numpy warning (an error under this suite's filter)."""
    drude = Path(__file__).parent / "golden" / "drude.json"
    code, out, err = run_cli(capsys, "ohm", f"--model={drude}", "--velocity=0.1,0,0", "--omega=1e300",
                             "--k=1e300,0,0", "--E=1e300,0,0")
    assert (code, err) == (0, "")
    assert json.loads(out)["omega"] == 1e300


def test_ohm_scalar_conductivity_beyond_a_third_of_float_range_keeps_its_textbook_outputs(tmp_path, capsys):
    """sigma0 = 7e307 puts the trace of sigma' beyond float range; its isotropy test takes s0 from sigma'/3, so
    the textbook outputs are printed, without a numpy warning (an error under this suite's filter)."""
    path = model_path(tmp_path, ConstantScalar(7e307))
    code, out, err = run_cli(capsys, "ohm", f"--model={path}", "--velocity=0,0.6,0", "--omega=1", "--k=1,0,0",
                             "--E=1e-300,0,0")
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["textbook"]["drift"] == record["drift"] == [[8.75e7, 0.0], [0.0, 0.0], [0.0, 0.0]]


def test_ohm_scalar_conductivity_beyond_float_range_keeps_its_textbook_outputs(tmp_path, capsys):
    """|s0| itself is beyond float range here.  The isotropy test's scale is then inf, not an OverflowError (a
    traceback and exit 1), so the conductivity is a scalar and the textbook outputs are printed, all finite."""
    path = model_path(tmp_path, ConstantScalar(HUGE_SIGMA))
    code, out, err = run_cli(capsys, "ohm", f"--model={path}", "--velocity=0.1,0,0", "--omega=1", "--k=0,0,0",
                             "--E=1e-300,0,0")
    assert (code, err) == (0, "")
    record = json.loads(out, parse_constant=reject_constant)
    assert record["textbook"] is not None and finite_numbers(record)


@pytest.mark.parametrize("argv", [["transform", "--omega=1", "--k=1e301,-1e301,0"],
                                  ["sweep", "--omega=1,2", "--k=1,0,0;1e301,-1e301,0"]])
def test_overflowing_v_dot_k_is_no_resonance(capsys, argv):
    """v.k overflows to -inf here.  That is no resonance: the boosted conductivity is not finite, which its check
    rejects, as for a NaN v.k, without a numpy warning (an error under this suite's filter)."""
    drude = Path(__file__).parent / "golden" / "drude.json"
    code, out, err = run_cli(capsys, argv[0], f"--model={drude}", "--c=299792458", "--velocity=2e8,2e8,0", *argv[1:])
    message = "error: at omega=1.0 k=[1e+301, -1e+301, 0.0]: conductivity entries must be finite\n"
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("argv", [["--c=1e200", "--velocity=5e199,0,0", "--omega=2e200", "--k=1,0.5,0"],
                                  ["--c=1e-300", "--velocity=5e-301,0,0", "--omega=1", "--k=1,0,0"]])
def test_ohm_boosts_at_an_extreme_c(capsys, argv):
    """|v|^2 is beyond float range at c = 1e200, and the entries of v v^T underflow to zero at c = 1e-300.  A
    boost at |v| = c/2 still has gamma's bits at c = 1, without a numpy warning (an error under this suite's
    filter)."""
    drude = Path(__file__).parent / "golden" / "drude.json"
    code, out, err = run_cli(capsys, "ohm", f"--model={drude}", *argv, "--E=1,0,0")
    assert (code, err) == (0, "")
    assert json.loads(out)["gamma"] == 1.0 / math.sqrt(0.75)


def test_transform_boosts_where_gamma_v_is_beyond_float_range(capsys):
    """gamma |v| = 2.06e308 at |v| = 0.9 c = 9e307: beyond float range, though |v| < c.  The matrix's time column,
    gamma v / c, stays finite, without a numpy warning (an error under this suite's filter)."""
    drude = Path(__file__).parent / "golden" / "drude.json"
    code, out, err = run_cli(capsys, "transform", f"--model={drude}", "--c=1e308", "--velocity=9e307,0,0",
                             "--omega=1e300", "--k=0,1,0")
    assert (code, err) == (0, "")
    record = json.loads(out, parse_constant=reject_constant)
    assert finite_numbers(record) and record["gamma"] == 1.0 / math.sqrt(1.0 - 0.9 * 0.9)


@pytest.mark.parametrize("argv, message", [
    (["transform", "--velocity=inf,0,0", "--omega=1", "--k=1,0,0"], "velocity entries must be finite"),
    (["ohm", "--velocity=0.1,0,0", "--omega=1", "--k=1,0,0", "--E=0,nan,0"], "E entries must be finite"),
    (["sweep", "--velocity=0.1,0,0", "--omega=1,2", "--k=1,0,0;0,inf,0"], "kvec entries must be finite"),
])
def test_errors_about_inputs_name_no_point(capsys, argv, message):
    """Every input is checked where it is read, before anything is computed at the requested point: an error
    about an input keeps its text, and only an error about a value computed at the point names the point."""
    drude = Path(__file__).parent / "golden" / "drude.json"
    code, out, err = run_cli(capsys, argv[0], f"--model={drude}", *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


GOLDEN = Path(__file__).parent / "golden"

HUGE_SIGMA = 1.5e308 + 1.5e308j  # a constant conductivity whose modulus is beyond float range


def test_ohm_overflowing_b_prints_one_error_line(capsys):
    """k x E / omega overflows here.  B is computed under errstate, so its finiteness check rejects it without a
    numpy warning (an error under this suite's filter): stderr holds the error line alone."""
    code, out, err = run_cli(capsys, "ohm", f"--model={GOLDEN / 'drude.json'}", "--velocity=0.1,0,0", "--omega=1",
                             "--k=1e300,0,0", "--E=0,1e300,0")
    assert (code, out, err) == (2, "", "error: at omega=1.0 k=[1e+300, 0.0, 0.0]: B entries must be finite\n")


@pytest.mark.parametrize("fmt", ["csv", "structured"])
def test_ohm_non_finite_output_exits_2(capsys, fmt):
    """The textbook current overflows here, though the generalized one is finite.  A row that is not finite is
    rejected before it is rendered, naming the point and its first such column: no Infinity in the JSON."""
    code, out, err = run_cli(
        capsys, "ohm", f"--model={GOLDEN / 'drude.json'}",
        "--velocity=-0.36614705455121627,-0.13232133254075143,0.8114353944696451", "--omega=1e+150",
        "--k=1e-14,-1e-09,0.0", "--E=-1.7e+308,-1.7e+308,-1.7e+308", f"--format={fmt}",
    )
    message = "error: at omega=1e+150 k=[1e-14, -1e-09, 0.0]: output tbx_re = inf is not finite\n"
    assert (code, out, err) == (2, "", message)


def test_transform_non_finite_residual_exits_2(tmp_path, capsys):
    """|sigma| overflows here, so the residual's scale does and the residual is NaN: the row is rejected, not
    written."""
    path = model_path(tmp_path, ConstantScalar(HUGE_SIGMA))
    code, out, err = run_cli(capsys, "transform", f"--model={path}", "--omega=1", "--k=0,0,0")
    message = "error: at omega=1.0 k=[0.0, 0.0, 0.0]: output residual = nan is not finite\n"
    assert (code, out, err) == (2, "", message)


# Request floats at the extremes of float range: zero, subnormal, tiny, near the resonance floors, ordinary, huge.
EXTREMES = [0.0, 5e-324, 1e-300, 1e-14, 1e-9, 1.0, 3.0, 1e150, 1e300, 1.7e308]
EXTREME_FLOATS = st.sampled_from(EXTREMES + [-x for x in EXTREMES])


def below_top_speed(v: list) -> list:
    """v, scaled down to |v| = 1 - 1e-11 where it is faster."""
    norm = math.hypot(*v)
    return v if norm <= 1.0 - 1e-11 else [x * ((1.0 - 1e-11) / norm) for x in v]


GOLDEN_MODEL_NAMES = ["drude.json", "constant.json", "diagonal.json"]
GOLDEN_MODELS = st.sampled_from(GOLDEN_MODEL_NAMES)
VELOCITIES = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(below_top_speed)
EXTREME_VECTORS = st.lists(EXTREME_FLOATS, min_size=3, max_size=3)


def joined(xs: list) -> str:
    return ",".join(map(repr, xs))


TRANSFORM_ARGV = st.builds(
    lambda model, v, omega, k: [f"--model={GOLDEN / model}", f"--velocity={joined(v)}", f"--omega={omega!r}",
                                f"--k={joined(k)}"],
    GOLDEN_MODELS, VELOCITIES, EXTREME_FLOATS, EXTREME_VECTORS,
)


def finite_numbers(doc) -> bool:
    """Whether every number in the parsed JSON document is finite."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return all(map(finite_numbers, doc))
    return not isinstance(doc, float) or math.isfinite(doc)


def reject_constant(name: str):
    """json.loads's hook for NaN, Infinity and -Infinity, which are not JSON."""
    raise ValueError(f"{name} is not JSON")


def run_request(argv: list) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.fixture(scope="module")
def fuzz_models(tmp_path_factory) -> dict:
    """Model files by name: the golden ones, and "huge", a constant scalar whose modulus is beyond float range."""
    huge = tmp_path_factory.mktemp("models") / "huge.json"
    save_model(ConstantScalar(HUGE_SIGMA), huge)
    return {**{name: GOLDEN / name for name in GOLDEN_MODEL_NAMES}, "huge": huge}


FUZZ_MODELS = st.sampled_from([*GOLDEN_MODEL_NAMES, "huge"])
OHM_ARGV = st.builds(
    lambda v, omega, k, e: [f"--velocity={joined(v)}", f"--omega={omega!r}", f"--k={joined(k)}", f"--E={joined(e)}"],
    VELOCITIES, EXTREME_FLOATS, EXTREME_VECTORS, EXTREME_VECTORS,
)
OHM_NOTE = "conductivity is not scalar at the boosted point; textbook outputs omitted\n"


@pytest.mark.parametrize("fmt", ["csv", "structured"])
@settings(max_examples=300, deadline=None)
@example(model="constant.json",
         argv=["--velocity=-0.32572577677661774,0.07365416180597406,0.8362317224328075", "--omega=1e-14",
               "--k=-1e+300,-1e-300,-1.0", "--E=1e+150,5e-324,-1e-09"])
@given(model=FUZZ_MODELS, argv=OHM_ARGV)
def test_ohm_requests_keep_the_exit_code_contract(fuzz_models, fmt, model, argv):
    """Any ohm request at extreme floats exits 0, 2 or 3, without a numpy warning (an error under this suite's
    filter): exit 0 writes only finite numbers, in JSON that parses as such, and on stderr at most the note that
    the textbook outputs are omitted, exactly when they are; any other exit writes nothing on stdout and one error
    line on stderr."""
    code, out, err = run_request(["ohm", f"--model={fuzz_models[model]}", *argv, f"--format={fmt}"])
    assert code in (0, 2, 3)
    if code:
        assert out == "" and one_error_line(err)
    elif fmt == "structured":
        record = json.loads(out, parse_constant=reject_constant)
        assert err in ("", OHM_NOTE) and finite_numbers(record) and (record["textbook"] is None) == bool(err)
    else:
        header, row = out.splitlines()
        cells = row.split(",")
        assert err in ("", OHM_NOTE) and all(math.isfinite(float(cell)) for cell in cells if cell)
        assert ("" in cells) == bool(err)


SWEEP_ARGV = st.builds(
    lambda v, omegas, ks: [f"--velocity={joined(v)}", f"--omega={joined(omegas)}",
                           "--k=" + ";".join(map(joined, ks))],
    VELOCITIES, st.lists(EXTREME_FLOATS, min_size=1, max_size=2), st.lists(EXTREME_VECTORS, min_size=1, max_size=2),
)


@pytest.mark.parametrize("fmt", ["csv", "structured"])
@settings(max_examples=300, deadline=None)
@example(model="huge", argv=["--omega=1", "--k=0,0,0"])
@given(model=FUZZ_MODELS, argv=SWEEP_ARGV)
def test_sweep_requests_keep_the_exit_code_contract(fuzz_models, fmt, model, argv):
    """Any sweep of up to two omegas and two k at extreme floats exits 0, 2 or 3, without a numpy warning (an error
    under this suite's filter).  Exit 0 writes only finite numbers, in JSON that parses as such, and a `skipped`
    line on stderr per skipped point; exit 3 writes nothing on stdout, and the `skipped` lines and the line that
    no row was produced on stderr; exit 2 writes nothing on stdout and one error line on stderr."""
    code, out, err = run_request(["sweep", f"--model={fuzz_models[model]}", *argv, f"--format={fmt}"])
    lines = err.splitlines()
    assert code in (0, 2, 3)
    if code == 2:
        assert out == "" and one_error_line(err)
        return
    if code == 3:
        assert out == "" and lines.pop() == "sweep produced no rows: every grid point was skipped"
    elif fmt == "structured":
        doc = json.loads(out, parse_constant=reject_constant)
        assert finite_numbers(doc) and doc["rows"] and len(doc["skipped"]) == len(lines)
    else:
        header, *rows = out.splitlines()
        assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))
    assert all(line.startswith("skipped omega=") for line in lines)


@pytest.mark.parametrize("fmt", ["csv", "structured"])
@settings(max_examples=300, deadline=None)
@example(argv=[f"--model={GOLDEN / 'diagonal.json'}",
               "--velocity=-0.28914695271741603,0.08666092290499842,0.9533540392506271", "--omega=1.7e+308",
               "--k=-1e+150,-1e-09,-3.0"])
@example(argv=[f"--model={GOLDEN / 'constant.json'}",
               "--velocity=0.08357381783382796,0.035751081610642846,0.04168065662087503", "--omega=-1.7e+308",
               "--k=-1e-14,1.7e+308,1.7e+308"])
@given(argv=TRANSFORM_ARGV)
def test_transform_requests_keep_the_exit_code_contract(fmt, argv):
    """Any transform request at extreme floats exits 0, 2 or 3, without a numpy warning (an error under this suite's
    filter): exit 0 writes only finite numbers, in JSON that parses as such, and nothing on stderr; any other exit
    writes nothing on stdout and one error line on stderr."""
    code, out, err = run_request(["transform", *argv, f"--format={fmt}"])
    assert code in (0, 2, 3)
    if code:
        assert out == "" and one_error_line(err)
    elif fmt == "structured":
        assert err == "" and finite_numbers(json.loads(out, parse_constant=reject_constant))
    else:
        header, row = out.splitlines()
        assert err == "" and all(math.isfinite(float(cell)) for cell in row.split(","))


# -- output rendering ----------------------------------------------------------

# A record's row is its leaves' values in column order; each case builds the record that row stands for, in the
# shape its command writes, and its CSV cells, blank for a textbook that is None.
LEAVES = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308]),
)


def take(values, n: int) -> list:
    return [next(values) for _ in range(n)]


def pairs(values, n: int) -> list:
    return [take(values, 2) for _ in range(n)]


def point_record(values) -> dict:
    return {"omega": next(values), "k": take(values, 3), "omega_prime": next(values), "k_prime": take(values, 3),
            "gamma": next(values)}


def transform_record(values) -> dict:
    return {**point_record(values), "sigma": [pairs(values, 3) for _ in range(3)],
            "sigma_prime": [pairs(values, 3) for _ in range(3)], "residual": next(values)}


def ohm_record(values, scalar: bool) -> dict:
    record = {**point_record(values), "j": pairs(values, 3), "rho": take(values, 2), "drift": pairs(values, 3)}
    record["textbook"] = {
        "drift": pairs(values, 3),
        "nonrel_drift": pairs(values, 3),
        "diff_generalized_textbook": next(values),
        "diff_generalized_nonrel": next(values),
        "diff_textbook_nonrel": next(values),
    } if scalar else None
    return record


RENDER_CASES = {  # layout, keys that are None, row length, record builder
    "transform": (cli._TRANSFORM, frozenset(), 46, transform_record),
    "ohm scalar": (cli._OHM, frozenset(), 38, lambda values: ohm_record(values, True)),
    "ohm non-scalar": (cli._OHM, frozenset({"textbook"}), 23, lambda values: ohm_record(values, False)),
}


@pytest.mark.parametrize("case", sorted(RENDER_CASES))
@given(data=st.data())
def test_render_gives_the_standard_librarys_bytes(case, data):
    layout, nulls, n, build = RENDER_CASES[case]
    row = data.draw(st.lists(LEAVES, min_size=n, max_size=n))
    values = iter(row)
    record = build(values)
    assert next(values, None) is None  # the record holds every value of the row
    assert cli._render("structured", layout, [row], nulls) == json.dumps(record, indent=2) + "\n"

    columns = cli._columns(layout)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerow(row + [""] * (len(columns) - n))  # the textbook columns come last
    assert cli._render("csv", layout, [row], nulls) == buf.getvalue()


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


@pytest.mark.parametrize("fmt", ["csv", "structured"])
def test_sweep_non_finite_residual_exits_2(tmp_path, capsys, fmt):
    """As in transform, a point whose residual is not finite ends the sweep there, in grid order, with exit 2
    naming it: no nan cell, and no NaN in the JSON."""
    path = model_path(tmp_path, ConstantScalar(HUGE_SIGMA))
    code, out, err = run_cli(capsys, "sweep", f"--model={path}", "--omega=1,2", "--k=0,0,0", f"--format={fmt}")
    message = "error: at omega=1.0 k=[0.0, 0.0, 0.0]: output residual = nan is not finite\n"
    assert (code, out, err) == (2, "", message)


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


# JSON values for a 3-vector field: numbers, bools and integers beyond float range, alone, in lists of any length,
# or as [re, im] pairs in lists
JSON_SCALARS = st.one_of(st.booleans(), st.floats(), st.integers(-(2**60), 2**60),
                         st.integers(2**1024, 2**1100).flatmap(lambda n: st.sampled_from([n, -n])))
JSON_ENTRIES = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, min_size=2, max_size=2))
JSON_VALUES = st.one_of(JSON_SCALARS, st.lists(JSON_ENTRIES, max_size=5),
                        st.lists(JSON_ENTRIES, min_size=3, max_size=3))


@settings(deadline=None)  # writes three files and runs transform three times per example
@given(value=JSON_VALUES)
def test_config_and_model_fields_share_their_rules(value):
    """A 3-vector from a config file (velocity, an entry of grid.k) and from a model file (a tabulated sample's k)
    is accepted or refused alike, and a refusal exits 2 naming the field's location, with the same rest of message."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "m.json").write_text(json.dumps(DRUDE_DOC))
        sample = {"omega": 1.0, "k": value, "sigma": IDENTITY}
        (tmp / "t.json").write_text(json.dumps({"type": "tabulated", "samples": [sample]}))
        point = {"model": "m.json", "grid": {"omega": [1.0], "k": [[0.0, 0.0, 0.0]]}}
        routes = [  # (location of the field, config file name and document, or None for the model file)
            (f"{tmp / 'v.json'}['velocity']", ("v.json", {**point, "velocity": value})),
            (f"{tmp / 'k.json'}['grid']['k'][0]", ("k.json", {**point, "grid": {"omega": [1.0], "k": [value]}})),
            (f"{tmp / 't.json'}.samples[0].k", None),
        ]
        refusals = []
        for where, config in routes:
            if config:
                (tmp / config[0]).write_text(json.dumps(config[1]))
            argv = [f"--config={tmp / config[0]}"] if config else [f"--model={tmp / 't.json'}", *POINT]
            code, _, err = run_request(["transform", *argv])
            refused = err.startswith(f"error: {where}")
            assert code == 2 or not refused
            refusals.append(err[len(f"error: {where}"):] if refused else None)
    assert refusals[0] == refusals[1] == refusals[2]


POINT = ["--omega=1", "--k=0,0,0"]


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (["transform", "--model=m.json", "--velocity=1,2", *POINT], {},
         "--velocity: expected 3 comma-separated numbers, got '1,2'"),
        (["transform", "--model=m.json", "--velocity=a,0,0", *POINT], {},
         "--velocity: could not convert string to float: 'a'"),
        (["sweep", "--model=m.json", "--omega=1,x", "--k=0,0,0"], {},
         "--omega: could not convert string to float: 'x'"),
        (["transform", "--config=missing.json", *POINT], {},
         "cannot read config 'missing.json': [Errno 2] No such file or directory: 'missing.json'"),
        (["transform", "--config=bad.json"], {"bad.json": '{"c": 1,}'},
         "bad.json: invalid JSON at line 1 column 9: Expecting property name enclosed in double quotes"),
        (["transform", "--config=list.json"], {"list.json": "[1, 2]"}, "list.json: config must be an object"),
        # the rest of this message is CPython's, so only its start is compared
        (["transform", "--config=long.json"], {"long.json": '{"c": ' + "1" * 5001 + "}"},
         "long.json: unreadable number: "),
        (["transform", *POINT], {}, "no conductivity model given (use --model or the 'model' config key)"),
        (["transform", "--model=m.json", "--omega=1,2", "--k=0,0,0"], {},
         "this command needs exactly one omega and one k"),
        (["ohm", "--model=m.json", *POINT], {}, "ohm needs an electric field amplitude (--E or the 'E' config key)"),
        (["transform", "--model=latin1.json", "--velocity=0.1,0,0", *POINT],
         {"latin1.json": b'{"type": "constant-scalar", "sigma0": [1.0, 0.0]}\xff'},
         "cannot read model file 'latin1.json': 'utf-8' codec can't decode byte 0xff in position 49: "
         "invalid start byte"),
        (["transform", "--config=latin1.json"], {"latin1.json": b'{"c": 1}\xff'},
         "cannot read config 'latin1.json': 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"),
    ],
    ids=["velocity count", "velocity number", "omega number", "missing config", "config JSON", "config list",
         "config overlong integer", "no model", "two omegas", "no E", "model not UTF-8", "config not UTF-8"],
)
def test_bad_input_exit_2(tmp_path, monkeypatch, capsys, argv, files, message):
    monkeypatch.chdir(tmp_path)
    save_model(ConstantScalar(2.0), "m.json")
    for name, text in files.items():
        Path(name).write_bytes(text) if isinstance(text, bytes) else Path(name).write_text(text)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith(f"error: {message}") if message.endswith(": ") else line == f"error: {message}"


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
    calls = [  # (argv, exit code); the first call runs again last; the full parse reads only the --bogus call
        (["transform", *point], 0),
        (["ohm", *point, "--E=1,0,0.5", "--format=csv"], 0),
        (["transform", "--model", model, "--velocity", "0.5,0,0", "--omega", "2", "--k", "1,0,0"], 0),  # README's form
        (["ohm", *point, "--E=1,0,0.5", "--textbook"], 0),
        (["transform", *point, "--bogus=1"], 2),  # argparse exits with 2
        (["transform", *point[1:], "--mod", model], 0),  # an abbreviation
        (["transform", f"--model={bad}", "--omega=1", "--k=0,0,0"], 2),
        (["verify", "--samples=20", "--seed=3", "--format=csv", "--inject-fault"], 1),
        (["transform", *point], 0),
    ]
    src = str(Path(ohmcov.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def without_seconds(argv, out):  # verify's last column is its timing
        return [row[:-1] for row in csv.reader(io.StringIO(out))] if argv[0] == "verify" else out

    for argv, expected in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "ohmcov", *argv], capture_output=True, text=True, env=env)
        assert (code, without_seconds(argv, out), err) == (
            fresh.returncode, without_seconds(argv, fresh.stdout), fresh.stderr
        ), argv
        assert code == expected
    assert cli._build_parser.cache_info().misses == 1


def test_write_puts_the_chunks_utf8_bytes_in_a_file_and_their_text_on_stdout(tmp_path, capsys):
    chunks = ["omega,k\n", "1.0,-0.0\n", "", "\u03c9 \u2260 0\r\n", "end"]
    path = tmp_path / "out.csv"
    cli._write(str(path), iter(chunks))
    assert path.read_bytes() == "".join(chunks).encode("utf-8")
    cli._write(None, iter(chunks))
    assert capsys.readouterr().out == "".join(chunks)


# -- reading argv ----------------------------------------------------------------


SUBPARSERS = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
OPTION_STRINGS = sorted({s for p in SUBPARSERS.values() for a in p._actions for s in a.option_strings})
ARG_VALUES = st.one_of(
    st.sampled_from(["1", "-1", "", "0.5,0,-0.25", "-0.3,0.1,0", "1e400", "nan", "x", "csv", "structured", "xml",
                     "--", "-", "-h", "a=b", "transform"]),
    st.text(max_size=4),
)
ARG_TOKENS = st.one_of(
    st.builds(lambda opt, value: [f"{opt}={value}"], st.sampled_from(OPTION_STRINGS), ARG_VALUES),
    st.builds(lambda opt, value: [opt, value], st.sampled_from(OPTION_STRINGS), ARG_VALUES),
    st.builds(lambda opt: [opt], st.sampled_from(OPTION_STRINGS)),
    st.builds(lambda opt, n, value: [opt[:n], value], st.sampled_from(OPTION_STRINGS), st.integers(2, 6), ARG_VALUES),
    st.builds(lambda value: [value], ARG_VALUES),
    st.sampled_from([["--"], ["-h"], ["--help"], ["--bogus"], ["--bogus=1"]]),
)
TYPED_VALUES = {"--c": ["2.5", "-3", "1e400", "nan", "x"], "--seed": ["0", "-1", "12", "1.5"],
                "--samples": ["20", "-2", "x"], "--format": ["csv", "structured", "xml"]}


def command_argv(name: str):
    """argv of the command's own long options but --help, mostly well formed: a flag bare, a value after "=" or a
    space."""
    def token(action, opt):
        if action.nargs == 0:
            return st.just([opt])
        values = st.sampled_from(TYPED_VALUES.get(opt, ["1", "0.5,0,-0.25", "-0.3,0.1,0", "", "a=b", "x y"]))
        return st.builds(lambda value, eq: [f"{opt}={value}"] if eq else [opt, value], values, st.booleans())
    options = [(a, s) for a in SUBPARSERS[name]._actions if a.dest != "help" for s in a.option_strings
               if s.startswith("--")]
    tokens = st.sampled_from(options).flatmap(lambda option: token(*option))
    return st.lists(tokens, max_size=8).map(lambda ts: [name, *(arg for t in ts for arg in t)])


ARGV = st.one_of(
    st.builds(
        lambda head, tokens: head + [arg for token in tokens for arg in token],
        st.sampled_from([[], *([name] for name in SUBPARSERS), ["-h"], ["--help"], ["bogus"], ["trans"]]),
        st.lists(ARG_TOKENS, max_size=6),
    ),
    *map(command_argv, SUBPARSERS),
)


def parse_outcome(parse, argv: list):
    """parse(argv)'s namespace as the repr of its dict, which tells NaN values equal and keeps their order, or its
    SystemExit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return repr(vars(parse(list(argv))))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None)
@example(argv=[])
@example(argv=["ohm", "--textbook", "--E", "1,0,0", "--E=2,0,0", "--c", "3"])
@example(argv=["transform", "--model=--", "--c", "nan"])
@example(argv=["verify", "--seed", "-1"])
@example(argv=["sweep", "--format=xml", "--k=-1,0,0"])
@given(argv=ARGV)
def test_main_parses_argv_as_argparse_does(argv):
    """Every argv gives the namespace argparse gives, command and handler included, or the same exit with the same
    help, usage or error text."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal width
        assert parse_outcome(cli._parse_args, argv) == parse_outcome(cli._build_parser().parse_args, argv)


def test_point_requests_are_read_without_argparse(monkeypatch):
    """The benchmark's --opt=value form and the README's space-separated form never reach argparse."""
    cli._commands()  # built from argparse's parser once

    def refuse(*args, **kwargs):
        raise AssertionError("argparse was called")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    args = cli._parse_args(["ohm", "--model=m.json", "--velocity=-0.1,0,0.2", "--omega", "2", "--k=0,-1,0", "--E",
                            "1,0,0", "--output=p.json", "--textbook", "--c", "2.5"])
    assert (args.command, args.handler, args.velocity, args.omega, args.c, args.textbook, args.format) == (
        "ohm", cli.cmd_ohm, "-0.1,0,0.2", "2", 2.5, True, None)
    args = cli._parse_args(["verify", "--seed=3", "--samples", "20", "--inject-fault", "--format=csv"])
    assert (args.seed, args.samples, args.inject_fault, args.format) == (3, 20, True, "csv")


@pytest.mark.parametrize("argv", [["verify", "--seed", 3], ["verify", 3], [3]])
def test_argv_that_is_not_all_strings_goes_to_argparse(argv):
    with pytest.raises(TypeError) as direct:
        cli._parse_args(argv)
    with pytest.raises(TypeError) as reference:
        cli._build_parser().parse_args(argv)
    assert str(direct.value) == str(reference.value)


def test_only_plain_store_and_store_true_options_are_read_without_argparse(monkeypatch, tmp_path):
    """Each action of each command is a long option that stores one value or a store_true flag, which _parse_args
    reads itself, or a kind it hands to argparse: help, append, count, nargs, store_const, store_false, and any
    option of a command that has a positional, a required option, a text default, a mutually exclusive group or
    argument files, or of any command where the top-level parser has an option or a default."""
    assert list(cli._commands()) == list(SUBPARSERS)
    for name, parser in SUBPARSERS.items():
        options = cli._commands()[name][1]
        for action in parser._actions:
            if any(s in options for s in action.option_strings):
                assert (type(action), action.nargs) in [(argparse._StoreAction, None), (argparse._StoreTrueAction, 0)]
                assert [s for s in action.option_strings if s in options] == [
                    s for s in action.option_strings if s.startswith("--")]
            else:
                assert action.dest == "help"

    parser = argparse.ArgumentParser(prog="probe")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("required").add_argument("--x", required=True)
    sub.add_parser("positional").add_argument("x", nargs="?")
    sub.add_parser("text").add_argument("--x", type=float, default="1")
    exclusive = sub.add_parser("exclusive").add_mutually_exclusive_group()
    exclusive.add_argument("--x")
    exclusive.add_argument("--y")
    sub.add_parser("files", fromfile_prefix_chars="@").add_argument("--x")
    plain = sub.add_parser("plain")
    plain.add_argument("--x", "-x", type=float)
    plain.add_argument("--flag", action="store_true")
    handed_over = {"--append": {"action": "append"}, "--count": {"action": "count"}, "--plus": {"nargs": "+"},
                   "--maybe": {"nargs": "?"}, "--one": {"nargs": 1}, "--const": {"action": "store_const", "const": 1},
                   "--false": {"action": "store_false"}, "--extend": {"action": "extend", "nargs": "*"}}
    for option, kind in handed_over.items():
        plain.add_argument(option, **kind)
    argument_file = tmp_path / "args.txt"
    argument_file.write_text("2\n")
    monkeypatch.setattr(cli, "_build_parser", lambda: parser)
    cli._commands.cache_clear()
    try:
        assert {name: list(options) for name, (_, options) in cli._commands().items()} == {"plain": ["--x", "--flag"]}
        for argv in (["required", "--x=1"], ["positional"], ["text"], ["text", "--x=2"], ["exclusive", "--x=1"],
                     ["exclusive", "--x=1", "--y=2"], ["files", "--x", f"@{argument_file}"], ["plain", "--x", "2"],
                     ["plain", "-x", "2"], ["plain", "--append=1", "--append=2"], ["plain", "--count", "--count"],
                     ["plain", "--plus", "1", "2"], ["plain", "--maybe"], ["plain", "--one", "3"], ["plain", "--flag"],
                     ["plain", "--const"], ["plain", "--false"], ["plain", "--extend", "a", "b"]):
            assert parse_outcome(cli._parse_args, argv) == parse_outcome(parser.parse_args, argv), argv
        top_option = argparse.ArgumentParser(prog="probe")
        top_option.add_argument("--verbose", action="store_true")
        top_default = argparse.ArgumentParser(prog="probe")
        top_default.set_defaults(verbose=False)
        for parser in (top_option, top_default):
            parser.add_subparsers(dest="command").add_parser("plain").add_argument("--x")
            cli._commands.cache_clear()
            assert cli._commands() == {}
            argv = ["plain", "--x=1"]
            assert parse_outcome(cli._parse_args, argv) == parse_outcome(parser.parse_args, argv)
    finally:
        cli._commands.cache_clear()


# -- the model cache -----------------------------------------------------------


def fresh_run(argv):
    """ohmcov in a new process: its exit code, stdout and stderr."""
    src = str(Path(ohmcov.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "ohmcov", *argv], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


DRUDE_DOC = {"type": "drude", "sigma0": [2.0, 0.5], "tau": 0.7}


def test_edited_model_file_is_seen(tmp_path, capsys):
    """A model file rewritten in place, to the same length and with its old
    modification time, gives the new model's output on the next call."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(DRUDE_DOC))
    stat = path.stat()
    argv = ["transform", f"--model={path}", "--velocity=0.3,0.1,0", "--omega=2", "--k=0.4,0,0.2"]
    before = run_cli(capsys, *argv)
    edited = json.dumps({**DRUDE_DOC, "sigma0": [3.0, 0.5]})
    assert len(edited) == stat.st_size
    path.write_text(edited)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_mtime_ns == stat.st_mtime_ns
    after = run_cli(capsys, *argv)
    assert after[0] == 0 and after != before
    assert after == fresh_run(argv)


def test_broken_model_file_after_a_good_one(tmp_path, capsys):
    """A document broken after a good one at the same path fails as in a
    fresh process, every time, and works again once repaired."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(DRUDE_DOC))
    argv = ["transform", f"--model={path}", "--omega=2", "--k=0.4,0,0.2"]
    good = run_cli(capsys, *argv)
    assert good[0] == 0
    path.write_text('{"type": "drude", "sigma0": [2.0, 0.5]}')
    broken = fresh_run(argv)
    assert broken == (2, "", f"error: {path}: missing field 'tau'\n")
    assert run_cli(capsys, *argv) == broken
    assert run_cli(capsys, *argv) == broken
    path.write_text(json.dumps(DRUDE_DOC))
    assert run_cli(capsys, *argv) == good


def test_same_faulty_text_at_two_paths(tmp_path, capsys):
    """The error of a document names the path it was read from."""
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        path.write_text('{"type": "constant-scalar", "sigma0": [1.0]}')
        code, out, err = run_cli(capsys, "transform", f"--model={path}", "--omega=1", "--k=0,0,0")
        assert (code, err) == (2, f"error: {path}.sigma0: expected a [re, im] pair, got [1.0]\n")


def test_model_cache_is_bounded(tmp_path, capsys):
    """More distinct documents than the bound keep the cache at the bound;
    a document read again is parsed once."""
    argv = ["transform", "--omega=1", "--k=0,0,0"]
    for i in range(cli.MODEL_CACHE_SIZE + 3):
        path = tmp_path / f"model{i}.json"
        path.write_text(json.dumps({"type": "constant-scalar", "sigma0": [1.0 + i, 0.0]}))
        assert run_cli(capsys, *argv, f"--model={path}")[0] == 0
        assert cli._parsed_model.cache_info().currsize <= cli.MODEL_CACHE_SIZE
    assert cli._parsed_model.cache_info().currsize == cli.MODEL_CACHE_SIZE
    hits = cli._parsed_model.cache_info().hits
    assert run_cli(capsys, *argv, f"--model={path}")[0] == 0
    assert cli._parsed_model.cache_info().hits == hits + 1
