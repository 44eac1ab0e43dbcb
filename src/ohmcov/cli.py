"""Command line front end.

Subcommands: transform (one point), sweep (a grid to CSV or JSON),
ohm (moving-medium current at one point), verify (randomized self checks).

Data goes to stdout or --output; diagnostics go to stderr.  Exit codes:
0 success, 1 verification failure, 2 usage or configuration error,
3 domain error (resonance, static frequency, out-of-range point).

Options may come from flags or from a JSON config file (--config) with
keys c, model, velocity, grid {omega, k}, output {format, path}, seed,
samples, E; flags win over the file.  "model" is a path to a model
document or the document itself inlined.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

import numpy as np

from .errors import (
    BoostResonance,
    InvariantViolation,
    OhmcovError,
    OutOfRange,
    ParseError,
    SpeedLimit,
    StaticFrequency,
)
from .materials import MaterialModel, Tabulated, load_model, model_from_dict
from .minkowski import BoostParams, UnitsConfig, Wavevector4, transform_wavevector
from .ohm import fields_from_electric, generalized_ohm, textbook_ohm, textbook_ohm_nr
from .transform import FrameSample, _direct, _flagged, _frame_faults, _one, _oracle, _raise, transform_sigma_oracle
from .verify import _rel_errors, rel_error, run_all

__all__ = ["main", "load_sweep_csv", "tabulated_from_sweep"]

# Output layouts.  Every command builds JSON-ready records once; a layout
# lists (record key, CSV column prefix, kind), the kind gives the CSV
# column suffixes, and the record value, flattened, fills those columns.
# Dotted keys reach into nested objects, and a None on the way leaves the
# cells blank.
_SUFFIXES = {
    "scalar": [""],
    "vector": ["x", "y", "z"],
    "complex": ["_re", "_im"],
    "complex vector": [f"{a}_{p}" for a in "xyz" for p in ("re", "im")],
    "complex matrix": [f"{i}{j}_{p}" for i in range(3) for j in range(3) for p in ("re", "im")],
}

_POINT = [
    ("omega", "omega", "scalar"),
    ("k", "k", "vector"),
    ("omega_prime", "omega_prime", "scalar"),
    ("k_prime", "kp", "vector"),
]
_TRANSFORM = _POINT + [
    ("gamma", "gamma", "scalar"),
    ("sigma", "s", "complex matrix"),
    ("sigma_prime", "sp", "complex matrix"),
    ("residual", "residual", "scalar"),
]
_SWEEP = _POINT + [("sigma_prime", "sp", "complex matrix"), ("residual", "residual", "scalar")]
_OHM = _POINT + [
    ("gamma", "gamma", "scalar"),
    ("j", "j", "complex vector"),
    ("rho", "rho", "complex"),
    ("drift", "drift", "complex vector"),
    ("textbook.drift", "tb", "complex vector"),
    ("textbook.nonrel_drift", "nr", "complex vector"),
    ("textbook.diff_generalized_textbook", "diff_generalized_textbook", "scalar"),
    ("textbook.diff_generalized_nonrel", "diff_generalized_nonrel", "scalar"),
    ("textbook.diff_textbook_nonrel", "diff_textbook_nonrel", "scalar"),
]
_VERIFY = [(name, name, "scalar") for name in ("name", "samples", "max_residual", "tolerance", "passed", "seconds")]


def _columns(layout) -> list[str]:
    return [prefix + suffix for _, prefix, kind in layout for suffix in _SUFFIXES[kind]]


SWEEP_COLUMNS = _columns(_SWEEP)

SWEEP_BLOCK = 1024  # grid points per kernel call: spreads numpy's cost per call, bounds the temporaries

_CONFIG_KEYS = {"c", "model", "velocity", "grid", "output", "seed", "samples", "E"}

ISOTROPY_RTOL = 1e-12


class ConfigError(OhmcovError):
    """Bad or missing command line / config file input."""


# ---------------------------------------------------------------------------
# options: flags, then the config file, then defaults


def _floats(text: str, n: int, name: str) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ConfigError(f"{name}: expected {n} comma-separated numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _float_list(text: str, name: str) -> list[float]:
    try:
        return [float(p.strip()) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


# JSON types: bool is a subclass of int in Python but never a number here, nor is an int beyond float range.
def _is_number(x) -> bool:
    return isinstance(x, float) or (_is_int(x) and abs(x) <= sys.float_info.max)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_list(x, n: int | None, item) -> bool:
    return isinstance(x, list) and (n is None or len(x) == n) and all(item(e) for e in x)


def _is_vec3(x) -> bool:
    return _is_list(x, 3, _is_number)


def _option(flag, cfg: dict, key: str, valid, what: str, default):
    """The flag's value if given, else cfg[key] if present, else default.

    flag arrives parsed; a config value must pass valid, or ConfigError
    names the key and the expected type what.
    """
    if flag is not None:
        return flag
    if key not in cfg:
        return default
    if not valid(cfg[key]):
        raise ConfigError(f"config key {key!r} must be {what}, got {cfg[key]!r}")
    return cfg[key]


def _load_config(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal of more digits than Python converts
        raise ConfigError(f"{path}: unreadable number: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be an object")
    extras = set(doc) - _CONFIG_KEYS
    if extras:
        raise ConfigError(f"{path}: unknown config key(s) {sorted(extras)!r}")
    doc["__dir__"] = str(Path(path).parent)
    return doc


def _setup(args, default_format: str) -> tuple[dict, UnitsConfig, str, str | None]:
    """Config file, units and output destination, which every command takes."""
    cfg = _load_config(args.config) if args.config else {}
    units = UnitsConfig(_option(args.c, cfg, "c", _is_number, "a number", 1.0))
    out = _option(None, cfg, "output", lambda x: isinstance(x, dict), "an object", {})
    fmt = _option(args.format, out, "format", lambda x: x in ("csv", "structured"), "csv or structured", default_format)
    path = _option(args.output, out, "path", lambda x: isinstance(x, str), "a string", None)
    return cfg, units, fmt, path


def _model_and_velocity(args, cfg: dict) -> tuple[MaterialModel, np.ndarray]:
    spec = _option(args.model, cfg, "model", lambda x: isinstance(x, (str, dict)), "a path or an inline model", None)
    if spec is None:
        raise ConfigError("no conductivity model given (use --model or the 'model' config key)")
    if isinstance(spec, dict):
        model = model_from_dict(spec)
    else:
        # a path from the config file is relative to that file; joining keeps an absolute one
        model = load_model(spec if args.model is not None else Path(cfg["__dir__"]) / spec)
    flag = None if args.velocity is None else _floats(args.velocity, 3, "--velocity")
    v = _option(flag, cfg, "velocity", _is_vec3, "3 numbers", [0.0, 0.0, 0.0])
    return model, np.array(v, dtype=float)


def _resolve_grid(args, cfg: dict) -> tuple[list[float], list[list[float]]]:
    grid = _option(None, cfg, "grid", lambda x: isinstance(x, dict), "an object", {})
    flag = None if args.omega is None else _float_list(args.omega, "--omega")
    omegas = _option(flag, grid, "omega", lambda x: _is_list(x, None, _is_number), "a list of numbers", [])
    flag = None if args.k is None else [_floats(part, 3, "--k") for part in args.k.split(";") if part.strip()]
    ks = _option(flag, grid, "k", lambda x: _is_list(x, None, _is_vec3), "a list of 3-vectors", [])
    return [float(w) for w in omegas], [[float(x) for x in kv] for kv in ks]


def _resolve_single_point(args, cfg: dict) -> Wavevector4:
    omegas, ks = _resolve_grid(args, cfg)
    if len(omegas) != 1 or len(ks) != 1:
        raise ConfigError("this command needs exactly one omega and one k")
    return Wavevector4(omegas[0], ks[0])


def _resolve_efield(args, cfg: dict) -> np.ndarray:
    flag = None if args.E is None else _floats(args.E, 3, "--E")
    valid = lambda x: _is_list(x, 3, lambda c: _is_number(c) or _is_list(c, 2, _is_number))  # noqa: E731
    e = _option(flag, cfg, "E", valid, "3 numbers or [re, im] pairs", None)
    if e is None:
        raise ConfigError("ohm needs an electric field amplitude (--E or the 'E' config key)")
    return np.array([complex(*c) if isinstance(c, list) else complex(c) for c in e])


# ---------------------------------------------------------------------------
# output


def _pairs(values: np.ndarray) -> list:
    """Complex scalars, vectors or matrices as nested [re, im] lists."""
    return np.stack([np.real(values), np.imag(values)], axis=-1).tolist()


def _cells(layout, record: dict) -> list:
    """The record's values, flattened, as one CSV row in the layout's columns."""
    row = []
    for key, _, kind in layout:
        value = record
        for part in key.split("."):
            value = None if value is None else value[part]
        cells = [""] * len(_SUFFIXES[kind]) if value is None else [value]
        while isinstance(cells[0], list):
            cells = [x for part in cells for x in part]
        row += cells
    return row


def _emit(fmt: str, path: str | None, doc, layout, rows: list[list]) -> None:
    """Write doc as JSON, or the flat rows as CSV in the layout's columns."""
    if fmt == "structured":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        # csv.writer's bytes: no cell (float, int, bool, blank, suite name) needs quoting
        text = "".join([",".join(_columns(layout)) + "\n", *[",".join(map(str, row)) + "\n" for row in rows]])
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _sweep_record(row: list) -> dict:
    """A row in SWEEP_COLUMNS order as its JSON record; sigma_prime's [re, im] pairs fill it row by row."""
    sigma_p = [[row[i:i + 2] for i in range(j, j + 6, 2)] for j in (8, 14, 20)]
    return {"omega": row[0], "k": row[1:4], "omega_prime": row[4], "k_prime": row[5:8],
            "sigma_prime": sigma_p, "residual": row[26]}


def _point(kw: Wavevector4, kw_p: Wavevector4) -> dict:
    return {"omega": kw.omega, "k": kw.kvec.tolist(), "omega_prime": kw_p.omega, "k_prime": kw_p.kvec.tolist()}


# ---------------------------------------------------------------------------
# subcommands


def cmd_transform(args) -> int:
    cfg, units, fmt, path = _setup(args, "structured")
    model, v = _model_and_velocity(args, cfg)
    kw = _resolve_single_point(args, cfg)

    try:
        sample = FrameSample(model.evaluate(kw), kw)
        bp = BoostParams(v, units)  # after the model: a point it rejects is reported before a bad velocity
        direct = _one(_direct, sample.sigma, sample.at, bp)  # boost_sigma_direct on the boost built here
        oracle = transform_sigma_oracle(sample, bp.matrix(), units)
    except (BoostResonance, StaticFrequency, OutOfRange) as exc:
        raise type(exc)(f"at omega={kw.omega!r} k={kw.kvec.tolist()!r}: {exc}") from exc
    record = {
        **_point(kw, direct.at),
        "gamma": bp.gamma,
        "sigma": _pairs(sample.sigma),
        "sigma_prime": _pairs(direct.sigma),
        "residual": rel_error(direct.sigma, oracle.sigma),  # both move (k, omega) by the same code
    }
    _emit(fmt, path, record, _TRANSFORM, [_cells(_TRANSFORM, record)])
    return 0


def cmd_sweep(args) -> int:
    cfg, units, fmt, path = _setup(args, "csv")
    model, v = _model_and_velocity(args, cfg)
    omegas, ks = _resolve_grid(args, cfg)
    if not omegas or not ks:
        raise ConfigError("sweep needs at least one omega and one k (--omega/--k or the 'grid' config key)")
    bp = BoostParams(v, units)  # reject superluminal input before looping
    grid_omega, grid_k = np.repeat(omegas, len(ks)), np.tile(ks, (len(omegas), 1))  # omega-major

    tables = []  # per block, its rows in SWEEP_COLUMNS order
    keep = np.ones(len(grid_omega), dtype=bool)
    skipped = []
    for start in range(0, len(grid_omega), SWEEP_BLOCK):
        omega, k = grid_omega[start:start + SWEEP_BLOCK], grid_k[start:start + SWEEP_BLOCK]
        with np.errstate(all="ignore"):  # cmd_transform's route at each point; the faults flag where it raises
            sigma, model_faults = model._evaluate(omega, k)
            sigma_p, omega_p, k_p, direct_faults = _direct(sigma, omega, k, bp)
            sigma_o, _, _, oracle_faults = _oracle(sigma, omega, k, bp.matrix(), units)
            residual = _rel_errors(sigma_p, sigma_o)
        point, tensor = _frame_faults(sigma, omega, k)  # the point is checked before the model, its tensor after
        faults = [point, *model_faults, tensor, *direct_faults, *oracle_faults]
        tables.append(np.column_stack((omega, k, omega_p, k_p, sigma_p.view(float).reshape(-1, 18), residual)))
        for i in np.flatnonzero(_flagged(faults)).tolist():
            try:
                _raise(faults, i)
            except (BoostResonance, StaticFrequency, OutOfRange) as exc:
                skipped.append((omega[i].item(), k[i].tolist(), f"{type(exc).__name__}: {exc}"))
                keep[start + i] = False
    for w, kv, reason in skipped:
        print(f"skipped omega={w!r} k={kv!r}: {reason}", file=sys.stderr)
    rows = np.concatenate(tables)[keep].tolist()
    if not rows:
        print("sweep produced no rows: every grid point was skipped", file=sys.stderr)
        return 3
    doc = None if fmt == "csv" else {
        "rows": [_sweep_record(row) for row in rows],
        "skipped": [{"omega": w, "k": kv, "reason": reason} for w, kv, reason in skipped],
    }
    _emit(fmt, path, doc, _SWEEP, rows)
    return 0


def cmd_ohm(args) -> int:
    cfg, units, fmt, path = _setup(args, "structured")
    model, v = _model_and_velocity(args, cfg)
    kw = _resolve_single_point(args, cfg)
    evec = _resolve_efield(args, cfg)

    bp = BoostParams(v, units)
    kw_p = transform_wavevector(bp.matrix(), kw, units)
    try:
        sigma_p = model.evaluate(kw_p)
        fields = fields_from_electric(evec, kw)
        gen = generalized_ohm(sigma_p, bp, fields)
    except (BoostResonance, StaticFrequency, OutOfRange) as exc:
        raise type(exc)(f"at omega={kw.omega!r} k={kw.kvec.tolist()!r}: {exc}") from exc

    s0 = complex(np.trace(sigma_p)) / 3.0
    iso_defect = float(np.max(np.abs(sigma_p - s0 * np.eye(3))))
    scalar = iso_defect <= ISOTROPY_RTOL * max(abs(s0), 1e-14)
    if args.textbook and not scalar:
        raise ConfigError(
            f"textbook formula requires a scalar conductivity; got anisotropy {iso_defect:.3e} at {kw_p!r}"
        )
    textbook = None
    if scalar:
        tb = textbook_ohm(s0, bp, fields)
        nr = textbook_ohm_nr(s0, v, fields)
        textbook = {
            "drift": _pairs(tb),
            "nonrel_drift": _pairs(nr),
            "diff_generalized_textbook": float(np.max(np.abs(gen.drift_current - tb))),
            "diff_generalized_nonrel": float(np.max(np.abs(gen.drift_current - nr))),
            "diff_textbook_nonrel": float(np.max(np.abs(tb - nr))),
        }
    else:
        print("conductivity is not scalar at the boosted point; textbook outputs omitted", file=sys.stderr)

    record = {
        **_point(kw, kw_p),
        "gamma": bp.gamma,
        "j": _pairs(gen.jvec),
        "rho": _pairs(gen.rho),
        "drift": _pairs(gen.drift_current),
        "textbook": textbook,
    }
    _emit(fmt, path, record, _OHM, [_cells(_OHM, record)])
    return 0


def cmd_verify(args) -> int:
    cfg, units, fmt, path = _setup(args, "structured")
    seed = _option(args.seed, cfg, "seed", _is_int, "an integer", 0)
    samples = _option(args.samples, cfg, "samples", _is_int, "an integer", 1000)
    if samples <= 0:
        raise ConfigError(f"samples must be positive, got {samples}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")

    fault = 1e-6 if args.inject_fault else 0.0
    results = run_all(seed, samples, units, fault=fault)
    suites = [{key: getattr(r, key) for key, _, _ in _VERIFY} for r in results]
    doc = {"seed": seed, "samples": samples, "passed": all(r.passed for r in results), "suites": suites}
    _emit(fmt, path, doc, _VERIFY, [_cells(_VERIFY, s) for s in suites])
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# sweep output as a tabulated model


def load_sweep_csv(source) -> list[dict]:
    """Parse sweep CSV back into records with complex sigma_prime tensors."""
    text = source.read() if hasattr(source, "read") else Path(source).read_text()
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or list(reader.fieldnames) != SWEEP_COLUMNS:
        raise ParseError(f"not a sweep table: header {reader.fieldnames!r}")
    records = []
    for row in reader:
        cells = {key: [_cell(row, prefix + s, reader.line_num) for s in _SUFFIXES[kind]]
                 for key, prefix, kind in _SWEEP}
        pairs = cells["sigma_prime"]
        records.append(
            {
                "at": Wavevector4(cells["omega"][0], cells["k"]),
                "at_prime": Wavevector4(cells["omega_prime"][0], cells["k_prime"]),
                "sigma_prime": np.array([complex(re, im) for re, im in zip(pairs[::2], pairs[1::2])]).reshape(3, 3),
                "residual": cells["residual"][0],
            }
        )
    return records


def _cell(row: dict, column: str, line: int) -> float:
    """The cell of a sweep CSV row in the given column, as a float; a short row has None there."""
    try:
        return float(row[column])
    except (TypeError, ValueError):
        got = "the end of the row" if row[column] is None else repr(row[column])
        raise ParseError(f"line {line}, column {column}: expected a number, got {got}") from None


def tabulated_from_sweep(records, interpolation: str = "nearest") -> Tabulated:
    """Turn sweep output into a tabulated model keyed at the boosted points: a node-exact lookup, since k'
    depends on omega for any nonzero velocity, so each row is its own k column with a single omega node, and
    a point off a node is out of range in either interpolation mode."""
    return Tabulated([(r["at_prime"], r["sigma_prime"]) for r in records], interpolation=interpolation)


# ---------------------------------------------------------------------------
# entry point


@functools.cache  # built on the first call, not at import; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ohmcov",
        description="Transform conductivity tensors between inertial frames and check the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name: str, help: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--c", type=float, help="speed of light (default 1)")
        p.add_argument("--output", help="write data here instead of stdout")
        p.add_argument("--format", choices=("csv", "structured"), help="output format")
        return p

    def pointful(name: str, help: str, handler) -> argparse.ArgumentParser:
        p = common(name, help, handler)
        p.add_argument("--model", help="conductivity model file")
        p.add_argument("--velocity", help="frame velocity vx,vy,vz")
        p.add_argument("--omega", help="comma-separated frequencies")
        p.add_argument("--k", help="semicolon-separated k vectors, each kx,ky,kz")
        return p

    pointful("transform", "boost the conductivity at one point", cmd_transform)
    pointful("sweep", "boost the conductivity over a grid", cmd_sweep)
    p = pointful("ohm", "moving-medium current response at one point", cmd_ohm)
    p.add_argument("--E", help="electric field amplitude ex,ey,ez (real; use a config file for complex)")
    p.add_argument("--textbook", action="store_true", help="fail instead of skipping the textbook formula when the conductivity is not scalar")

    p = common("verify", "run the randomized self checks", cmd_verify)
    p.add_argument("--seed", type=int, help="random seed, a non-negative integer (default 0)")
    p.add_argument("--samples", type=int, help="samples per suite (default 1000)")
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="perturb the boost law by 1e-6 to prove the checks can fail",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ParseError, InvariantViolation, SpeedLimit, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BoostResonance, StaticFrequency, OutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
